"""The import contract: a subcommand loads only the modules it calls.

Process start and exit decide the time of a short ``distchar`` run.  Exit
is kept short by ``main()`` freezing the collector (tested in
``test_cli.py``); start is kept short here: ``--help`` and ``delta-cf``
must not import numpy, ``verify`` computes its checks on the list path and
must not import numpy either, nor must a small ``near``, ``distmat``,
``rob-plus``, ``rob-minus``, ``concord``, ``corr``, ``adversarial`` or
``explore-near`` job, which runs on the list path (``explore-near`` alone
loads the stream module ``_pcg64``); a job the list path declines by its
coefficient or by its plan (``cli._plan``) must not import the list module, a
``near`` job on the array path must not import the score,
asymptotics or verification modules, and ``mc-nn`` must import none of the
matrix modules.  A table pins the ``distchar`` modules of every
subcommand, so a new import fails a test.  Each case runs in a fresh
interpreter, so ``sys.modules`` starts clean.
"""

import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distchar
from distchar import cli
from distchar.fixtures import fixture_path

SRC = Path(__file__).resolve().parents[1] / "src"
# Runs `distchar *argv`, prints the loaded module names as JSON, and exits
# with the subcommand's status.
PROBE = """
import json, sys
from distchar.cli import main
try:
    main()
except SystemExit as exc:
    status = exc.code
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(status)
"""


def loaded_modules(*argv: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          env=env, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize("argv", [["--help"], ["delta-cf", "--format", "json"], ["verify"]])
def test_runs_without_numpy(argv):
    modules = loaded_modules(*argv)
    assert "distchar.cli" in modules
    assert "numpy" not in modules
    # verify computes its checks on lists
    assert ("distchar._lists" in modules) == (argv == ["verify"])


def test_near_loads_only_its_own_modules():
    # P3.5 is not on the list path, which takes p3.5 as coefficient_name spells it
    modules = loaded_modules("near", "--c", "P3.5", "--x", str(fixture_path("ex4")))
    assert {"numpy", "distchar.neighbors", "distchar.distance"} <= modules
    unused = {f"distchar.{m}" for m in ("association", "asymptotics", "robustness",
                                        "verification")}
    assert not unused & modules


@pytest.mark.parametrize("command", ["near", "rob-plus"])
def test_general_p_list_jobs_load_only_the_list_modules(tmp_path, command):
    # general p takes the list path as p2 does: p3.5 on ex8 imports no numpy
    xp = tmp_path / "xp.csv"
    xp.write_text("1,1,0\n2,0,1\n3,0,2\n")
    flags = ["--xp", str(xp)] if command == "rob-plus" else []
    loaded = loaded_modules(command, "--c", "p3.5", "--x", str(fixture_path("ex8")), *flags)
    assert {m for m in loaded if m.startswith("distchar.")} == {f"distchar.{m}" for m in LISTS}
    assert "numpy" not in loaded


def test_mc_nn_loads_only_its_own_modules():
    modules = loaded_modules("mc-nn", "--points", "2", "--samples", "10")
    assert {"numpy", "distchar.asymptotics"} <= modules
    unused = {f"distchar.{m}" for m in ("association", "distance", "neighbors", "robustness",
                                        "verification")}
    assert not unused & modules


LISTS = {"_lists", "cli", "errors", "io"}
MATRIX = {"cli", "coefficients", "distance", "errors", "io"}
NEAR = MATRIX | {"neighbors"}
SCORES = NEAR | {"robustness"}
ASSOCIATION = SCORES | {"association"}
ASYMPTOTICS = {"asymptotics", "cli", "errors", "io"}
# each subcommand's arguments ({ex4}, {ex6}: fixtures; {x}: ex6's first
# column) and the distchar modules it loads; the first eight run small jobs
# on the list path, and so does verify
SUBCOMMAND_MODULES = {
    "distmat": (["--c", "p1", "--x", "{ex4}"], LISTS),
    "near": (["--c", "p2", "--x", "{ex4}"], LISTS),
    "rob-plus": (["--c", "p1", "--x", "{x}", "--xp", "{ex6}"], LISTS),
    "rob-minus": (["--c", "p1", "--x", "{ex4}"], LISTS),
    "concord": (["--m", "p1", "--n", "p2", "--x", "{ex4}"], LISTS),
    "corr": (["--m", "p1", "--n", "p2", "--x", "{ex4}"], LISTS),
    "adversarial": (["--c", "p1", "--x", "{ex4}"], LISTS),
    "explore-near": (["--rows", "3", "--c", "p1", "--random-samples", "2"], LISTS | {"_pcg64"}),
    "mc-nn": (["--points", "2", "--samples", "10"], ASYMPTOTICS),
    "delta-cf": ([], ASYMPTOTICS),
    "verify": ([], LISTS | {"asymptotics", "fixtures", "verification"}),
}


def test_the_table_has_every_subcommand():
    assert SUBCOMMAND_MODULES.keys() == {*cli._COMMANDS, "verify"}


def test_only_explore_near_loads_the_stream_module():
    assert [c for c, (_, modules) in SUBCOMMAND_MODULES.items() if "_pcg64" in modules] == [
        "explore-near"]


@pytest.mark.parametrize("declined", ["P2", "20000 columns"])
def test_declined_explore_near_loads_its_array_modules(declined):
    # by its spelling or by its plan (1.2 M draws), before the list module
    # loads
    flags = ["--c", "P2"] if declined == "P2" else ["--c", "p1", "--random-cols", "20000",
                                                     "--grid-extent", "0"]
    loaded = loaded_modules("explore-near", "--rows", "3", "--random-samples", "20", *flags)
    assert "numpy" in loaded
    assert {m for m in loaded if m.startswith("distchar.")} == {f"distchar.{m}" for m in NEAR}


@pytest.mark.parametrize("command", SUBCOMMAND_MODULES)
def test_subcommand_loads_exactly_its_modules(tmp_path, command):
    args, modules = SUBCOMMAND_MODULES[command]
    x = tmp_path / "x.csv"
    x.write_text("2\n5\n1\n")
    paths = {"ex4": fixture_path("ex4"), "ex6": fixture_path("ex6"), "x": x}
    loaded = loaded_modules(command, *(arg.format(**paths) for arg in args))
    assert {m for m in loaded if m.startswith("distchar.")} == {f"distchar.{m}" for m in modules}


# the modules of the seven list-path subcommands' jobs on the array path:
# those of a job the list path declines by its coefficient or by its plan,
# which never loads the list module
ARRAY_MODULES = {"distmat": MATRIX, "near": NEAR, "rob-plus": SCORES, "rob-minus": SCORES,
                 "concord": ASSOCIATION, "corr": ASSOCIATION, "adversarial": SCORES}


@pytest.mark.parametrize("declined", ["large", "P3.5"])
@pytest.mark.parametrize("command", ARRAY_MODULES)
def test_declined_job_loads_its_array_modules(tmp_path, command, declined):
    # the fewest rows n of an n x 2 job whose one build of X is above the
    # list path's bound
    n = next(n for n in itertools.count(2)
             if n * (n - 1) // 2 * (2 + cli._PAIR_COST) > cli._MAX_TERMS)
    x, xp = tmp_path / "x.csv", tmp_path / "xp.csv"
    rows = [f"{i},{i % 3}" for i in range(n)] if declined == "large" else ["0,0", "1,2", "3,1"]
    x.write_text("".join(f"{row}\n" for row in rows))
    xp.write_text("".join(f"{row},1\n" for row in rows))
    c = "P3.5" if declined == "P3.5" else "p1"
    flags = {"concord": ["--m", c, "--n", "p2"], "corr": ["--m", c, "--n", "p2"],
             "rob-plus": ["--c", c, "--xp", str(xp)]}
    loaded = loaded_modules(command, *flags.get(command, ["--c", c]), "--x", str(x))
    assert "numpy" in loaded
    want = ARRAY_MODULES[command]
    assert {m for m in loaded if m.startswith("distchar.")} == {f"distchar.{m}" for m in want}


def test_job_its_plan_declines_loads_only_its_array_modules(tmp_path):
    # one build of this 200 x 8 matrix is within the bound, corr's two are
    # not: the plan declines it before the list module loads
    x = tmp_path / "x.csv"
    x.write_text("".join(",".join(str((i * j) % 11) for j in range(1, 9)) + "\n"
                         for i in range(200)))
    loaded = loaded_modules("corr", "--m", "p1", "--n", "p2", "--x", str(x))
    assert "numpy" in loaded
    want = ARRAY_MODULES["corr"]
    assert {m for m in loaded if m.startswith("distchar.")} == {f"distchar.{m}" for m in want}


@pytest.mark.parametrize("name", distchar.__all__)
def test_public_name_is_its_home_module_attribute(name):
    home = importlib.import_module(f"distchar.{distchar._HOME[name]}")
    assert getattr(distchar, name) is getattr(home, name)
    assert name in dir(distchar)


def test_unknown_name_is_missing():
    assert not hasattr(distchar, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        distchar.nope  # noqa: B018


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from distchar import *", namespace)
    assert set(distchar.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(distchar, name) for name in distchar.__all__)


def test_lookup_is_not_cached(monkeypatch):
    """A rebinding in the home module shows through the package, and
    undoing it leaves nothing behind there."""
    from distchar import neighbors

    def wrapper(*args, **kwargs):
        raise AssertionError("not called")

    original = neighbors.nearest_sets
    with monkeypatch.context() as patch:
        patch.setattr(neighbors, "nearest_sets", wrapper)
        assert distchar.nearest_sets is wrapper
    assert distchar.nearest_sets is original
    assert "nearest_sets" not in vars(distchar)


@pytest.mark.parametrize("module", sorted(distchar._EXPORTS))
def test_module_all_extends_its_row(module):
    mod = importlib.import_module(f"distchar.{module}")
    assert set(distchar._EXPORTS[module]) <= set(mod.__all__)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert all(hasattr(mod, name) for name in mod.__all__)


def test_neighbors_exports_exact_ties():
    assert "EXACT_TIES" in distchar.neighbors.__all__


def test_errors_exports_only_the_exception():
    assert distchar.errors.__all__ == ["DomainError"]

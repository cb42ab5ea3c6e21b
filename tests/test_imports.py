"""The import contract: a subcommand loads only the modules it calls.

Process start and exit decide the time of a short ``distchar`` run.  Exit
is kept short by ``main()`` freezing the collector (tested in
``test_cli.py``); start is kept short here: ``--help`` and ``delta-cf``
must not import numpy, ``near`` must not import the score, asymptotics or
verification modules, and ``mc-nn`` must import none of the matrix
modules.  A table pins the ``distchar`` modules of every subcommand, so a
new import fails a test.  Each case runs in a fresh interpreter, so
``sys.modules`` starts clean.
"""

import importlib
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


@pytest.mark.parametrize("argv", [["--help"], ["delta-cf", "--format", "json"]])
def test_runs_without_numpy(argv):
    modules = loaded_modules(*argv)
    assert "distchar.cli" in modules
    assert "numpy" not in modules


def test_near_loads_only_its_own_modules():
    modules = loaded_modules("near", "--c", "p2", "--x", str(fixture_path("ex4")))
    assert {"numpy", "distchar.neighbors", "distchar.distance"} <= modules
    unused = {f"distchar.{m}" for m in ("association", "asymptotics", "robustness",
                                        "verification")}
    assert not unused & modules


def test_mc_nn_loads_only_its_own_modules():
    modules = loaded_modules("mc-nn", "--points", "2", "--samples", "10")
    assert {"numpy", "distchar.asymptotics"} <= modules
    unused = {f"distchar.{m}" for m in ("association", "distance", "neighbors", "robustness",
                                        "verification")}
    assert not unused & modules


MATRIX = {"cli", "coefficients", "distance", "errors", "io"}
NEAR = MATRIX | {"neighbors"}
SCORES = NEAR | {"robustness"}
ASSOCIATION = SCORES | {"association"}
ASYMPTOTICS = {"asymptotics", "cli", "errors", "io"}
# each subcommand's arguments ({ex4}, {ex6}: fixtures; {x}: ex6's first
# column) and the distchar modules it loads
SUBCOMMAND_MODULES = {
    "distmat": (["--c", "p1", "--x", "{ex4}"], MATRIX),
    "near": (["--c", "p2", "--x", "{ex4}"], NEAR),
    "explore-near": (["--rows", "3", "--c", "p1", "--random-samples", "2"], NEAR),
    "rob-plus": (["--c", "p1", "--x", "{x}", "--xp", "{ex6}"], SCORES),
    "rob-minus": (["--c", "p1", "--x", "{ex4}"], SCORES),
    "adversarial": (["--c", "p1", "--x", "{ex4}"], SCORES),
    "concord": (["--m", "p1", "--n", "p2", "--x", "{ex4}"], ASSOCIATION),
    "corr": (["--m", "p1", "--n", "p2", "--x", "{ex4}"], ASSOCIATION),
    "mc-nn": (["--points", "2", "--samples", "10"], ASYMPTOTICS),
    "delta-cf": ([], ASYMPTOTICS),
    "verify": ([], ASSOCIATION | ASYMPTOTICS | {"fixtures", "verification"}),
}


def test_the_table_has_every_subcommand():
    assert SUBCOMMAND_MODULES.keys() == {*cli._COMMANDS, "verify"}


@pytest.mark.parametrize("command", SUBCOMMAND_MODULES)
def test_subcommand_loads_exactly_its_modules(tmp_path, command):
    args, modules = SUBCOMMAND_MODULES[command]
    x = tmp_path / "x.csv"
    x.write_text("2\n5\n1\n")
    paths = {"ex4": fixture_path("ex4"), "ex6": fixture_path("ex6"), "x": x}
    loaded = loaded_modules(command, *(arg.format(**paths) for arg in args))
    assert {m for m in loaded if m.startswith("distchar.")} == {f"distchar.{m}" for m in modules}


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

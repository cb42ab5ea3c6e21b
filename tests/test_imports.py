"""The import contract: a subcommand loads only the modules it calls.

Process start decides the time of a short ``distchar`` run, so ``--help``
and ``delta-cf`` must not import numpy, ``near`` must not import the
score, asymptotics or verification modules, and ``mc-nn`` must import none
of the matrix modules.  Each case runs in a fresh interpreter, so
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
from distchar.fixtures import fixture_path

SRC = Path(__file__).resolve().parents[1] / "src"
# Runs `distchar *argv`, then prints the loaded module names as JSON.
PROBE = """
import json, sys
from distchar.cli import main
try:
    main()
except SystemExit:
    pass
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
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

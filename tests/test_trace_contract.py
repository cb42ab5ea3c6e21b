"""What ``perfbench/trace_run.py`` relies on, pinned from the library side.

The tracer rebinds module attributes by name and reads, under each score,
the ``distance.build`` spans that score made; these tests fail when a
refactor renames a traced function, changes how often a score builds, or
makes the CLI hold a function the tracer cannot rebind.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from distchar import (
    PNorm,
    SearchBudget,
    adversarial_augment,
    association,
    asymptotics,
    cli,
    concordance,
    correlation,
    neighbors,
    rob_minus,
    rob_plus,
    robustness,
)
from distchar import io as dcio
from distchar.neighbors import EXACT_TIES
from distchar.fixtures import fixture_path, load_example

TRACE_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "trace_run.py"
P1, P2 = PNorm(1), PNorm(2)
X = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [3.0, 1.0, 0.0], [1.0, 1.0, 1.0]])


def counter(monkeypatch, module, name) -> list:
    """Rebind ``module.name`` to a wrapper that appends to the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("score, builds", [
    (lambda: rob_plus(P2, X, np.hstack([X, X[:, :1]])), 2),
])
def test_robustness_build_counts(monkeypatch, score, builds):
    calls = counter(monkeypatch, robustness, "build")
    score()
    assert len(calls) == builds


def test_rob_minus_builds_once_and_updates_the_rest(monkeypatch):
    # the tracer reads the one build of X; the k leave-one-out matrices of
    # the 4 x 3 X are updates of its matrix, decided without the kernel
    builds = counter(monkeypatch, robustness, "build")
    stacks = counter(monkeypatch, robustness, "build_many")
    rows = counter(monkeypatch, robustness, "row_values")
    rob_minus(P2, X)
    assert (len(builds), len(stacks), len(rows)) == (1, 0, 0)


@pytest.mark.parametrize("x, builds, rows", [
    # one row of each leave-one-out matrix ties exactly: the kernel recomputes it
    (X, 1, 3),
    # five evenly spaced rows: the three inner rows of each matrix tie, so each
    # of the 3 matrices is rebuilt
    (np.array([[i / 10] * 3 for i in range(5)]), 4, 0),
])
def test_rob_minus_falls_back_to_the_kernel_where_its_bound_cannot_decide(
        monkeypatch, x, builds, rows):
    build_calls = counter(monkeypatch, robustness, "build")
    row_calls = counter(monkeypatch, robustness, "row_values")
    rob_minus(P2, x, EXACT_TIES)
    assert (len(build_calls), len(row_calls)) == (builds, rows)


def test_adversarial_builds_once_per_scale(monkeypatch):
    calls = counter(monkeypatch, robustness, "build")
    result = adversarial_augment(P1, load_example("ex8"))
    assert result.t == 0.5  # t = 1, then 1/2
    assert len(calls) == 2


def test_association_build_counts(monkeypatch):
    builds = counter(monkeypatch, association, "build")
    correlations = counter(monkeypatch, association, "matrix_correlation")
    concordance(P1, P2, X)
    assert (len(builds), len(correlations)) == (2, 0)
    correlation(P1, P2, X)
    assert (len(builds), len(correlations)) == (4, 1)


DISTMAT_JSON = ["distmat", "--c", "L", "--x", str(fixture_path("ex4")), "--format", "json"]


@pytest.mark.parametrize("module, name, argv", [
    (neighbors, "nearest_sets", ["near", "--c", "p2", "--x", str(fixture_path("ex4"))]),
    (asymptotics, "delta_constant", ["delta-cf"]),
    # perfbench's io.render.distmat_json.s times the streamed render inside
    # the span of cli._emit_json
    (cli, "_emit_json", DISTMAT_JSON),
    (dcio, "distance_matrix_json", DISTMAT_JSON),
    (dcio, "distance_matrix_csv", DISTMAT_JSON[:-2]),
])
def test_cli_calls_through_the_home_module(monkeypatch, capsys, module, name, argv):
    """The CLI looks each library function up at call time, so a wrapper
    rebound on the function's home module sees the call."""
    calls = counter(monkeypatch, module, name)
    assert cli.run(argv) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == 1


def test_traced_names_exist():
    tree = ast.parse(TRACE_RUN.read_text())
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [ast.unparse(t) for t in node.targets] == ["WRAPPED"])
    for layer, names in wrapped.items():
        module = importlib.import_module(f"distchar.{layer}")
        for name in names:
            assert callable(getattr(module, name)), f"distchar.{layer}.{name}"
    budget = SearchBudget()
    assert isinstance(budget.include_probes, bool)
    assert isinstance(budget.grid_limit, int)

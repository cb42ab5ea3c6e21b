"""Traced run: per-layer metrics for one workload, measured in this process.

Three parts:

1. Replay.  The workload's jobs run in-process through ``cli.run(argv)``
   three times: untraced, traced, untraced.  The traced replay wraps the
   public functions of each ``distchar`` module in spans (name, start, end,
   parent, workload, job) by rebinding the module attributes that refer to
   them; the library itself is not changed.  Spans stay in memory and are
   written to ``trace.json`` at the end.  A span's self time is its duration
   minus its children's.  ``coefficients.evaluate`` runs once per pair
   inside ``distance.build`` and is not wrapped, so its time is part of the
   build's self time; part 2 times it on its own.
2. Layer timings at fixed seeded shapes, independent of the workload.
3. Import costs from ``python -X importtime``.

Counts marked *computed* come from input shapes, not from measurement.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from workloads import SUBCOMMANDS

LAYER_GAUSS_SHAPE = (200, 16)
LAYER_TIES_SHAPE = (200, 12)
LAYER_SMALL_SHAPE = (5, 2)
COEFFICIENTS = ("p1", "p2", "pinf", "L", "p3.5")
REPEATS = 5  # median over this many timings of each layer call

SPAN_LAYERS = ("cli", "io", "distance", "neighbors", "robustness", "association",
               "asymptotics", "verification")
WRAPPED = {
    "io": ("load_data_matrix", "parse_data_matrix", "distance_matrix_dict",
           "distance_matrix_csv", "neighbor_sets_dict", "rational_dict",
           "correlation_dict", "adversarial_dict", "estimate_dict", "convergents_dict"),
    "distance": ("as_data_matrix", "build", "validate_distance_matrix"),
    "neighbors": ("nearest_sets", "achievable_near_totals"),
    "robustness": ("rob_plus", "rob_minus", "adversarial_augment"),
    "association": ("concordance", "correlation", "matrix_correlation"),
    "asymptotics": ("uniform_interval_expected_nn", "delta_constant",
                    "continued_fraction_convergents"),
    "verification": ("run_golden_checks",),
}
# Fields recorded from a call's arguments or result, by span name.
RECORD = {
    "io.parse_data_matrix": lambda args, kw, res: {"bytes": len(args[0].encode())},
    "neighbors.nearest_sets": lambda args, kw, res: {"total": res.total},
    "robustness.adversarial_augment": lambda args, kw, res: {"t": res.t},
    "asymptotics.uniform_interval_expected_nn": lambda args, kw, res: {"samples": res.samples},
}


class Tracer:
    """Collects spans for one workload; ``job`` is the index of the job being
    replayed, and ``parent`` the index of the enclosing span."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.job = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        record = RECORD.get(name)

        @functools.wraps(fn)
        def traced(*args, **kw):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "workload": self.workload, "job": self.job}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kw)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if record:
                span.update(record(args, kw, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every distchar module attribute that refers to a wrapped
        function, and restore them on exit."""
        import distchar.cli
        wrappers = {}
        for layer, names in WRAPPED.items():
            module = sys.modules[f"distchar.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        wrappers[id(distchar.cli._emit_json)] = self.wrap("io.emit_json", distchar.cli._emit_json)
        saved = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "distchar":
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        try:
            yield
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)


def _replay(jobs, check, tracer=None) -> tuple[float, dict, list[str]]:
    """Run every job in-process; return (wall, seconds per subcommand, failures)."""
    from distchar.cli import run
    per_sub = dict.fromkeys(SUBCOMMANDS, 0.0)
    failures = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        buf = io.StringIO()
        root = None
        if tracer is not None:
            tracer.job = i
            root = tracer.wrap("cli.run", run)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            status = (root or run)(job.argv)
        per_sub[job.sub] += time.perf_counter() - t0
        ok, why = check(job, status, buf.getvalue().encode())
        if not ok:
            failures.append(f"{job.label}: {why}")
    return time.perf_counter() - start, per_sub, failures


def _dur(span) -> float:
    return span["end"] - span["start"]


def _span_metrics(spans, jobs) -> dict:
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)

    def kids(i, name=None):
        return [spans[c] for c in children.get(i, ()) if name in (None, spans[c]["name"])]

    def job_level(name):
        return [(i, s) for i, s in enumerate(spans) if s["name"] == name
                and s["parent"] is not None and spans[s["parent"]]["name"] == "cli.run"]

    def total(name):
        return sum(_dur(s) for s in spans if s["name"] == name)

    m = {}
    self_time = dict.fromkeys(SPAN_LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_time[s["name"].split(".")[0]] += _dur(s) - sum(_dur(c) for c in kids(i))
    for layer, t in self_time.items():
        m[f"span.{layer}.self_s"] = t

    parse = [s for s in spans if s["name"] == "io.parse_data_matrix"]
    m["io.parse_data_matrix.s"] = sum(map(_dur, parse))
    m["io.parse_data_matrix.MB_per_s"] = sum(s["bytes"] for s in parse) / 1e6 / m["io.parse_data_matrix.s"]
    for sub, renderer, key in (("distmat", "io.distance_matrix_dict", "distmat_json"),
                               ("near", "io.neighbor_sets_dict", "near_json")):
        picked = {i for i, job in enumerate(jobs) if job.sub == sub}
        m[f"io.render.{key}.s"] = sum(_dur(s) for s in spans if s["job"] in picked
                                      and s["name"] in (renderer, "io.emit_json"))
    m["distance.validate_distance_matrix.s"] = total("distance.validate_distance_matrix")

    near_jobs = {i for i, job in enumerate(jobs) if job.sub == "near"}
    m["neighbors.total"] = sum(s["total"] for _, s in job_level("neighbors.nearest_sets")
                               if s["job"] in near_jobs)
    m["neighbors.achievable_near_totals.s"] = sum(_dur(s) for _, s in
                                                  job_level("neighbors.achievable_near_totals"))

    def builds_equiv(name, calls, per_step=False):
        """Call time over the time of the first build it (or its parent) made."""
        num = den = 0.0
        for i, s in calls:
            owner = s["parent"] if name == "association.matrix_correlation" else i
            first_build = kids(owner, "distance.build")[0]
            steps = abs(math.log2(s["t"])) + 1 if per_step else 1
            num += _dur(s) / steps
            den += _dur(first_build)
        return num / den

    for name in ("robustness.rob_minus", "robustness.rob_plus", "robustness.adversarial_augment",
                 "association.correlation", "association.concordance"):
        calls = job_level(name)
        m[f"{name}.s"] = sum(_dur(s) for _, s in calls)
        m[f"{name}.builds_equiv"] = builds_equiv(name, calls, name.endswith("augment"))
    calls = [(i, s) for i, s in enumerate(spans) if s["name"] == "association.matrix_correlation"
             and spans[s["parent"]]["name"] == "association.correlation"]
    m["association.matrix_correlation.s"] = sum(_dur(s) for _, s in calls)
    m["association.matrix_correlation.builds_equiv"] = builds_equiv(
        "association.matrix_correlation", calls)
    m["robustness.adversarial_augment.steps"] = sum(
        abs(math.log2(s["t"])) + 1 for _, s in job_level("robustness.adversarial_augment"))

    mc = job_level("asymptotics.uniform_interval_expected_nn")
    m["asymptotics.uniform_interval_expected_nn.s"] = sum(_dur(s) for _, s in mc)
    m["asymptotics.uniform_interval_expected_nn.Msamples_per_s"] = (
        sum(s["samples"] for _, s in mc) / 1e6 / m["asymptotics.uniform_interval_expected_nn.s"])
    for name in ("asymptotics.delta_constant", "asymptotics.continued_fraction_convergents",
                 "verification.run_golden_checks"):
        m[f"{name}.s"] = sum(_dur(s) for _, s in job_level(name))
    return m


def _timed(fn, repeat: int = REPEATS, number: int = 1) -> float:
    """Median seconds per call over ``repeat`` batches of ``number`` calls."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def _layer_metrics(seed: int) -> dict:
    from distchar.coefficients import evaluate, parse_coefficient
    from distchar.distance import build
    from distchar.neighbors import nearest_sets

    rng = np.random.default_rng([seed, 1000])
    gauss = rng.standard_normal(LAYER_GAUSS_SHAPE)
    ties = rng.integers(0, 4, LAYER_TIES_SHAPE).astype(float)
    small = rng.standard_normal(LAYER_SMALL_SHAPE)
    n, k = gauss.shape
    terms = n * (n - 1) // 2 * k
    vec = gauss[1] - gauss[0]
    m = {}
    for name in COEFFICIENTS:
        c = parse_coefficient(name)
        m[f"coefficients.evaluate.{name}.us"] = 1e6 * _timed(lambda: evaluate(c, vec), number=2000)
        t = _timed(lambda: build(c, gauss), repeat=3)
        m[f"distance.build.{name}.s"] = t
        m[f"distance.build.{name}.Mterms_per_s"] = terms / 1e6 / t
    p2 = parse_coefficient("p2")
    m["distance.build.small.us"] = 1e6 * _timed(lambda: build(p2, small), number=500)
    tracemalloc.start()
    build(p2, gauss)
    m["distance.build.peak_MB"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    m["distance.build.bytes"] = 8 * n * n
    d_gauss = build(p2, gauss)
    d_ties = build(parse_coefficient("pinf"), ties)
    d_small = build(p2, small)
    m["neighbors.nearest_sets.gauss.s"] = _timed(lambda: nearest_sets(d_gauss))
    m["neighbors.nearest_sets.ties.s"] = _timed(lambda: nearest_sets(d_ties))
    m["neighbors.nearest_sets.small.us"] = 1e6 * _timed(lambda: nearest_sets(d_small), number=500)
    return m


def _search_matrices(jobs) -> int:
    """Matrices `achievable_near_totals` builds for the workload's explore-near jobs."""
    from distchar.cli import build_parser
    from distchar.neighbors import SearchBudget
    parser, budget = build_parser(), SearchBudget()
    count = 0
    for job in jobs:
        if job.sub != "explore-near":
            continue
        a = parser.parse_args(job.argv)
        grid = (a.grid_extent + 1) ** a.rows
        count += (4 if budget.include_probes else 0) + a.random_samples
        count += grid if a.grid_extent >= 1 and grid <= budget.grid_limit else 0
    return count


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def _import_metrics(child_env: dict) -> dict:
    """Median over REPEATS of ``python -X importtime -c 'import distchar.cli'``."""
    env = dict(os.environ, **child_env)
    samples = []
    for _ in range(REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import distchar.cli"],
                              capture_output=True, text=True, env=env, timeout=60)
        if proc.returncode != 0:
            raise ImportError(f"importing distchar.cli failed: {proc.stderr.strip()[-200:]}")
        cumulative, self_us = {}, 0
        for self_t, cum_t, _, mod in _IMPORT_LINE.findall(proc.stderr):
            cumulative[mod] = int(cum_t)
            if mod.split(".")[0] == "distchar":
                self_us += int(self_t)
        samples.append({
            "cli.import.s": cumulative["distchar.cli"] / 1e6,
            "import.numpy.s": cumulative.get("numpy", 0) / 1e6,
            "import.mpmath.s": cumulative.get("mpmath", 0) / 1e6,
            "import.distchar.self_s": self_us / 1e6,
        })
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


UNITS = {  # by name suffix
    "MB_per_s": "MB/s", "Mterms_per_s": "Mterms/s", "Msamples_per_s": "Msamples/s",
    ".s": "s", ".self_s": "s", ".us": "us", ".peak_MB": "MB", ".bytes": "B",
    ".builds_equiv": "ratio", ".overhead_frac": "ratio",
    ".steps": "count", ".total": "count", ".matrices": "count",
}
COMPUTED = ("distance.build.bytes", "neighbors.achievable_near_totals.matrices")


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS.items() if name.endswith(suffix))


def run(workload: str, seed: int, jobs, src: Path, child_env: dict, run_dir: Path,
        checker) -> dict:
    """Traced run of one workload; raises ImportError if distchar cannot load."""
    sys.path.insert(0, str(src.resolve()))
    import distchar.cli  # noqa: F401

    tracer = Tracer(workload)
    plain_a, cli_a, fail_a = _replay(jobs, checker.check)
    with tracer.installed():
        traced, _, fail_t = _replay(jobs, checker.check, tracer)
    plain_b, cli_b, fail_b = _replay(jobs, checker.check)

    metrics = _layer_metrics(seed)
    metrics.update(_span_metrics(tracer.spans, jobs))
    metrics["neighbors.achievable_near_totals.matrices"] = _search_matrices(jobs)
    metrics.update(_import_metrics(child_env))
    for sub in SUBCOMMANDS:
        metrics[f"cli.run.{sub}.s"] = (cli_a[sub] + cli_b[sub]) / 2
    metrics["trace.overhead_frac"] = traced / ((plain_a + plain_b) / 2) - 1

    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "trace.json").write_text(
        json.dumps({"jobs": [job.label for job in jobs], "spans": tracer.spans}))
    return {
        "metrics": metrics,
        "units": {name: unit_of(name) for name in metrics},
        "computed": list(COMPUTED),
        "attempted": 3 * len(jobs),
        "failures": fail_a + fail_t + fail_b,
        "spans": len(tracer.spans),
    }

"""The distchar benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload bulk-gauss --seed 1 --seconds 32 --trace 0

Run from the repository root.  With ``--trace 0`` it runs the workload's
jobs as ``distchar`` processes (a single client in a closed loop, one
process at a time) in passes over the job list for ``--seconds`` seconds,
after one untimed warm-up process, checks every output against the oracle,
and reports the end-to-end metrics.  With ``--trace 1`` it replays the
workload in this process with spans around each layer's public calls and
reports the per-layer metrics (see ``trace_run.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run's
provenance, inputs and figures are also written to
``.perfbench/results/``; ``report.py`` summarises those files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402

ENTRY = "from distchar.cli import main; main()"
SRC = Path("src")
# One process at a time, single-threaded: numpy's BLAS pool would otherwise
# spin up threads at import and contend for the second core.
CHILD_ENV = {"PYTHONPATH": str(SRC.resolve()), "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK = Path(".perfbench")
SETUP_SAMPLES_PER_PASS = 2
JOB_TIMEOUT_S = 60  # a job still running then is killed and counts as failed
# On a small shared VM the host can slow the same code by up to 1.5x for
# seconds to minutes at a time, and every process of a run moves with it.
# A reference process that runs no distchar code (interpreter start plus the
# numpy import every job also pays) is timed between jobs, and time metrics
# are scaled by REFERENCE_S over its median in the run: seconds as on a host
# where the reference takes REFERENCE_S.
REFERENCE_CODE = "import numpy"
REFERENCE_S = 0.1
REFERENCE_EVERY = 4


def subcommand_metric(sub: str) -> str:
    return sub.replace("-", "_") + "_s"


class SetupError(Exception):
    """The program cannot be started here; no result is printed."""


def launch(argv: list[str], out_path: Path, code: str = ENTRY) -> tuple[float, float, int]:
    """Run ``python -c code *argv`` (by default one `distchar` process);
    return (wall seconds, peak RSS MB, exit status).

    Peak RSS comes from this child's own rusage (``os.wait4``):
    ``RUSAGE_CHILDREN`` keeps one maximum over all children ever waited for.
    """
    env = dict(os.environ, **CHILD_ENV)
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=out,
                                stderr=subprocess.DEVNULL, env=env)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def reference(out_dir: Path) -> float:
    """Wall seconds of the reference process, which runs no distchar code."""
    return launch([], out_dir / "reference.out", code=REFERENCE_CODE)[0]


def run_pass(jobs, out_dir: Path, check, refs: list[float]) -> dict:
    """One pass over the job list, with a reference process before every
    REFERENCE_EVERY-th job (appended to ``refs``); outputs are checked after
    the last job.  Figures are raw wall seconds."""
    times = dict.fromkeys(workloads.SUBCOMMANDS, 0.0)
    results, peak = [], 0.0
    for i, job in enumerate(jobs):
        if i % REFERENCE_EVERY == 0:
            refs.append(reference(out_dir))
        out_path = out_dir / f"job{i:02d}.out"
        wall, rss, status = launch(job.argv, out_path)
        times[job.sub] += wall
        peak = max(peak, rss)
        results.append((job, status, out_path))
    failed = [f"{job.label}: {why}" for job, status, path in results
              for ok, why in [check(job, status, path.read_bytes())] if not ok]
    figures = {"wall_s": sum(times.values()), "peak_rss_mb": peak}
    figures.update({subcommand_metric(s): t for s, t in times.items()})
    return {"figures": figures, "attempted": len(jobs), "failed": failed}


def measure(jobs, seconds: float, run_dir: Path, check) -> dict:
    """Passes over the job list for ``seconds``.  Each time metric is the
    median over the passes, scaled by REFERENCE_S over the run's median
    reference time; raw medians are kept under ``raw_metrics``.  The untimed
    `distchar --help` first imports every distchar module, so .pyc
    compilation is not timed; the inputs were just written and are in the
    page cache."""
    out_dir = run_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    _, _, status = launch(["--help"], out_dir / "help.out")
    if status != 0:
        raise SetupError(f"`distchar --help` exited with status {status}")
    setup, passes, refs = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for _ in range(SETUP_SAMPLES_PER_PASS):
            setup.append(launch(["--help"], out_dir / "help.out")[0])
        passes.append(run_pass(jobs, out_dir, check, refs))
    raw = {"setup_s": statistics.median(setup)}
    for name in passes[0]["figures"]:
        raw[name] = statistics.median(p["figures"][name] for p in passes)
    scale = REFERENCE_S / statistics.median(refs)
    metrics = {name: v if name == "peak_rss_mb" else v * scale for name, v in raw.items()}
    return {
        "metrics": metrics,
        "units": {name: "MB" if name == "peak_rss_mb" else "s" for name in metrics},
        "raw_metrics": raw,
        "reference_s": refs,
        "attempted": sum(p["attempted"] for p in passes),
        "failures": [f for p in passes for f in p["failed"]],
        "passes": len(passes),
        "setup_samples": len(setup),
        "per_pass_raw": [p["figures"] for p in passes],
    }


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import mpmath
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def _commit() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "distchar" / "cli.py").is_file():
        print(f"error: no {SRC / 'distchar'} here; run from the repository root",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    load_before = os.getloadavg()
    jobs, inputs = workloads.generate(args.workload, args.seed, run_dir / "inputs",
                                      SRC / "distchar" / "fixtures")
    checker = oracle.Oracle()
    try:
        if args.trace:
            import trace_run
            result = trace_run.run(args.workload, args.seed, jobs, SRC, CHILD_ENV, run_dir,
                                   checker)
        else:
            result = measure(jobs, args.seconds, run_dir, checker.check)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": _machine(),
        "commit": _commit(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "inputs": inputs,
        "jobs": [job.label for job in jobs],
        "ambiguous_tie_decisions": checker.ambiguous,
        **result,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1))

    failed = len(result["failures"])
    for line in result["failures"][:20]:
        print(f"FAILED {line}")
    computed = set(result.get("computed", ()))
    for metric, value in result["metrics"].items():
        tag = "  (computed)" if metric in computed else ""
        print(f"{metric} {value:.6g} {result['units'][metric]}{tag}")
    print(f"fail_frac {failed / result['attempted']:.6g} 1  "
          f"({failed} of {result['attempted']} jobs; "
          f"{checker.ambiguous} ambiguous tie decisions accepted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m: {"value": v, "unit": result["units"][m]}
                    for m, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

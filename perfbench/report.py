"""Summarise repeated benchmark runs: median and quartiles of every metric.

    python3 perfbench/report.py [RESULT.json ...]

With no arguments it reads every file in ``.perfbench/results/``.  Runs are
grouped by workload and trace mode.  For each metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread (Q3 - Q1) / median.  A metric whose spread exceeds a tenth is
flagged ``UNSTEADY``; an end-to-end metric whose spread exceeds a third of
its bound in ``BENCHMARK.json`` is flagged ``OVER-BOUND/3``.  The machine,
seeds and load averages of the runs are printed first.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(".perfbench/results")
STEADY = 0.1


def _bounds() -> dict:
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}


def summarise(records: list[dict]) -> list[str]:
    bounds = _bounds()
    groups = defaultdict(list)
    for r in records:
        groups[(r["workload"], r["trace"])].append(r)
    lines = []
    for (workload, trace), runs in sorted(groups.items()):
        seeds = sorted(r["seed"] for r in runs)
        load = [round(r["loadavg_before"][0], 2) for r in runs]
        failed = sum(len(r["failures"]) for r in runs)
        lines.append(f"## {workload}, trace {trace}: {len(runs)} runs, seeds {seeds}")
        lines.append(f"machine {runs[0]['machine']}  commit {runs[0]['commit']}")
        lines.append(f"1-min load before each run {load}; failed jobs {failed} of "
                     f"{sum(r['attempted'] for r in runs)}")
        lines.append(f"{'metric':50s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, unit in runs[0]["units"].items():
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            flags = []
            if abs(spread) > STEADY:
                flags.append("UNSTEADY")
            if trace == 0 and name in bounds and abs(spread) > bounds[name] / 3:
                flags.append("OVER-BOUND/3")
            lines.append(f"{name:50s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}"
                         f"  {unit} {' '.join(flags)}".rstrip())
        lines.append("")
    return lines


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(RESULTS.glob("*.json"))
    if not paths:
        print(f"no result files in {RESULTS}", file=sys.stderr)
        return 1
    print("\n".join(summarise([json.loads(p.read_text()) for p in paths])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

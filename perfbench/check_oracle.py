"""Show that the oracle rejects wrong outputs and that rejections count as failures.

    python3 perfbench/check_oracle.py

Run from the repository root.  It generates each workload's inputs for one
seed, runs each job once in-process, and checks each output twice: as
produced, which must be accepted, and with one deliberate error, which must
be rejected.  It then feeds a whole pass through ``run.run_pass`` with one
output corrupted and checks that the pass reports exactly one failed job.
Exits 1 if any check goes the wrong way.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def _edit_json(fn):
    def edit(text: str) -> str:
        payload = json.loads(text)
        fn(payload)
        return json.dumps(payload)
    return edit


def _bump_set(p):
    """Replace one neighbor index of one row; the total stays the same.  Where
    every row already holds every other index, the row's own index is used."""
    n = len(p["sets"])
    for i, row in enumerate(p["sets"], start=1):
        spare = [j for j in range(1, n + 1) if j != i and j not in row]
        if row and spare:
            break
    row[0] = spare[0] if spare else i
    row.sort()


def _nudge_entry(p):
    p["entries"][0][1] *= 1 + 1e-12
    p["entries"][1][0] = p["entries"][0][1]


MUTATIONS = {  # subcommand -> (description, edit of the stdout text)
    "near": ("one neighbor index changed", _edit_json(_bump_set)),
    "distmat": ("one entry off by 1e-12 relative", _edit_json(_nudge_entry)),
    "rob-minus": ("numerator off by one", _edit_json(lambda p: p.update(num=p["num"] - 1))),
    "rob-plus": ("numerator off by one",
                 _edit_json(lambda p: p.update(num=p["num"] + (1 if p["num"] < p["den"] else -1)))),
    "concord": ("numerator off by one",
                _edit_json(lambda p: p.update(num=p["num"] + (1 if p["num"] < p["den"] else -1)))),
    "corr": ("rho off by 1e-6", _edit_json(lambda p: p.update(rho=p["rho"] - 1e-6))),
    "adversarial": ("column scale doubled",
                    _edit_json(lambda p: p.update(column=[2 * c for c in p["column"]]))),
    "explore-near": ("impossible total n(n-1)-1 added",
                     _edit_json(lambda p: p.update(totals=sorted(
                         p["totals"] + [p["rows"] * (p["rows"] - 1) - 1])))),
    "mc-nn": ("mean moved by 10 standard errors",
              _edit_json(lambda p: p.update(mean=p["mean"] + 10 * p["standard_error"]))),
    "delta-cf": ("last convergent dropped",
                 _edit_json(lambda p: p.update(convergents=p["convergents"][:-1]))),
    "verify": ("one check failed", lambda t: t.replace("22/22", "21/22")),
}


def main() -> int:
    sys.path.insert(0, str(bench.SRC.resolve()))
    from distchar.cli import run

    problems = []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in workloads.WORKLOADS:
            jobs, _ = workloads.generate(workload, 0, Path(tmp) / workload,
                                         bench.SRC / "distchar" / "fixtures")
            check = oracle.Oracle().check
            for job in jobs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    status = run(job.argv)
                good = buf.getvalue()
                what, edit = MUTATIONS[job.sub]
                ok, why = check(job, status, good.encode())
                bad_ok, bad_why = check(job, status, edit(good).encode())
                fail_ok, _ = check(job, 1, good.encode())
                verdict = "ok" if ok and not bad_ok and not fail_ok else "WRONG"
                print(f"{verdict:5s} {workload:11s} {job.label[:60]:60s} "
                      f"[{what}: {bad_why or 'accepted'}]")
                if verdict != "ok":
                    problems.append(f"{workload} {job.label}: {why or bad_why}")
            out_dir = Path(tmp) / workload / "out"
            out_dir.mkdir()
            corrupt = oracle.Oracle().check
            target = next(job for job in jobs if job.sub == "near")

            def check_with_one_error(job, status, stdout):
                if job is target:
                    stdout = MUTATIONS["near"][1](stdout.decode()).encode()
                return corrupt(job, status, stdout)

            result = bench.run_pass(jobs, out_dir, check_with_one_error, [])
            counted = len(result["failed"])
            print(f"{'ok' if counted == 1 else 'WRONG':5s} {workload:11s} "
                  f"one corrupted output in a pass of {result['attempted']} jobs "
                  f"-> {counted} failed")
            if counted != 1:
                problems.append(f"{workload}: pass counted {counted} failures, expected 1")
    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

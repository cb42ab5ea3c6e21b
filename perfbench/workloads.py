"""Seeded inputs and job lists for the three benchmark workloads.

Every workload runs every subcommand, so each per-subcommand metric exists
on each workload.  The jobs a workload is named after carry most of its
time; the remaining subcommands run on small inputs drawn from the same
generated data.  A subcommand whose jobs are short runs at least twice per
pass (two variants), so that its figure is not one short process.

* ``bulk-gauss``: one large Gaussian matrix with almost no ties.  The
  distance kernel, the O(n^2) neighbor scan and n^2 rendering do nearly all
  the work.
* ``robust-ties``: a mid-sized integer lattice with many exact ties.  Each
  robustness score repeats the build (k+1 times for rob-minus, about three
  times per adversarial step), and ties make the neighbor sets large.
* ``small-many``: many processes that each do milliseconds of math on 2- to
  6-row matrices, so interpreter start, imports and per-call overhead decide
  the time.

The program sees only the files written here; the bundled fixtures are
copied into the work directory first.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("bulk-gauss", "robust-ties", "small-many")
SUBCOMMANDS = ("near", "distmat", "corr", "concord", "rob-minus", "rob-plus",
               "adversarial", "explore-near", "mc-nn", "delta-cf", "verify")

GAUSS_SHAPE = (300, 16)      # bulk-gauss main matrix
GAUSS_HEAD_ROWS = 40         # bulk-gauss rows used by the robustness jobs
GAUSS_ADV_SHAPE = (30, 3)    # bulk-gauss adversarial input
LATTICE_SHAPE = (120, 12)    # robust-ties main matrix, entries in {0..3}
LATTICE_ADV_SHAPE = (60, 3)  # robust-ties adversarial input
LATTICE_LEVELS = 4
FIXTURES = ("ex4", "ex5", "ex6", "ex7", "ex8", "ex9")
FIXTURE_COEFFICIENTS = ("p1", "p2", "pinf", "L", "p3.5", "p2")


@dataclass(frozen=True)
class Job:
    """One `distchar` invocation: the subcommand and its arguments."""

    sub: str
    args: tuple[str, ...]

    @property
    def argv(self) -> list[str]:
        return [self.sub, *self.args]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _write_csv(path: Path, x: np.ndarray, integer: bool = False) -> None:
    fmt = (lambda v: str(int(v))) if integer else (lambda v: repr(float(v)))
    path.write_text("".join(",".join(fmt(v) for v in row) + "\n" for row in x))


def _describe(path: Path) -> dict:
    data = path.read_bytes()
    rows = [line for line in data.decode().splitlines() if line and not line.startswith("#")]
    return {
        "file": path.name,
        "shape": [len(rows), len(rows[0].split(","))],
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def _json(*args: str) -> tuple[str, ...]:
    return (*args, "--format", "json")


def _bulk_gauss(rng, work: Path, seed: int) -> list[Job]:
    x = rng.standard_normal(GAUSS_SHAPE)
    head = x[:GAUSS_HEAD_ROWS]
    head_ext = np.hstack([head, rng.standard_normal((GAUSS_HEAD_ROWS, 1))])
    adv = rng.standard_normal(GAUSS_ADV_SHAPE)
    for name, arr in (("gauss", x), ("gauss_head", head),
                      ("gauss_head_ext", head_ext), ("gauss_adv", adv)):
        _write_csv(work / f"{name}.csv", arr)
    g, h, he, a = (str(work / f"{n}.csv") for n in ("gauss", "gauss_head", "gauss_head_ext", "gauss_adv"))
    return [
        Job("near", _json("--c", "p2", "--x", g)),
        Job("distmat", _json("--c", "L", "--x", g)),
        Job("corr", _json("--m", "p1", "--n", "p2", "--x", g, "--conv", "upper")),
        Job("concord", _json("--m", "pinf", "--n", "p3.5", "--x", g)),
        Job("rob-minus", _json("--c", "p2", "--x", h)),
        Job("rob-minus", _json("--c", "p1", "--x", h)),
        Job("rob-plus", _json("--c", "p2", "--x", h, "--xp", he)),
        Job("rob-plus", _json("--c", "pinf", "--x", h, "--xp", he)),
        Job("adversarial", _json("--c", "p2", "--x", a)),
        Job("adversarial", _json("--c", "p1", "--x", a)),
        *_small_tail(seed, rows=4, digits=(12, 8)),
    ]


def _robust_ties(rng, work: Path, seed: int) -> list[Job]:
    x = rng.integers(0, LATTICE_LEVELS, LATTICE_SHAPE)
    ext = np.hstack([x, rng.integers(0, LATTICE_LEVELS, (LATTICE_SHAPE[0], 1))])
    adv = rng.integers(0, LATTICE_LEVELS, LATTICE_ADV_SHAPE)
    for name, arr in (("lattice", x), ("lattice_ext", ext), ("lattice_adv", adv)):
        _write_csv(work / f"{name}.csv", arr, integer=True)
    lat, ext_p, adv_p = (str(work / f"{n}.csv") for n in ("lattice", "lattice_ext", "lattice_adv"))
    return [
        Job("rob-minus", _json("--c", "p1", "--x", lat)),
        Job("rob-minus", _json("--c", "pinf", "--x", lat)),
        Job("rob-plus", _json("--c", "pinf", "--x", lat, "--xp", ext_p)),
        Job("rob-plus", _json("--c", "p1", "--x", lat, "--xp", ext_p)),
        Job("adversarial", _json("--c", "pinf", "--x", adv_p)),
        Job("adversarial", _json("--c", "p1", "--x", adv_p)),
        Job("near", _json("--c", "pinf", "--x", lat)),
        Job("near", _json("--c", "p1", "--x", lat)),
        Job("distmat", _json("--c", "pinf", "--x", lat)),
        Job("distmat", _json("--c", "p1", "--x", adv_p)),
        Job("corr", _json("--m", "p1", "--n", "pinf", "--x", lat, "--conv", "grid")),
        Job("corr", _json("--m", "p2", "--n", "L", "--x", adv_p, "--conv", "upper")),
        Job("concord", _json("--m", "p1", "--n", "p2", "--x", lat)),
        Job("concord", _json("--m", "pinf", "--n", "L", "--x", adv_p)),
        *_small_tail(seed, rows=4, digits=(16, 10)),
    ]


def _small_tail(seed: int, rows: int, digits: tuple[int, int]) -> list[Job]:
    """Two short runs each of the searches, the constants and `verify`."""
    s = str(seed)
    return [
        Job("explore-near", _json("--rows", str(rows), "--c", "p2", "--seed", s)),
        Job("explore-near", _json("--rows", str(rows), "--c", "pinf", "--seed", s)),
        Job("mc-nn", _json("--points", "1", "--samples", "200000", "--seed", s)),
        Job("mc-nn", _json("--points", "2", "--samples", "200000", "--seed", s)),
        Job("delta-cf", _json("--digits", str(digits[0]))),
        Job("delta-cf", _json("--digits", str(digits[1]))),
        Job("verify", ()),
        Job("verify", ()),
    ]


def _small_many(rng, work: Path, seed: int, fixture_dir: Path) -> list[Job]:
    jobs = [
        Job("verify", ()),
        Job("delta-cf", _json("--digits", "20")),
        Job("mc-nn", _json("--points", "3", "--samples", "2000000", "--seed", str(seed))),
        Job("explore-near", _json("--rows", "5", "--c", "p2", "--seed", str(seed))),
        Job("explore-near", _json("--rows", "6", "--c", "p1", "--seed", str(seed))),
        Job("verify", ()),
        Job("delta-cf", _json("--digits", "15")),
        Job("mc-nn", _json("--points", "2", "--samples", "1000000", "--seed", str(seed))),
    ]
    paths = {}
    for name, coef in zip(FIXTURES, FIXTURE_COEFFICIENTS):
        text = (fixture_dir / f"{name}.csv").read_text()
        x = np.loadtxt(text.splitlines(), delimiter=",", comments="#", ndmin=2)
        (work / f"{name}.csv").write_text(text)
        ext = np.hstack([x, rng.integers(0, 10, (x.shape[0], 1))])
        _write_csv(work / f"{name}_ext.csv", ext)
        p, pe = str(work / f"{name}.csv"), str(work / f"{name}_ext.csv")
        paths[name] = p
        jobs.append(Job("near", _json("--c", coef, "--x", p)))
        jobs.append(Job("rob-plus", _json("--c", coef, "--x", p, "--xp", pe)))
    jobs += [
        Job("distmat", _json("--c", "p2", "--x", paths["ex4"])),
        Job("distmat", _json("--c", "L", "--x", paths["ex8"])),
        Job("corr", _json("--m", "p1", "--n", "p2", "--x", paths["ex5"])),
        Job("corr", _json("--m", "p1", "--n", "pinf", "--x", paths["ex4"], "--conv", "upper")),
        Job("concord", _json("--m", "p1", "--n", "p2", "--x", paths["ex8"])),
        Job("concord", _json("--m", "pinf", "--n", "L", "--x", paths["ex4"])),
        Job("rob-minus", _json("--c", "p2", "--x", paths["ex4"])),
        Job("rob-minus", _json("--c", "p1", "--x", paths["ex5"])),
        Job("adversarial", _json("--c", "p2", "--x", paths["ex9"])),
        Job("adversarial", _json("--c", "pinf", "--x", paths["ex6"])),
    ]
    return jobs


def generate(workload: str, seed: int, work: Path, fixture_dir: Path) -> tuple[list[Job], list[dict]]:
    """Write the workload's inputs under ``work``; return its jobs and the
    shape and sha256 of every input file."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "bulk-gauss":
        jobs = _bulk_gauss(rng, work, seed)
    elif workload == "robust-ties":
        jobs = _robust_ties(rng, work, seed)
    elif workload == "small-many":
        jobs = _small_many(rng, work, seed, fixture_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs = [_describe(p) for p in sorted(work.glob("*.csv"))]
    return jobs, inputs

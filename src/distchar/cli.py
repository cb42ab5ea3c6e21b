"""Command-line front end: one subcommand per analysis (``distchar --help``
lists them; ``verify`` runs the built-in golden-example checks).

Every other subcommand is one row of ``_COMMANDS`` whose payload is what
``--format json`` prints (a dict; for ``distmat``, the distance matrix); the
text output is the lines rendered from that same payload.  Its flags become
library values, checked in flag order, before anything is computed.
``run()`` takes that array path for every job, and computes ``verify``'s
checks on arrays.  ``main()``, the process entry, first offers each job
that takes ``--x``, and ``explore-near``, to the list path (``_lists``,
whose docstring gives what a job costs there), and computes ``verify``'s
checks on lists (``verification.Lists``): each prints ``run()``'s bytes
without importing numpy.

Exit status: 0 on success, 1 on a domain error or a failed write to stdout
(one-line diagnostic, no traceback), 2 on a usage error.  With identical
arguments, input files and seeds the JSON output is byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import Callable, Iterable, NamedTuple

import distchar as dc

from . import io as dcio
from .errors import DomainError, p_norm_name

__all__ = ["main", "run"]

# Every option, declared once: flag -> add_argument keywords.
_OPTIONS = {
    "--c": dict(required=True, help='coefficient: "p1", "p2", "pinf", "p3.5", "L"'),
    "--m": dict(required=True, help="first coefficient"),
    "--n": dict(required=True, help="second coefficient"),
    "--x": dict(required=True, help="CSV data matrix"),
    "--xp": dict(required=True, help="CSV of x with one appended column"),
    "--positive-only": dict(action="store_true",
                            help="neighbors require strictly positive distance"),
    "--rel-tol": dict(type=float, default=1e-9, help="relative tie tolerance"),
    "--abs-tol": dict(type=float, default=0.0, help="absolute tie tolerance"),
    "--conv": dict(choices=("grid", "upper"), default="grid", help="index sample space"),
    "--rows": dict(type=int, required=True, help="number of rows n"),
    "--seed": dict(type=int, default=0),
    "--random-samples": dict(type=int, default=200),
    "--random-cols": dict(type=int, default=2),
    "--grid-extent": dict(type=int, default=3),
    "--points": dict(type=int, required=True, help="number of points n"),
    "--length": dict(type=float, default=1.0, help="half-length L"),
    "--samples": dict(type=int, default=1_000_000),
    "--digits": dict(type=int, default=20, help="decimal places of delta (1..20)"),
    "--max-q": dict(type=int, default=10**9, help="largest denominator to emit"),
    "--format": dict(choices=("text", "json"), default="text"),
}
_ALIASES = {"--n": ("--n", "--l")}
_TIES = ("--rel-tol", "--abs-tol")
# The list path's bound.  A build of k columns costs n(n-1)/2 * (k +
# _PAIR_COST) pair-terms there, _PAIR_COST being a pair's overhead (the
# kernel call, its sort, the neighbor scan).  A job whose plan (``_lists``)
# costs more than _MAX_TERMS runs on arrays: there the list path's loops
# take longer than the numpy import they spare.  Both numbers are fitted to
# `near --c p2`, one build, on Gaussian n x k matrices timed as main()
# processes (median of 9 alternating runs per path; 2-vCPU VM, CPython
# 3.11, numpy 2.4).  Each k's largest admitted n, and a declined n near the
# break-even:
#
#      k   admitted n: cost   list / array ms   declined n: cost   list / array ms
#      1   316: 298 620       168 / 187         350: 366 450       226 / 205
#      4   258: 298 377       189 / 214         300: 403 650       213 / 227
#      8   215: 299 065       187 / 220         260: 437 710       228 / 219
#     16   169: 298 116       184 / 224         220: 505 890       227 / 219
#     32   127: 296 037       144 / 181         170: 531 505       176 / 172
#    128    67: 294 063       166 / 182          95: 593 845       235 / 204
#   2000    17: 272 680       197 / 233          20: 380 950       240 / 243
#  20000     5: 200 050       242 / 294           7: 420 105       328 / 298
#
# At c = 5 the break-even cost is about 330 000 at k = 1, about 480 000 at
# k = 16 .. 128, and about 350 000 again from k = 2000, where a pair's sort
# costs more per term; the bound sits under all of them.  The benchmark's
# 120 x 12 lattice near, distmat, corr, concord and rob-plus jobs (cost
# 121 380 .. 249 900; 114-160 against 203-227 ms) and 40 x 16 rob-minus
# (265 980; 125-149 against 175-208 ms) are admitted; its 300 x 16 jobs
# (near: 941 850; 324 against 208 ms) are not.  General p, `near --c p3.5`
# on the same shapes (its kernel takes libm's pow per term), in two
# readings of 9 alternating runs per path, is faster on lists at every
# admitted row, so it keeps p2's bound:
#
#      k   admitted n   list / array ms     declined n   list / array ms
#      1   316          135-185 / 180-219   350          144-206 / 169-225
#     16   169          125-128 / 181-184   220          171-240 / 190-212
#    128    67          139-205 / 198-248    95          254-285 / 222-273
#   2000    17          180-207 / 230-230    20          194-252 / 217-297
_PAIR_COST = 5
_MAX_TERMS = 300_000


def _list_p(spelling: str) -> float | None:
    """The p of a p-norm spelling the list path takes, one that
    ``errors.p_norm_name`` prints (p1, p3.5, p999999.5, pinf, ...), else
    None.  With "L" these are the list path's spellings: others, such as
    P3.5, p3.50, p2.0 and pinfinity, run on arrays."""
    try:
        p = float(spelling[1:]) if spelling.startswith("p") else math.nan
    except ValueError:
        return None
    return p if p >= 1 and p_norm_name(p) == spelling else None


class _Command(NamedTuple):
    """A subcommand: its help, its flags (keys of _OPTIONS; ``--format`` is
    added to all), ``payload(args)`` giving what ``_emit_json`` prints, and
    ``text(payload)`` giving the lines of the text output.  A payload is its
    row's one library call, on ``args`` holding library values (``_library_values``).
    It names library and io functions ``dc.<name>`` and ``dcio.<name>``, looked
    up in their home module at call time, so a tracer that rebinds one there
    sees the call, and a subcommand imports only the modules it calls."""

    help: str
    options: tuple[str, ...]
    payload: Callable[[argparse.Namespace], dict]
    text: Callable[[dict], Iterable[str]]


def _emit_json(payload) -> None:
    """Print the payload as one line of compact JSON with sorted keys.
    distmat's payload, a distance matrix, prints as its ``distance_matrix_dict``
    would, written a row at a time to the ``sys.stdout`` of the call."""
    if isinstance(payload, dict):
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        sys.stdout.writelines(dcio.distance_matrix_json(payload))


def _library_values(args, parsed: dict) -> None:
    """Replace each coefficient, data-matrix and ``--conv`` flag of ``args`` by
    its library value, and the tie tolerances by ``args.tie``, in flag order.
    A CSV whose rows ``parsed`` holds (by path) is not read again."""
    for flag in _COMMANDS[args.command].options:
        if flag in ("--c", "--m", "--n"):
            setattr(args, flag[2:], dc.parse_coefficient(getattr(args, flag[2:])))
        elif flag in ("--x", "--xp"):
            path = getattr(args, flag[2:])
            setattr(args, flag[2:], dcio._array(parsed.pop(path)) if path in parsed
                    else dcio.load_data_matrix(path))
        elif flag == "--conv":
            args.conv = dc.SampleSpace(args.conv)
        elif flag == "--rel-tol":  # --abs-tol follows it in _TIES
            args.tie = dc.TiePolicy(args.rel_tol, args.abs_tol)


def _explore_near(args) -> dict:
    budget = dc.SearchBudget(random_samples=args.random_samples,
                             random_cols=args.random_cols, grid_extent=args.grid_extent)
    totals = dc.achievable_near_totals(args.rows, args.c, budget, args.seed)
    return {"rows": args.rows, "totals": sorted(totals)}


def _mc_nn(args) -> dict:
    estimate = dc.uniform_interval_expected_nn(args.points, args.length, args.samples, args.seed)
    guess = dc.conjectured_expected_nn(args.points, args.length)
    return {**dcio.estimate_dict(estimate), "conjectured": guess}


def _delta_cf(args) -> dict:
    value = dc.delta_constant(args.digits)
    sequence = dc.continued_fraction_convergents(value, args.max_q)
    return {**dcio.convergents_dict(sequence), "delta": str(value), "digits": args.digits}


def _near_text(p) -> list[str]:
    rows = [f"row {i}: {' '.join(map(str, s)) or '-'}" for i, s in enumerate(p["sets"], 1)]
    return [*rows, f"total = {p['total']}"]


def _score_text(label):
    return lambda p: [f"{label} = {p['num']}/{p['den']} = {p['value']:.9g}"]


def _corr_text(p) -> list[str]:
    rho = "undefined" if p["rho"] is None else f"{p['rho']:.9g}"
    return [f"rho = {rho}", f"cov = {p['cov']:.9g}", f"var = {p['var_m']:.9g}, {p['var_n']:.9g}"]


def _adversarial_text(p) -> list[str]:
    column = " ".join(f"{v:.9g}" for v in p["column"])
    return [f"t = {p['t']:.9g}", f"column = {column}",
            f"achieved neighbor total = {p['achieved_near_total']}"]


def _mc_nn_text(p) -> list[str]:
    return [f"mean = {p['mean']:.9g} (stderr {p['standard_error']:.9g}, "
            f"{p['samples']} samples, seed {p['seed']})",
            f"exact L/(n+1) = {p['conjectured']:.9g}  (a theorem for every n)"]


def _delta_cf_text(p) -> list[str]:
    lines = [f"delta = {p['delta']}", *(f"  {c['p']}/{c['q']}" for c in p["convergents"])]
    if p["truncated"]:
        lines.append("  ... truncated: input precision exhausted")
    return lines


_COMMANDS = {
    "distmat": _Command(
        "distance matrix of a CSV data matrix", ("--c", "--x"),
        lambda a: dc.build(a.c, a.x), lambda d: dcio.distance_matrix_csv(d)),
    "near": _Command(
        "nearest-neighbor sets (1-based) and total", ("--c", "--x", "--positive-only", *_TIES),
        lambda a: dcio.neighbor_sets_dict(
            dc.nearest_sets(dc.build(a.c, a.x), a.tie, positive_only=a.positive_only)),
        _near_text),
    "rob-plus": _Command(
        "robustness against a one-column extension",
        ("--c", "--x", "--xp", "--positive-only", *_TIES),
        lambda a: dcio.rational_dict(
            dc.rob_plus(a.c, a.x, a.xp, a.tie, positive_only=a.positive_only)),
        _score_text("robustness")),
    "rob-minus": _Command(
        "leave-one-column-out robustness", ("--c", "--x", "--positive-only", *_TIES),
        lambda a: dcio.rational_dict(dc.rob_minus(a.c, a.x, a.tie, positive_only=a.positive_only)),
        _score_text("robustness")),
    "concord": _Command(
        "concordance of two coefficients", ("--m", "--n", "--x", *_TIES),
        lambda a: dcio.rational_dict(dc.concordance(a.m, a.n, a.x, a.tie)),
        _score_text("concordance")),
    "corr": _Command(
        "correlation of two distance matrices", ("--m", "--n", "--x", "--conv"),
        lambda a: dcio.correlation_dict(dc.correlation(a.m, a.n, a.x, a.conv)),
        _corr_text),
    "adversarial": _Command(
        "tie-breaking column augmentation (p-norm --c only)", ("--c", "--x", *_TIES),
        lambda a: dcio.adversarial_dict(dc.adversarial_augment(a.c, a.x, a.tie)),
        _adversarial_text),
    "explore-near": _Command(
        "observed neighbor totals over a searched family",
        ("--rows", "--c", "--seed", "--random-samples", "--random-cols", "--grid-extent"),
        _explore_near, lambda p: ["observed totals: " + " ".join(map(str, p["totals"]))]),
    "mc-nn": _Command(
        "expected nearest distance on [-L, L]",
        ("--points", "--length", "--samples", "--seed"), _mc_nn, _mc_nn_text),
    "delta-cf": _Command(
        "delta constant and certified convergents", ("--digits", "--max-q"),
        _delta_cf, _delta_cf_text),
}


def _verify(ops: str) -> int:
    """The golden checks computed by ``verification``'s ops class ``ops``, printed."""
    from . import verification

    return verification.report(getattr(verification, ops))


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own swallows a failed write
        (file or sys.stdout).write(self.format_help())


class _Parsers(dict):
    """Subcommand name -> its parser, built with its flags (keys of _OPTIONS)
    when the parse first looks it up: a process parses one subcommand, and
    adding every subcommand's flags took about 3 ms of each process."""

    def __getitem__(self, name):
        parser = super().__getitem__(name)
        if isinstance(parser, tuple):  # registered as (prog, flags), not yet built
            prog, flags = parser
            parser = self[name] = _Parser(prog=prog)
            for flag in flags:
                parser.add_argument(*_ALIASES.get(flag, (flag,)), **_OPTIONS[flag])
        return parser


class _Subcommands(argparse._SubParsersAction):
    """The subcommands, each registered by its name and help: a process
    parses one, and building all twelve parsers, not two, cost about 1 ms."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._name_parser_map = self.choices = _Parsers()

    def add_parser(self, name, help, flags=()):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = (f"{self._prog_prefix} {name}", flags)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="distchar",
        description="Distance matrices, nearest-neighbor robustness, concordance, "
        "and distance-matrix correlation under p-norm coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)
    for name, command in _COMMANDS.items():
        sub.add_parser(name, help=command.help, flags=(*command.options, "--format"))
    sub.add_parser("verify", help="run the built-in golden-example checks")
    return parser


def run(argv=None) -> int:
    """Parse arguments, compute the payload on the array path and print it;
    returns the exit status."""
    return _run(build_parser().parse_args(argv))


def _run(args, parsed=None) -> int:
    """The array path: ``args``' payload from the library, printed; the exit
    status.  ``parsed`` maps a CSV path to its rows, read already."""
    try:
        if args.command == "verify":
            return _verify("Arrays")
        _library_values(args, parsed or {})
        payload = _COMMANDS[args.command].payload(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, payload)
    return 0


def _emit(args, payload) -> None:
    """Print ``payload`` in ``args.format``."""
    if args.format == "json":
        _emit_json(payload)
    else:
        _print(_COMMANDS[args.command].text(payload))


def _print(lines: Iterable[str]) -> None:
    for line in lines:
        print(line)


def _list_payload(args, load):
    """The list path's payload of ``args``' job (``_lists.payload``);
    ``load(path)`` gives a CSV's rows.  Raises DomainError where the list
    path declines.  A coefficient spelling other than "L" and those of
    ``_list_p``, and a job whose one build of X costs more than
    ``_MAX_TERMS``, a lower bound of its plan, decline before ``_lists``
    loads; ``explore-near`` has no X, and ``_lists`` charges its plan."""
    spellings = [getattr(args, a) for a in ("c", "m", "n") if hasattr(args, a)]
    if not all(s == "L" or _list_p(s) for s in spellings):
        raise DomainError("the list path covers L and the p-norms as coefficient_name spells them")
    if hasattr(args, "x"):
        x = load(args.x)
        if len(x) * (len(x) - 1) // 2 * (len(x[0]) + _PAIR_COST) > _MAX_TERMS:
            raise DomainError("job above the list path's size")
    from . import _lists

    return _lists.payload(args, load)


def _lists_first(args) -> int:
    """The list path (``_list_payload``, no numpy) for ``args``' job, or the
    array path (``_run``) where the list path declines; the exit status.
    Each CSV is parsed once, and the array path takes the rows the list path
    read."""
    parsed: dict[str, list] = {}

    def load(path: str) -> list:
        if path not in parsed:
            parsed[path] = dcio._load_rows(path)
        return parsed[path]

    try:
        payload = _list_payload(args, load)
    except DomainError:
        return _run(args, parsed)
    if args.command != "distmat":
        _emit(args, payload)
    elif args.format == "json":  # distmat's rows are valid by construction: no check
        sys.stdout.writelines(dcio._json(payload, len(payload)))
    else:
        _print(dcio._csv(payload))
    return 0


def main() -> None:
    """The ``distchar`` process: the job (the list path first for a job that
    takes ``--x`` and for ``explore-near``, ``verify`` on lists, else the
    array path of ``run()``),
    then stdout flushed, then exit.

    A write to stdout that fails (a closed pipe, a full disk) exits 1 with
    one ``error: cannot write output`` line; stdout is pointed at the null
    device so that nothing more is reported at shutdown.  Once the work is
    done every object is frozen out of the collector (``gc.freeze()``), so
    the shutdown collections do not walk the heap the run built; the OS
    reclaims it at exit.
    """
    try:
        try:
            args = build_parser().parse_args()
            command = _COMMANDS.get(args.command)
            if command is None:  # verify, computed on lists
                status = _verify("Lists")
            else:
                listed = "--x" in command.options or args.command == "explore-near"
                status = (_lists_first if listed else _run)(args)
        finally:  # argparse's SystemExit (--help, usage errors) included
            sys.stdout.flush()
    except OSError as exc:  # _run() reports every other failure as a DomainError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        status = 1
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    sys.modules["distchar.cli"] = sys.modules[__name__]  # _lists reads the bound here
    main()

"""CSV ingestion of data matrices and JSON-friendly views of results.

The CSV dialect is deliberately small: one row per line, comma-separated
decimal values, lines starting with '#' ignored.  Parse errors name the line
and column.  All indices in external representations are 1-based.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import TYPE_CHECKING

from . import _EXPORTS
from .errors import DomainError

if TYPE_CHECKING:  # numpy and the result types load only where a caller needs them
    from collections.abc import Callable, Iterable, Iterator

    import numpy as np

    from .association import CorrelationResult
    from .asymptotics import ConvergentSequence, MonteCarloEstimate
    from .neighbors import NeighborSets
    from .robustness import AdversarialResult, RationalScore

__all__ = [*_EXPORTS["io"], "adversarial_dict", "convergents_dict", "correlation_dict",
           "distance_matrix_csv", "distance_matrix_dict", "distance_matrix_json",
           "estimate_dict", "neighbor_sets_dict", "rational_dict"]


def parse_data_matrix(text: str, name: str = "<input>") -> np.ndarray:
    """Parse CSV text into a float data matrix; errors name line and column."""
    return _array(_parse_rows(text, name))


def _array(rows: list[list[float]]) -> np.ndarray:
    import numpy as np

    return np.array(rows, dtype=float)


def _parse_rows(text: str, name: str) -> list[list[float]]:
    """The rows of CSV text as lists of finite floats, all of one length:
    the one row loop of every data matrix the CLI reads."""
    rows: list[list[float]] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        values = []
        for col, token in enumerate(line.split(","), start=1):
            try:
                value = float(token)
            except ValueError:
                raise DomainError(
                    f"{name}: line {lineno}, column {col}: not a number: {token.strip()!r}"
                ) from None
            if not math.isfinite(value):
                raise DomainError(
                    f"{name}: line {lineno}, column {col}: non-finite value {token.strip()!r}"
                )
            values.append(value)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DomainError(
                f"{name}: line {lineno}: expected {width} values, found {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise DomainError(f"{name}: no data rows")
    return rows


def load_data_matrix(path) -> np.ndarray:
    """Read a data matrix from a CSV file."""
    return parse_data_matrix(*_read(path))


def _load_rows(path) -> list[list[float]]:
    """``load_data_matrix(path)``'s rows, as lists of floats."""
    return _parse_rows(*_read(path))


def _read(path) -> tuple[str, str]:
    """The text of a CSV file and the name its parse errors give."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read {p}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(
            f"{p}: not UTF-8 text at byte offset {exc.start} ({exc.reason})") from None
    # a byte-order mark, as spreadsheet programs write; not "utf-8-sig", whose
    # error offsets would not count the mark's 3 bytes
    return text.removeprefix("\ufeff"), str(p)


def distance_matrix_csv(d) -> Iterator[str]:
    """The CSV lines of a distance matrix, one per row without a line end,
    each entry printed ``"%.9g"``: ``_csv`` of ``d``, checked at the call."""
    return _csv(_tails(d))


def _csv(tails: Iterable[list[float]]) -> Iterator[str]:
    return _rows(tails, "%.9g".__mod__)


def distance_matrix_dict(d) -> dict:
    arr = _floats(d)
    return {"order": arr.shape[0], "entries": arr.tolist()}


def distance_matrix_json(d) -> Iterator[str]:
    """The JSON text of ``distance_matrix_dict(d)``, one chunk per row:
    ``_json`` of ``d``, checked at the call with ``validate_distance_matrix``
    (float symmetry bit for bit included)."""
    return _json(_tails(d), len(d))


def _json(tails: Iterable[list[float]], n: int) -> Iterator[str]:
    """The JSON text of an n x n distance matrix given by ``_rows``' tails.

    ``"".join`` of the chunks equals ``json.dumps(distance_matrix_dict(d),
    sort_keys=True, separators=(",", ":")) + "\n"`` byte for byte: json
    writes a finite float with ``float.__repr__``, and so does this.  The
    chunks are the opening, each row, and the closing: n + 2 in all.
    """
    rows = (f"{',' if i else ''}[{row}]" for i, row in enumerate(_rows(tails, repr)))
    return itertools.chain(['{"entries":['], rows, [f'],"order":{n}}}\n'])


def _tails(d) -> Iterator[list[float]]:
    """Row i's entries i..n-1 of ``d``, as floats, for i = 0..n-1, once
    ``validate_distance_matrix`` accepts ``d`` (at the call)."""
    arr = _floats(d)
    return (arr[i, i:].tolist() for i in range(len(arr)))


def _rows(tails: Iterable[list[float]], fmt: Callable[[float], str]) -> Iterator[str]:
    """The rows of a symmetric matrix given by its tails (row i's entries
    i..n-1), each row's entries ``fmt``-ed and joined with ``,``: the one
    walk of a distance matrix for output, on arrays and on lists alike.

    Each unordered pair is formatted once: row i formats its tail, and takes
    entry (i, j) for j < i from the strings row j made.  Those strings wait
    in one list per earlier row, so at most about n**2/4 of them are held at
    once, and no list of all n**2 floats or of the whole text is built.
    """
    owed: list[list[str]] = []  # owed[j]: row j's strings still to come, next one last

    def row(tail: list[float]) -> str:
        upper = list(map(fmt, tail))
        line = ",".join([*map(list.pop, owed), *upper])
        owed.append(upper[:0:-1])
        return line

    return map(row, tails)


def _floats(d) -> np.ndarray:
    """``d`` as float64 once ``validate_distance_matrix`` accepts it."""
    from .coefficients import as_floats  # numpy loads only here
    from .distance import validate_distance_matrix

    return as_floats(validate_distance_matrix(d), "distance matrix")


def neighbor_sets_dict(sets: NeighborSets) -> dict:
    """1-based neighbor sets, each sorted ascending."""
    return {
        "sets": [sorted(j + 1 for j in s) for s in sets.sets],
        "total": sets.total,
    }


def rational_dict(score: RationalScore) -> dict:
    return {"num": score.numerator, "den": score.denominator, "value": score.value}


def correlation_dict(result: CorrelationResult) -> dict:
    return {
        "rho": result.rho,
        "cov": result.covariance,
        "var_m": result.variances[0],
        "var_n": result.variances[1],
        "convention": result.convention.value,
    }


def adversarial_dict(result: AdversarialResult) -> dict:
    augmented = result.augmented.tolist()
    return {
        "t": result.t,
        "spacing": list(result.spacing),
        "column": [row[-1] for row in augmented],
        "achieved_near_total": result.achieved_near_total,
        "augmented": augmented,
    }


def estimate_dict(estimate: MonteCarloEstimate) -> dict:
    return {
        "mean": estimate.mean,
        "standard_error": estimate.standard_error,
        "samples": estimate.samples,
        "seed": estimate.seed,
    }


def convergents_dict(sequence: ConvergentSequence) -> dict:
    return {
        "convergents": [{"p": c.p, "q": c.q} for c in sequence],
        "truncated": sequence.truncated,
    }

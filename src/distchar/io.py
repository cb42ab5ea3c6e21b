"""CSV ingestion of data matrices and JSON-friendly views of results.

The CSV dialect is deliberately small: one row per line, comma-separated
decimal values, lines starting with '#' ignored.  Parse errors name the line
and column.  All indices in external representations are 1-based.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING

from . import _EXPORTS
from .errors import DomainError

if TYPE_CHECKING:  # numpy and the result types load only where a caller needs them
    import numpy as np

    from .association import CorrelationResult
    from .asymptotics import ConvergentSequence, MonteCarloEstimate
    from .neighbors import NeighborSets
    from .robustness import AdversarialResult, RationalScore

__all__ = [*_EXPORTS["io"], "adversarial_dict", "convergents_dict", "correlation_dict",
           "distance_matrix_csv", "distance_matrix_dict", "estimate_dict",
           "neighbor_sets_dict", "rational_dict"]


def parse_data_matrix(text: str, name: str = "<input>") -> np.ndarray:
    """Parse CSV text into a float data matrix; errors name line and column."""
    import numpy as np

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
    return np.array(rows, dtype=float)


def load_data_matrix(path) -> np.ndarray:
    """Read a data matrix from a CSV file."""
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
    return parse_data_matrix(text.removeprefix("\ufeff"), name=str(p))


def distance_matrix_csv(d) -> str:
    """CSV text of a square distance matrix (rows of reals), 9 significant digits each."""
    row_format = ",".join(["%.9g"] * len(d))
    return "\n".join(row_format % tuple(row) for row in d)


def distance_matrix_dict(d: np.ndarray) -> dict:
    import numpy as np

    arr = np.asarray(d, dtype=float)
    return {"order": arr.shape[0], "entries": arr.tolist()}


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

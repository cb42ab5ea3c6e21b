"""Bundled example data matrices, shipped so the verification suite and the
demos are self-contained.  Access by short name ("ex4" .. "ex9")."""

from __future__ import annotations

from importlib import resources
from typing import TYPE_CHECKING

from ..errors import DomainError
from ..io import parse_data_matrix

if TYPE_CHECKING:  # numpy loads where an example is parsed
    import numpy as np

__all__ = ["example_names", "fixture_path", "load_example"]

_NAMES = ("ex4", "ex5", "ex6", "ex7", "ex8", "ex9")


def example_names() -> tuple[str, ...]:
    return _NAMES


def fixture_path(name: str):
    """Traversable path of a bundled CSV (usable with ``as_file``)."""
    if name not in _NAMES:
        raise DomainError(f"unknown example {name!r}; have {', '.join(_NAMES)}")
    return resources.files(__package__).joinpath(f"{name}.csv")


def load_example(name: str) -> np.ndarray:
    """Load a bundled example data matrix by name."""
    text = fixture_path(name).read_text()
    return parse_data_matrix(text, name=f"{name}.csv")

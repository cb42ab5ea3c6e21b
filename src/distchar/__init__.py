"""distchar: characteristics of distance matrices.

Builds distance matrices from data matrices under a family of coefficients
(the p-norms for p in [1, inf] and the squared-Euclidean pseudo-coefficient),
and from them nearest-neighbor sets with explicit tie handling, two
column-perturbation robustness scores, concordance, and distance-matrix
correlation.  A companion module covers expected nearest-neighbor distances
for a point process, the interval analogue with a Monte Carlo oracle, and
certified continued-fraction convergents of exp(-exp(-gamma)).

The public names load on first use (PEP 562), so ``import distchar`` costs
no numpy.  Each lookup reads the name from its home module and is not
cached here: code that rebinds ``distchar.<module>.<name>`` is seen through
``distchar.<name>`` too.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it provides; each listed module's __all__
# reads its row here and adds only the names the package does not export
_EXPORTS = {
    "association": ("CorrelationResult", "SampleSpace", "concordance", "correlation",
                    "expectation", "hadamard", "matrix_correlation"),
    "asymptotics": ("Convergent", "ConvergentSequence", "MonteCarloEstimate",
                    "conjectured_expected_nn", "continued_fraction_convergents",
                    "delta_constant", "expected_nn_distance", "nn_distance_density",
                    "scaled_volume", "uniform_interval_expected_nn", "volume_at_expected"),
    "coefficients": ("Coefficient", "PNorm", "SquaredEuclidean", "coefficient_name",
                     "evaluate", "is_true_norm", "parse_coefficient"),
    "distance": ("as_data_matrix", "augment_constant_columns", "build", "permute_rows",
                 "remove_column", "remove_row", "validate_distance_matrix"),
    "errors": ("DomainError",),
    "io": ("load_data_matrix", "parse_data_matrix"),
    "neighbors": ("NeighborSets", "SearchBudget", "TiePolicy", "achievable_near_totals",
                  "near_total", "nearest_sets"),
    "robustness": ("AdversarialResult", "RationalScore", "adversarial_augment", "rob_minus",
                   "rob_plus", "spacing_values"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from distchar import (
    DomainError,
    PNorm,
    SquaredEuclidean,
    build,
    nearest_sets,
    parse_data_matrix,
)
from distchar.fixtures import example_names, load_example
from distchar.io import (
    distance_matrix_csv,
    distance_matrix_dict,
    distance_matrix_json,
    load_data_matrix,
    neighbor_sets_dict,
    rational_dict,
)
from distchar.robustness import RationalScore


class TestParsing:
    def test_basic(self):
        got = parse_data_matrix("1,2\n3,4\n")
        assert np.array_equal(got, [[1.0, 2.0], [3.0, 4.0]])

    def test_comments_and_blank_lines_skipped(self):
        got = parse_data_matrix("# header\n\n1,2\n# middle\n3,4\n\n")
        assert got.shape == (2, 2)

    def test_scientific_notation_and_signs(self):
        got = parse_data_matrix("-1.5e2,+0.25\n")
        assert np.array_equal(got, [[-150.0, 0.25]])

    def test_error_names_line_and_column(self):
        with pytest.raises(DomainError, match=r"line 2, column 3"):
            parse_data_matrix("1,2,3\n4,5,x\n", name="bad.csv")

    def test_error_names_file(self):
        with pytest.raises(DomainError, match=r"bad\.csv"):
            parse_data_matrix("oops\n", name="bad.csv")

    def test_ragged_rows_rejected(self):
        with pytest.raises(DomainError, match=r"line 2: expected 3 values, found 2"):
            parse_data_matrix("1,2,3\n4,5\n")

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError, match=r"line 1, column 1"):
            parse_data_matrix("inf,2\n")

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError, match="no data rows"):
            parse_data_matrix("# nothing here\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,0\n1,1\n")
        assert load_data_matrix(path).shape == (2, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DomainError, match="cannot read"):
            load_data_matrix(tmp_path / "absent.csv")

    def test_non_utf8_file_names_file_and_byte_offset(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("1,2\n3,\u00e9\n".encode("latin-1"))
        with pytest.raises(DomainError, match=r"latin1\.csv: not UTF-8 text at byte offset 6 "):
            load_data_matrix(path)

    def test_byte_offset_counts_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + "1,2\n3,\u00e9\n".encode("latin-1"))
        with pytest.raises(DomainError, match=r"bom\.csv: not UTF-8 text at byte offset 9 "):
            load_data_matrix(path)


class TestFixtures:
    def test_all_examples_load(self):
        shapes = {
            "ex4": (4, 2),
            "ex5": (5, 2),
            "ex6": (3, 2),
            "ex7": (3, 2),
            "ex8": (3, 2),
            "ex9": (3, 2),
        }
        assert set(example_names()) == set(shapes)
        for name, shape in shapes.items():
            assert load_example(name).shape == shape

    def test_unknown_example(self):
        with pytest.raises(DomainError):
            load_example("ex99")


class TestSerialization:
    def test_distance_matrix_csv_uses_nine_significant_digits(self):
        d = build(PNorm(2), load_example("ex9"))
        text = "\n".join(distance_matrix_csv(d))
        assert "3.46410162" in text
        assert len(text.splitlines()) == 3

    def test_distance_matrix_csv_matches_per_value_format(self):
        # "%.9g" prints each entry exactly as f"{v:.9g}"; the 91 entries
        # above the diagonal of a symmetric 14 x 14 matrix hold the edge values
        values = [5e-324, 1e-323, 2.2250738585072014e-308, 1e-5, 0.1, 1 / 3,
                  123456789.5, 999999999.5, 1e16, 1.7976931348623157e308,
                  *np.logspace(-323, 308, 81)]
        d = np.zeros((14, 14))
        d[np.triu_indices(14, 1)] = values
        d += d.T
        want = "\n".join(",".join(f"{v:.9g}" for v in row) for row in d)
        assert "\n".join(distance_matrix_csv(d)) == want

    def test_distance_matrix_dict(self):
        payload = distance_matrix_dict(np.zeros((2, 2)))
        assert payload == {"order": 2, "entries": [[0.0, 0.0], [0.0, 0.0]]}

    def test_neighbor_sets_are_one_based(self):
        ns = nearest_sets(build(PNorm(1), [[2.0], [5.0], [1.0]]))
        payload = neighbor_sets_dict(ns)
        assert payload == {"sets": [[3], [1], [1]], "total": 3}

    def test_rational_dict(self):
        payload = rational_dict(RationalScore(2, 6))
        assert payload["num"] == 2 and payload["den"] == 6
        assert payload["value"] == pytest.approx(1 / 3)


def dumped(d) -> str:
    """The one-shot form that ``distance_matrix_json`` streams."""
    return json.dumps(distance_matrix_dict(d), sort_keys=True, separators=(",", ":")) + "\n"


@st.composite
def scaled_data(draw):
    """An n x k data matrix, 1 <= n <= 12: a {0..3} lattice (ties, and with
    hypothesis's default fill duplicate rows) or reals in [-10, 10], times
    a scale whose distances have subnormal, tiny, plain or huge reprs."""
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    elements = draw(st.sampled_from([st.integers(0, 3), st.floats(-10, 10)]))
    fill = st.nothing() if draw(st.booleans()) else None
    x = draw(arrays(np.float64, (n, k), elements=elements, fill=fill))
    return x * draw(st.sampled_from([1.0, 1e-300, 1e-160, 1e150]))


class TestDistanceMatrixJson:
    COEFFICIENTS = st.sampled_from(
        [PNorm(1), PNorm(2), PNorm(math.inf), SquaredEuclidean(), PNorm(3.5)])

    @given(x=scaled_data(), c=COEFFICIENTS)
    @example(x=np.array([[7.0]]), c=PNorm(2))
    @example(x=np.array([[0.0, 1.0], [3.0, 5.0]]), c=PNorm(1))
    @example(x=np.array([[1.0], [1.0], [1.0]]), c=SquaredEuclidean())
    @example(x=np.array([[1e-160], [3e-160]]), c=SquaredEuclidean())
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps(self, x, c):
        d = build(c, x)
        assert "".join(distance_matrix_json(d)) == dumped(d)
        text = "\n".join(",".join(f"{v:.9g}" for v in row) for row in d.tolist())
        assert "\n".join(distance_matrix_csv(d)) == text

    def test_subnormal_and_huge_entries(self):
        d = np.array([[0.0, 5e-324, 1.7976931348623157e308],
                      [5e-324, 0.0, 1e-320],
                      [1.7976931348623157e308, 1e-320, 0.0]])
        assert "".join(distance_matrix_json(d)) == dumped(d)
        assert "5e-324" in dumped(d)

    @pytest.mark.parametrize("d", [
        [[0.0, 1.0], [2.0, 0.0]],
        [[0.0, 0.0], [-0.0, 0.0]],  # equal, but its two reprs differ
        [[0.0, math.inf], [math.inf, 0.0]],
        [[0.0, math.nan], [math.nan, 0.0]],
        [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]],
        [0.0, 1.0],
    ], ids=["asymmetric", "signed-zero", "inf", "nan", "not-square", "vector"])
    def test_rejected_before_the_first_chunk(self, d):
        for render in (distance_matrix_json, distance_matrix_csv):
            with pytest.raises(DomainError, match="distance matrix must be"):
                render(d)

    @pytest.mark.parametrize("d", [
        [[0.0, -1.0], [-1.0, 0.0]],
        [[1.0, 2.0], [2.0, 0.0]],
        [[0.0, 1.0], [2.0, 0.0]],
        [[0.0, 1.0 + 1.0j], [1.0 + 1.0j, 0.0]],
    ], ids=["negative", "nonzero-diagonal", "asymmetric", "complex"])
    def test_refuses_what_nearest_sets_refuses(self, d):
        with pytest.raises(DomainError) as refused:
            nearest_sets(d)
        for render in (distance_matrix_json, distance_matrix_csv, distance_matrix_dict):
            with pytest.raises(DomainError) as rendered:
                render(d)
            assert str(rendered.value) == str(refused.value)

    @pytest.mark.parametrize("entry", [10**400, Fraction(1, 10**400)], ids=["huge", "tiny"])
    def test_exact_entry_outside_the_float_range(self, entry):
        # float() of a huge entry overflows; of a tiny nonzero one it gives 0.0
        d = np.array([[0, entry], [entry, 0]], dtype=object)
        for render in (distance_matrix_json, distance_matrix_csv, distance_matrix_dict):
            with pytest.raises(DomainError, match="exact entry outside the float range"):
                render(d)
        zero = "".join(distance_matrix_json(d * 0))  # exact zeros still print
        assert zero == '{"entries":[[0.0,0.0],[0.0,0.0]],"order":2}\n'

import numpy as np
import pytest

from maxdiv import Distribution, FiniteMetric, InputError, ParseError
from maxdiv.io import (
    parse_abundances,
    parse_community,
    parse_distances,
    parse_graph,
    parse_matrix,
)

from helpers import THREE_SPECIES, random_planar_metric


class TestParseMatrix:
    def test_three_species_csv(self):
        text = "1,0.4,0.4\n0.4,1,0.9\n0.4,0.9,1\n"
        z = parse_matrix(text)
        assert z.n == 3
        assert z.symmetric
        assert np.array_equal(z.values, THREE_SPECIES)

    def test_blank_lines_ignored(self):
        z = parse_matrix("\n1,0\n\n0,1\n\n")
        assert z.n == 2

    def test_non_number_located(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("1,0\n0,x\n")
        assert err.value.line == 2
        assert err.value.column == 2

    def test_ragged_row_located(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("1,0\n0,1,5\n")
        assert err.value.line == 2

    def test_not_square(self):
        with pytest.raises(ParseError):
            parse_matrix("1,0\n")

    def test_asymmetry_located_when_symmetry_required(self):
        # asymmetry is recorded on the matrix, entries kept as parsed; the
        # routines that need symmetry refuse the matrix themselves
        z = parse_matrix("1,0.5\n0.4,1\n")
        assert not z.symmetric
        assert z.values.tolist() == [[1.0, 0.5], [0.4, 1.0]]
        assert parse_matrix("1,0.5\n0.5000000000000001,1\n").symmetric

    def test_negative_entry_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("1,-0.2\n-0.2,1\n")


class TestParseGraph:
    def test_three_path(self):
        n, edges = parse_graph("3\n1 2\n2 3\n")
        assert n == 3
        assert edges == [(0, 1), (1, 2)]

    def test_commas_allowed(self):
        n, edges = parse_graph("3\n1,2\n")
        assert edges == [(0, 1)]

    def test_errors_located(self):
        with pytest.raises(ParseError) as err:
            parse_graph("3\n1 4\n")
        assert err.value.line == 2
        with pytest.raises(ParseError):
            parse_graph("3\n2 2\n")
        with pytest.raises(ParseError):
            parse_graph("x\n")
        with pytest.raises(ParseError):
            parse_graph("")


class TestParseAbundances:
    def test_row_and_column_forms(self):
        p = parse_abundances("0.5,0.25,0.25\n")
        assert np.array_equal(p.probs, [0.5, 0.25, 0.25])
        p = parse_abundances("0.5\n0.25\n0.25\n")
        assert np.array_equal(p.probs, [0.5, 0.25, 0.25])

    def test_tiny_values_rounded_to_zero(self):
        p = parse_abundances(f"{1e-16},1.0\n")
        assert p.probs[0] == 0.0
        assert list(p.support) == [1]

    def test_normalize(self):
        p = parse_abundances("2,1,1\n", normalize=True)
        assert np.array_equal(p.probs, [0.5, 0.25, 0.25])
        with pytest.raises(ParseError):
            parse_abundances("2,1,1\n")  # does not sum to one

    def test_community_dimension_check(self):
        with pytest.raises(ParseError):
            parse_community("1,0\n0,1\n", "1,0,0\n")


class TestParseMetric:
    def test_valid(self):
        m = FiniteMetric(parse_distances("0,1\n1,0\n"))
        assert m.n == 2

    def test_triangle_violation(self):
        with pytest.raises(InputError, match="triangle inequality fails"):
            FiniteMetric(parse_distances("0,1,3\n1,0,1\n3,1,0\n"))


def _csv(rows):
    # full-precision floats, so writing then parsing round-trips exactly
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


class TestRoundTrips:
    def test_matrix(self):
        rng = np.random.default_rng(173)
        a = rng.uniform(0.0, 1.0, size=(4, 4))
        from maxdiv import SimilarityMatrix

        z = SimilarityMatrix((a + a.T) / 2 + np.eye(4))
        back = parse_matrix(_csv(z.values))
        assert np.array_equal(back.values, z.values)
        assert back.symmetric == z.symmetric

    def test_graph(self):
        n, edges = parse_graph("5\n1 2\n3 5\n2 4\n")
        n2, edges2 = parse_graph(f"{n}\n" + "".join(f"{i + 1} {j + 1}\n" for i, j in edges))
        assert (n2, sorted(edges2)) == (n, sorted(edges))

    def test_abundances(self):
        p = Distribution([1 / 3, 1 / 3, 1 / 3])
        back = parse_abundances(_csv([p.probs]))
        assert np.array_equal(back.probs, p.probs)

    def test_metric(self):
        m = random_planar_metric(np.random.default_rng(7), 5)
        back = FiniteMetric(parse_distances(_csv(m.dist)))
        assert np.array_equal(back.dist, m.dist)


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_matrix("\n\n"),
        lambda: parse_graph("0\n"),
        lambda: parse_graph("3\n1 2 3\n"),
        lambda: parse_graph("3\n1 x\n"),
        lambda: parse_abundances(" \n"),
        lambda: parse_abundances("0.5,0.25\n0.25\n"),
        lambda: parse_abundances("0\n0\n", normalize=True),
    ],
    ids=["empty-matrix", "no-vertex", "three-field-edge", "non-integer-vertex",
         "empty-abundances", "two-values-on-a-line", "zero-sum-normalized"],
)
def test_invalid_input_is_refused(call):
    with pytest.raises(ParseError):
        call()

"""Exact sparse elimination: rank and nullspace."""

import random
from fractions import Fraction
from functools import partial
from math import gcd, lcm

import pytest

from constalg import linalg, normal_words
from constalg.normal_words import kernel_dim_oracle
from helpers import (
    RATIONAL_LEADS,
    densify,
    instance_with_degrees,
    reference_echelon,
    reference_nullspace,
)


def dense_to_rows(matrix):
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def integer_row(row):
    """The row of Fractions times the lcm of its denominators; same kernel."""
    scale = lcm(*[v.denominator for v in row.values()])
    return {c: int(v * scale) for c, v in row.items()}


def test_rank_known_cases():
    assert linalg.rank(dense_to_rows([[1, 2], [2, 4]]), 2) == 1
    assert linalg.rank(dense_to_rows([[1, 0], [0, 1]]), 2) == 2
    assert linalg.rank([], 3) == 0
    assert linalg.rank(dense_to_rows([[0, 0, 0]]), 3) == 0


def test_nullspace_known_case():
    # x + y + z = 0, y - z = 0  ->  kernel spanned by (-2, 1, 1)
    rows = dense_to_rows([[1, 1, 1], [0, 1, -1]])
    (vec,) = densify(linalg.nullspace(rows, 3), 3)
    assert vec[1] == vec[2]
    assert vec[0] == -2 * vec[1]


@pytest.mark.parametrize("solve", [linalg.rank, linalg.nullspace])
def test_a_column_outside_the_matrix_is_refused(solve):
    for rows, col in (([{0: 1, 5: 1}], 5), ([{-1: 1}], -1)):
        with pytest.raises(ValueError, match=f"column {col} is outside 0..1"):
            solve(rows, 2)
    # a zero entry is no entry
    assert solve([{0: 1, 5: 0}], 2) == (1 if solve is linalg.rank else [{1: 1}])


def test_nullspace_of_zero_matrix_is_full():
    vectors = densify(linalg.nullspace([], 4), 4)
    assert len(vectors) == 4
    for i, vec in enumerate(vectors):
        assert vec[i] == 1
        assert sum(1 for v in vec if v) == 1


def test_nullspace_properties_randomized():
    rng = random.Random(20260809)
    for _ in range(300):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = []
        for _ in range(nrows):
            row = {
                c: Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
                for c in range(ncols)
                if rng.random() < 0.55
            }
            rows.append(integer_row({c: v for c, v in row.items() if v}))
        vectors = densify(linalg.nullspace(rows, ncols), ncols)
        assert linalg.rank(rows, ncols) + len(vectors) == ncols
        for vec in vectors:
            for row in rows:
                assert sum(v * vec[c] for c, v in row.items()) == 0
        # returned vectors are linearly independent
        assert linalg.rank(
            [{c: v for c, v in enumerate(vec) if v} for vec in vectors], ncols
        ) == len(vectors)


def test_rank_matches_transpose_rank():
    rng = random.Random(99)
    for _ in range(100):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        dense = [
            [rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        transpose = [[dense[r][c] for r in range(nrows)] for c in range(ncols)]
        assert linalg.rank(dense_to_rows(dense), ncols) == linalg.rank(
            dense_to_rows(transpose), nrows
        )


def test_deterministic_output():
    rng = random.Random(7)
    dense = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(5)]
    first = linalg.nullspace(dense_to_rows(dense), 6)
    second = linalg.nullspace(dense_to_rows(dense), 6)
    assert first == second


def test_fraction_rows_raise_type_error():
    for row in ({0: Fraction(1, 2)}, {0: 2, 1: Fraction(3, 4)}, {1: Fraction(4)}):
        with pytest.raises(TypeError):
            linalg.rank([row], 2)
        with pytest.raises(TypeError):
            linalg.nullspace([{0: 1}, row], 2)


def primitive(vector):
    """The dense Fraction vector scaled by a positive rational to coprime ints."""
    scale = lcm(*[v.denominator for v in vector])
    ints = [int(v * scale) for v in vector]
    content = gcd(*ints)
    return [v // content for v in ints]


def assert_same_as_reference(rows, ncols):
    vectors = linalg.nullspace(rows, ncols)
    reference = reference_nullspace(rows, ncols)
    # A reference vector is 1 at its free column and zero after it.
    free_cols = [max(c for c, v in enumerate(vec) if v) for vec in reference]
    assert densify(vectors, ncols) == [primitive(vec) for vec in reference]
    for vec, fc in zip(vectors, free_cols):
        assert all(type(v) is int for v in vec.values())
        assert gcd(*vec.values()) == 1
        assert vec[fc] > 0
        assert not any(vec.get(other) for other in free_cols if other != fc)
    # sparse: no stored zeros, columns ascending
    assert all(all(vec.values()) and list(vec) == sorted(vec) for vec in vectors)
    return vectors


def random_rational_rows(rng, nrows, ncols, density):
    rows = []
    for _ in range(nrows):
        row = {
            c: Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 7]))
            for c in range(ncols)
            if rng.random() < density
        }
        rows.append(integer_row({c: v for c, v in row.items() if v}))
    return rows


def random_matrices():
    """300 seeded (rows, ncols) of up to 9 x 9, of densities 0.2-0.8."""
    rng = random.Random(4401)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
        yield random_rational_rows(rng, nrows, ncols, rng.choice([0.2, 0.5, 0.8])), ncols


def divisor_heavy_matrices():
    """300 seeded (rows, ncols) whose entries are a few divisors of 12.

    They make g = gcd(pivot, entry) often equal to the pivot, so both
    branches of the update run.
    """
    rng = random.Random(3530)
    values = [1, -1, 2, -2, 3, 4, -4, 6, -6, 12]
    for _ in range(300):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice([0.3, 0.6, 0.9])
        rows = [
            {c: rng.choice(values) for c in range(ncols) if rng.random() < density}
            for _ in range(nrows)
        ]
        yield rows, ncols


DENSE_DELTA_SLICES = [(2, 5), (3, 4), (4, 3)]


def dense_delta_matrices(d, max_degree):
    """(rows, ncols) of kernel_dim_oracle's matrices for degrees 0..max_degree.

    Two instances with dense f_i of degrees 1-3 and rational leads.
    """
    rng = random.Random(3520 + d)
    for _ in range(2):
        degrees = [rng.randint(1, 3) for _ in range(d)]
        inst = instance_with_degrees(rng, degrees, dense=True, leads=RATIONAL_LEADS)
        for degree in range(max_degree + 1):
            cols, rows = normal_words._delta_matrix(inst, degree)
            yield rows, len(cols)


def test_nullspace_matches_reference_on_random_matrices():
    for rows, ncols in random_matrices():
        assert_same_as_reference(rows, ncols)


@pytest.mark.parametrize(
    "matrices",
    [random_matrices, divisor_heavy_matrices]
    + [partial(dense_delta_matrices, d, max_degree) for d, max_degree in DENSE_DELTA_SLICES],
    ids=["random", "divisor-heavy"] + [f"delta-d{d}-D{D}" for d, D in DENSE_DELTA_SLICES],
)
def test_echelon_matches_eager_content_division(matrices):
    # `_echelon` divides a row by its content only when it becomes a pivot
    # row; every active row is a positive multiple of the eagerly divided
    # one, so the pivot columns and the (primitive) pivot rows are the same.
    for rows, ncols in matrices():
        assert linalg._echelon(rows, ncols) == reference_echelon(rows, ncols)


def test_pivot_is_the_shortest_holder_then_the_lowest_id():
    # Column 0 is held by rows 0 (the longest), 1, 2 and 3; rows 2 and 3
    # tie on length 2, shorter than row 1, so row 2 is the pivot.
    rows = [{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 2: 1, 3: 1}, {0: 2, 3: 1}, {0: 3, 1: 1}]
    pivots = linalg._echelon(rows, 4)
    assert pivots[0] == (0, {0: 2, 3: 1})
    assert reference_echelon(rows, 4) == pivots


def test_echelon_pivot_rows_are_primitive():
    # Every row is divided by its content when it becomes a pivot row, so no
    # pivot row carries a common integer factor.
    rng = random.Random(4405)
    for _ in range(200):
        ncols = rng.randint(2, 9)
        rows = random_rational_rows(rng, rng.randint(2, 9), ncols, 0.7)
        for _, row in linalg._echelon(rows, ncols):
            assert gcd(*row.values()) == 1


def test_nullspace_matches_reference_on_block_diagonal_matrices():
    # Short, wide blocks: most columns are free, and with shuffled columns
    # free and pivot columns interleave.
    rng = random.Random(4402)
    for shuffle in (False, True):
        for _ in range(20):
            rows, offset = [], 0
            for _ in range(rng.randint(2, 6)):
                height, width = rng.randint(1, 2), rng.randint(4, 8)
                for row in random_rational_rows(rng, height, width, 0.6):
                    rows.append({offset + c: v for c, v in row.items()})
                offset += width
            if shuffle:
                perm = list(range(offset))
                rng.shuffle(perm)
                rows = [{perm[c]: v for c, v in row.items()} for row in rows]
            vectors = assert_same_as_reference(rows, offset)
            assert len(vectors) >= offset // 2


def test_nullspace_matches_reference_on_delta_matrix(monkeypatch):
    # The matrix kernel_dim_oracle hands to nullspace on a d = 3 slice.
    captured = []
    nullspace = linalg.nullspace

    def spy(rows, ncols):
        captured.append((rows, ncols))
        return nullspace(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", spy)
    inst = instance_with_degrees(random.Random(4403), (1, 3, 2))
    kernel_dim_oracle(inst, 5)
    ((rows, ncols),) = captured
    vectors = assert_same_as_reference(rows, ncols)
    assert ncols == 462 and len(vectors) > 50


@pytest.mark.parametrize("d, max_degree", DENSE_DELTA_SLICES)
def test_nullspace_and_rank_match_reference_on_dense_delta_matrices(d, max_degree):
    # The matrices kernel_dim_oracle eliminates, on dense f_i of degrees 1-3
    # with rational leads.
    for rows, ncols in dense_delta_matrices(d, max_degree):
        vectors = assert_same_as_reference(rows, ncols)
        assert linalg.rank(rows, ncols) == ncols - len(vectors)


def test_update_with_and_without_a_pivot_that_divides_the_entry():
    # Column 0: pivot 2 (the sparser row), entries 4 (2 divides it: the row
    # is not rescaled) and 3 (it is: 2*row - 3*pivot_row).  Column 1: pivot
    # -1, entry -1, so the row is rescaled by -1; then divided by its content 9.
    rows = [{0: 4, 1: 1, 2: 1}, {0: 2, 1: 1}, {0: 3, 1: 1, 2: 5}]
    pivots = linalg._echelon(rows, 3)
    assert pivots == [(0, {0: 2, 1: 1}), (1, {1: -1, 2: 1}), (2, {2: -1})]
    assert linalg.rank(rows, 3) == 3 and linalg.nullspace(rows, 3) == []
    rows = [{0: 4, 1: 2, 2: 6}, {0: 2, 1: 1}, {0: 6, 1: 3, 2: 3}]
    assert linalg.nullspace(rows, 3) == [{0: -1, 1: 2}]


def test_nullspace_matches_reference_when_pivots_often_divide_entries():
    for rows, ncols in divisor_heavy_matrices():
        vectors = assert_same_as_reference(rows, ncols)
        assert linalg.rank(rows, ncols) == ncols - len(vectors)

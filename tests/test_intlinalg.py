import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import suite_quivers
from echelon_oracle import greedy_basis, kernel_basis_reference, row_hnf_reference
from mckay_moduli import build_group, build_quiver, incidence_matrices
from mckay_moduli.intlinalg import (
    ext_gcd,
    independent_rows,
    int_rank,
    kernel_basis,
    mat_vec,
    row_hnf,
)


def lattice_contains(basis_rows, v) -> bool:
    """Test membership of integer vector v in the lattice spanned by rows."""
    h = row_hnf(basis_rows)
    work = list(v)
    for row in h:
        c = next(i for i, x in enumerate(row) if x)
        q, rem = divmod(work[c], row[c])
        if rem:
            return False
        if q:
            work = [work[k] - q * row[k] for k in range(len(work))]
    return not any(work)


def test_ext_gcd_small_cases():
    g0, x0, y0 = ext_gcd(0, 0)
    assert g0 == 0 and 0 * x0 + 0 * y0 == 0
    for a, b in [(4, 6), (-4, 6), (7, 0), (0, -5), (12, 18), (35, 15)]:
        g, x, y = ext_gcd(a, b)
        assert g == x * a + y * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_row_hnf_known_matrix():
    rows = [(2, 4, 4), (-6, 6, 12), (10, 4, 16)]
    h = row_hnf(rows)
    for row in h:
        lead = next(x for x in row if x)
        assert lead > 0
    # the HNF spans the same lattice: each original row reduces to zero
    for row in rows:
        assert lattice_contains(h, row)


def test_row_hnf_is_lattice_invariant():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        rows = [tuple(rng.randrange(-5, 6) for _ in range(n)) for _ in range(m)]
        h = row_hnf(rows)
        # unimodular row operations leave the HNF unchanged
        shuffled = list(rows)
        rng.shuffle(shuffled)
        if len(shuffled) >= 2:
            a, b = shuffled[0], shuffled[1]
            shuffled[0] = tuple(x + 3 * y for x, y in zip(a, b))
        assert row_hnf(shuffled) == h
        if rows:
            negated = [tuple(-x for x in rows[0])] + list(rows[1:])
            assert row_hnf(negated) == h


def test_kernel_basis_annihilates_and_spans():
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 6)
        rows = [tuple(rng.randrange(-4, 5) for _ in range(n)) for _ in range(m)]
        ker = kernel_basis(rows)
        for k in ker:
            assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in rows)
        assert len(ker) == n - int_rank(rows)
        assert int_rank(list(ker)) == len(ker)


def test_kernel_basis_is_saturated():
    # the kernel lattice contains every integer kernel vector, not just a
    # finite-index sublattice: check small multiples of random combinations
    rng = random.Random(3)
    rows = [(2, 4, 6, 0), (0, 2, 2, 2)]
    ker = kernel_basis(rows)
    for _ in range(50):
        v = tuple(rng.randrange(-9, 10) for _ in range(4))
        if all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows):
            assert lattice_contains(row_hnf(list(ker)), v)


def test_lattice_contains():
    basis = row_hnf([(2, 0), (0, 3)])
    assert lattice_contains(basis, (4, 3))
    assert lattice_contains(basis, (0, 0))
    assert not lattice_contains(basis, (1, 0))
    assert not lattice_contains(basis, (2, 2))


def test_int_rank():
    assert int_rank([]) == 0
    assert int_rank([(0, 0)]) == 0
    assert int_rank([(1, 2), (2, 4)]) == 1
    assert int_rank([(1, 0), (0, 1)]) == 2


def test_mat_vec():
    assert list(mat_vec(((1, 2), (3, 4)), (5, 6))) == [17, 39]


def _matrices(max_rows, max_cols):
    """Integer matrices as row tuples, with zero rows and columns likely."""
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    return st.integers(0, max_cols).flatmap(
        lambda n: st.lists(st.tuples(*[entry] * n), max_size=max_rows)
    )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_matrices(6, 7))
def test_echelon_pass_matches_reference(rows):
    assert row_hnf(rows) == row_hnf_reference(rows)
    assert int_rank(rows) == len(row_hnf_reference(rows))
    # The kernel is the reference's transform rows, not their Hermite form.
    assert kernel_basis(rows) == kernel_basis_reference(rows)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=4),
            st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=8),
        )
    )
)
def test_independent_rows_match_greedy_reference(case):
    base, rows = case
    past_base = [i - len(base) for i in independent_rows([*base, *rows]) if i >= len(base)]
    assert past_base == greedy_basis(rows, base=base, limit=None)


def test_echelon_edge_cases_match_reference():
    for rows in ([], [()], [(), ()], [(0, 0)], [(0, 0), (0, 0)], [(0, 3), (0, 6)]):
        assert row_hnf(rows) == row_hnf_reference(rows)
        assert kernel_basis(rows) == kernel_basis_reference(rows)
    assert independent_rows([]) == greedy_basis([], limit=None) == []
    assert independent_rows([(0, 0), (0, 0)]) == greedy_basis([(0, 0), (0, 0)], limit=None) == []
    past_base = [i - 1 for i in independent_rows([(1, 1), (1, 0), (0, 1)]) if i >= 1]
    assert past_base == greedy_basis([(1, 0), (0, 1)], base=[(1, 1)], limit=None)


def test_kernel_basis_is_not_the_hermite_form_of_the_kernel():
    # A full Hermite pass over [rows^T | I] would also reduce the identity
    # block; the kernel must keep the transform rows as recorded.
    rows = [(2, 3, 5)]
    assert kernel_basis(rows) == kernel_basis_reference(rows) == [(-3, 2, 0), (5, -5, 1)]
    assert row_hnf(kernel_basis(rows)) != tuple(kernel_basis(rows))


QUIVERS = dict(suite_quivers())
QUIVERS.update(
    (f"1/{r}({w[0]},{w[1]},{w[2]})", build_quiver(build_group([r], [w])))
    for r, w in ((7, [1, 2, 4]), (13, [1, 3, 9]))
)


@pytest.mark.parametrize("spec", sorted(QUIVERS))
def test_quiver_incidence_elimination_matches_reference(spec):
    quiver = QUIVERS[spec]
    inc = incidence_matrices(quiver)
    for mat in (inc.b, inc.c):
        assert kernel_basis(mat) == kernel_basis_reference(mat)
        assert row_hnf(mat) == row_hnf_reference(mat)
        assert row_hnf(kernel_basis(mat)) == row_hnf_reference(kernel_basis_reference(mat))

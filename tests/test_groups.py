import random
from fractions import Fraction

import pytest

import golden
from conftest import arrow_index, binomial_pairs
from mckay_moduli import (
    InputError,
    build_group,
    build_quiver,
    incidence_matrices,
    kernel_generators_cij,
    theta_decompose,
)
from mckay_moduli.groups import AbelianGroupData
from mckay_moduli.intlinalg import kernel_basis, mat_vec, row_hnf


def quiver_7_12():
    return build_quiver(build_group([7], [[1, 2]]))


def test_build_group_basic():
    g = build_group([7], [[1, 2]])
    assert len(g.characters()) == 7
    assert g.n == 2
    chars = g.characters()
    assert chars[0] == g.trivial
    assert list(chars) == [(j,) for j in range(7)]


def test_build_group_reduces_weights():
    g = build_group([7], [[8, -5]])
    assert g.weights == ((1, 2),)


def test_build_group_klein():
    g = build_group([2, 2], [[1, 0], [0, 1]])
    assert len(g.characters()) == 4
    chars = g.characters()
    assert list(chars) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_build_group_trivial():
    g = build_group([1], [[0, 0]])
    assert len(g.characters()) == 1
    assert g.n == 2


def test_build_group_rejects_bad_shapes():
    with pytest.raises(InputError, match="^orders must be positive integers$"):
        build_group([], [])
    with pytest.raises(InputError, match="^expected 1 weight rows, got 0$"):
        build_group([2], [])
    with pytest.raises(InputError, match="^expected 2 weight rows, got 1$"):
        build_group([2, 2], [[1, 0]])
    with pytest.raises(InputError, match="^orders must be positive integers$"):
        build_group([0], [[1]])
    with pytest.raises(InputError, match="^weight rows must be nonempty and of equal length$"):
        build_group([2], [[]])


def test_build_group_rejects_non_generating_weights():
    message = "^weight characters do not generate the character group$"
    with pytest.raises(InputError, match=message):
        build_group([4], [[2]])
    with pytest.raises(InputError, match=message):
        build_group([2, 2], [[1], [1]])


def test_build_quiver_rejects_a_group_that_does_not_generate():
    # a hand-built group skips build_group's check; from 0 the weight 2
    # reaches only 0 and 2 of Z/4
    with pytest.raises(InputError, match="^quiver of characters is not strongly connected$"):
        build_quiver(AbelianGroupData((4,), ((2, 2),)))


def test_group_operations():
    g = build_group([2, 3], [[1, 0], [0, 1]])
    a = (1, 2)
    b = (1, 1)
    assert g.mul(a, b) == (0, 0)
    assert g.deg((2, 3)) == (0, 0)
    assert g.deg((1, 2)) == (1, 2)


@pytest.mark.parametrize(
    "orders,weights",
    [([7], [[1, 2, 4]]), ([11], [[1, 2, 8]]), ([5], [[1, 3]]), ([2, 2], [[1, 0], [0, 1]])],
)
def test_deg_matches_product_of_generator_powers(orders, weights):
    g = build_group(orders, weights)
    rng = random.Random(3)
    for _ in range(200):
        m = tuple(rng.randint(-30, 30) for _ in range(g.n))
        expected = g.trivial
        for i, e in enumerate(m, start=1):
            power = tuple(x * e % order for x, order in zip(g.generator(i), g.orders))
            expected = g.mul(expected, power)
        assert g.deg(m) == expected
    with pytest.raises(InputError, match=f"^exponent vector has length {g.n + 1}, expected {g.n}$"):
        g.deg((1,) * (g.n + 1))


def test_quiver_structure_7_12():
    q = quiver_7_12()
    assert q.r == 7
    assert q.n == 2
    assert q.num_arrows == 14
    for k, a in enumerate(q.arrows):
        assert arrow_index(q, a.head, a.label) == k
        head = q.vertices[a.head]
        tail = q.vertices[a.tail]
        gen = q.group.generator(a.label)
        assert q.group.mul(head, gen) == tail


def test_quiver_trivial_group_has_loops():
    q = build_quiver(build_group([1], [[0, 0]]))
    assert q.r == 1
    assert q.num_arrows == 2
    assert all(a.head == 0 and a.tail == 0 for a in q.arrows)


def test_incidence_matrix_golden():
    q = quiver_7_12()
    inc = incidence_matrices(q)
    assert inc.c == golden.C_MATRIX_7_12
    assert inc.b == golden.C_MATRIX_7_12[:7]
    assert inc.d == golden.C_MATRIX_7_12[7:]


def test_incidence_column_structure():
    # every column has one +1 and one -1 in the vertex block (or zero for a
    # loop) and a single unit in the label block
    q = build_quiver(build_group([2, 2], [[1, 0], [0, 1]]))
    inc = incidence_matrices(q)
    for k, a in enumerate(q.arrows):
        col = [inc.b[i][k] for i in range(q.r)]
        assert col[a.head] == (1 if a.head != a.tail else 0)
        assert sum(x for x in col if x > 0) in (0, 1)
        assert sum(col) == 0
        dcol = [inc.d[i][k] for i in range(q.n)]
        assert dcol == [1 if i == a.label - 1 else 0 for i in range(q.n)]


def test_walk_vector_golden():
    q = quiver_7_12()
    v = [0] * q.num_arrows
    v[arrow_index(q, 0, 1)] += 1
    v[arrow_index(q, 6, 1)] += 1
    v[arrow_index(q, 6, 2)] -= 1
    v[arrow_index(q, 1, 1)] -= 1
    assert tuple(v) == golden.WALK_VECTOR_7_12
    inc = incidence_matrices(q)
    assert tuple(mat_vec(inc.d, v)) == golden.WALK_TYPE_7_12


def test_kernel_generators_count_and_membership():
    q = quiver_7_12()
    gens = kernel_generators_cij(q)
    assert len(gens) == 7
    inc = incidence_matrices(q)
    for u in gens:
        assert all(x == 0 for x in mat_vec(inc.c, u))


def test_kernel_generator_explicit():
    q = quiver_7_12()
    gens = kernel_generators_cij(q)
    assert gens[0] == (1, -1, 0, 1, -1) + (0,) * 9


def test_kernel_generators_match_printed_binomials():
    q = quiver_7_12()
    gens = kernel_generators_cij(q)

    def monomial(exps):
        return frozenset(
            ((k % q.n + 1, k // q.n), e) for k, e in enumerate(exps) if e
        )

    rendered = frozenset(
        frozenset({monomial(pos), monomial(neg)})
        for pos, neg in binomial_pairs(gens)
    )
    assert rendered == golden.BINOMIALS_7_12


def test_kernel_generators_span_kernel_lattice():
    for orders, weights in [([7], [[1, 2]]), ([3], [[1, 1, 1]]), ([2, 2], [[1, 0], [0, 1]])]:
        q = build_quiver(build_group(orders, weights))
        inc = incidence_matrices(q)
        gens = kernel_generators_cij(q)
        assert row_hnf(list(gens)) == row_hnf(kernel_basis(list(inc.c)))


def test_kernel_generators_empty_for_one_coordinate():
    q = build_quiver(build_group([2], [[1]]))
    assert list(kernel_generators_cij(q)) == []
    inc = incidence_matrices(q)
    assert kernel_basis(list(inc.c)) == []


def test_binomial_pairs_splits_signs():
    pairs = binomial_pairs([(2, -1, 0), (0, 0, 0)])
    assert pairs == [((2, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 0))]


def test_theta_decompose_routes_units():
    q = quiver_7_12()
    rng = random.Random(5)
    cases = []
    for _ in range(20):
        raw = [rng.randrange(-4, 5) for _ in range(6)]
        cases.append((q, raw + [-sum(raw)]))
    big = build_quiver(build_group([61], [[1, 11, 49]]))
    cases.append((big, [1 - big.r] + [1] * (big.r - 1)))
    for quiver, theta in cases:
        u = theta_decompose(quiver, tuple(theta))
        assert all(isinstance(x, int) and x >= 0 for x in u)
        assert list(mat_vec(incidence_matrices(quiver).b, u)) == theta


def test_theta_decompose_zero():
    q = quiver_7_12()
    assert theta_decompose(q, (0,) * 7) == (0,) * 14


def test_theta_decompose_validates():
    q = quiver_7_12()
    with pytest.raises(InputError, match="^parameter entries must sum to zero$"):
        theta_decompose(q, (1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(InputError, match="^parameter has length 2, expected 7$"):
        theta_decompose(q, (1, -1))
    with pytest.raises(InputError, match="^parameter must be integral$"):
        theta_decompose(q, (Fraction(1, 2), Fraction(-1, 2), 0, 0, 0, 0, 0))

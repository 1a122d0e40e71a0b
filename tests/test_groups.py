import random

import pytest

import golden
from mckay_moduli import (
    BadShape,
    BadTheta,
    Character,
    NonGenerating,
    NotInM,
    binomial_pairs,
    build_group,
    build_quiver,
    closed_walk_from_kernel,
    cycle_from_type,
    directed_path,
    incidence_matrices,
    kernel_generators_cij,
    theta_decompose,
)
from mckay_moduli.intlinalg import kernel_basis, mat_vec, row_hnf


def quiver_7_12():
    return build_quiver(build_group([7], [[1, 2]]))


def test_build_group_basic():
    g = build_group([7], [[1, 2]])
    assert g.r == 7
    assert g.n == 2
    chars = g.characters()
    assert chars[0] == g.trivial
    assert [c.residues for c in chars] == [(j,) for j in range(7)]


def test_build_group_reduces_weights():
    g = build_group([7], [[8, -5]])
    assert g.weights == ((1, 2),)


def test_build_group_klein():
    g = build_group([2, 2], [[1, 0], [0, 1]])
    assert g.r == 4
    chars = g.characters()
    assert [c.residues for c in chars] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_build_group_trivial():
    g = build_group([1], [[0, 0]])
    assert g.r == 1
    assert g.n == 2


def test_build_group_rejects_bad_shapes():
    with pytest.raises(BadShape):
        build_group([], [])
    with pytest.raises(BadShape):
        build_group([2], [])
    with pytest.raises(BadShape):
        build_group([2, 2], [[1, 0]])
    with pytest.raises(BadShape):
        build_group([0], [[1]])
    with pytest.raises(BadShape):
        build_group([2], [[]])


def test_build_group_rejects_non_generating_weights():
    with pytest.raises(NonGenerating):
        build_group([4], [[2]])
    with pytest.raises(NonGenerating):
        build_group([2, 2], [[1], [1]])


def test_group_operations():
    g = build_group([2, 3], [[1, 0], [0, 1]])
    a = Character((1, 2))
    b = Character((1, 1))
    assert g.mul(a, b) == Character((0, 0))
    assert g.inv(a) == Character((1, 1))
    assert g.order_of(Character((0, 1))) == 3
    assert g.deg((2, 3)) == Character((0, 0))
    assert g.deg((1, 2)) == Character((1, 2))


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
            expected = g.mul(expected, g.power(g.generator(i), e))
        assert g.deg(m) == expected
    with pytest.raises(BadShape):
        g.deg((1,) * (g.n + 1))


def test_quiver_structure_7_12():
    q = quiver_7_12()
    assert q.r == 7
    assert q.n == 2
    assert q.num_arrows == 14
    for k, a in enumerate(q.arrows):
        assert q.arrow_index(a.head, a.label) == k
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
    v[q.arrow_index(0, 1)] += 1
    v[q.arrow_index(6, 1)] += 1
    v[q.arrow_index(6, 2)] -= 1
    v[q.arrow_index(1, 1)] -= 1
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


def test_directed_path_single_arrow():
    q = quiver_7_12()
    frm = q.vertices[2]
    to = q.vertices[0]
    path = directed_path(q, frm, to)
    expect = [0] * 14
    expect[q.arrow_index(0, 2)] = 1
    assert path.v == tuple(expect)
    assert path.type == (0, 1)


def test_directed_path_same_vertex_is_empty():
    q = quiver_7_12()
    path = directed_path(q, q.vertices[3], q.vertices[3])
    assert path.v == (0,) * 14
    assert path.type == (0, 0)


def test_directed_path_type_is_lex_minimal():
    q = quiver_7_12()
    g = q.group
    for f in range(7):
        for t in range(7):
            path = directed_path(q, q.vertices[f], q.vertices[t])
            target = g.mul(g.inv(q.vertices[t]), q.vertices[f])
            candidates = [
                (m1, m2)
                for m1 in range(8)
                for m2 in range(8)
                if g.deg((m1, m2)) == target
            ]
            assert path.type == min(candidates)
            inc = incidence_matrices(q)
            bv = mat_vec(inc.b, path.v)
            expect = [0] * 7
            expect[t] += 1
            expect[f] -= 1
            assert list(bv) == expect
            assert all(x >= 0 for x in path.v)


def test_directed_path_raises_without_generation():
    # reachable in the group but not along arrows never happens for a valid
    # quiver; NonGenerating guards the exponent search overflow instead
    g = build_group([5], [[1, 2]])
    q = build_quiver(g)
    path = directed_path(q, q.vertices[1], q.vertices[0])
    assert sum(path.v) >= 1


def test_cycle_from_type_covering_loop():
    q = quiver_7_12()
    cyc = cycle_from_type(q, q.vertices[0], (7, 0))
    inc = incidence_matrices(q)
    assert all(x == 0 for x in mat_vec(inc.b, cyc.v))
    assert tuple(mat_vec(inc.d, cyc.v)) == (7, 0)
    assert sum(cyc.v) == 7
    label_one = [q.arrow_index(h, 1) for h in range(7)]
    assert sorted(k for k, x in enumerate(cyc.v) if x) == sorted(label_one)


def test_cycle_from_type_mixed():
    q = quiver_7_12()
    cyc = cycle_from_type(q, q.vertices[0], (3, 2))
    inc = incidence_matrices(q)
    assert all(x >= 0 for x in cyc.v)
    assert all(x == 0 for x in mat_vec(inc.b, cyc.v))
    assert tuple(mat_vec(inc.d, cyc.v)) == (3, 2)


def test_cycle_from_type_zero():
    q = quiver_7_12()
    cyc = cycle_from_type(q, q.vertices[0], (0, 0))
    assert cyc.v == (0,) * 14


def test_cycle_from_type_rejects_nontrivial_degree():
    q = quiver_7_12()
    with pytest.raises(NotInM):
        cycle_from_type(q, q.vertices[0], (1, 0))
    with pytest.raises(NotInM):
        cycle_from_type(q, q.vertices[0], (2, 1))


def test_theta_decompose_routes_units():
    q = quiver_7_12()
    inc = incidence_matrices(q)
    rng = random.Random(5)
    for _ in range(20):
        raw = [rng.randrange(-4, 5) for _ in range(6)]
        theta = raw + [-sum(raw)]
        u = theta_decompose(q, tuple(theta))
        assert all(x >= 0 for x in u)
        assert list(mat_vec(inc.b, u)) == theta


def test_theta_decompose_zero():
    q = quiver_7_12()
    assert theta_decompose(q, (0,) * 7) == (0,) * 14


def test_theta_decompose_validates():
    q = quiver_7_12()
    with pytest.raises(BadTheta):
        theta_decompose(q, (1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(BadTheta):
        theta_decompose(q, (1, -1))


def test_closed_walk_from_kernel():
    q = quiver_7_12()
    inc = incidence_matrices(q)
    gens = kernel_generators_cij(q)
    for u in gens:
        walk = closed_walk_from_kernel(q, u)
        net = [0] * q.num_arrows
        for k, s in walk:
            net[k] += s
        assert tuple(net) == tuple(u)
        # consecutive steps share endpoints: replaying the walk visits a
        # well-defined vertex sequence that returns to its start
        pos = None
        start = None
        for k, s in walk:
            a = q.arrows[k]
            frm, to = (a.tail, a.head) if s > 0 else (a.head, a.tail)
            if pos is None:
                start = frm
            else:
                assert frm == pos
            pos = to
        assert pos == start


def test_closed_walk_rejects_non_kernel():
    q = quiver_7_12()
    bad = (1,) + (0,) * 13
    with pytest.raises(Exception):
        closed_walk_from_kernel(q, bad)

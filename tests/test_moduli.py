import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flow_oracle
import golden
from conftest import (
    SUITE_GROUPS,
    arrow_index,
    generic_theta,
    normal_fan_under_optimize,
    src_env,
    suite_quivers,
)
from fan_oracle import chart_report, face_cones
from mckay_moduli import (
    CertificateError,
    HPolyhedron,
    InputError,
    VPolyhedron,
    build_group,
    build_quiver,
    distinguished_rep,
    ghilb_parameter,
    h_to_v,
    incidence_matrices,
    locate_cone,
    moduli_fan,
    lifted_flow_polyhedron,
    project,
    stability_parameter,
    theta_polyhedron,
    v_to_h,
)
from mckay_moduli import moduli, polyhedra
from mckay_moduli.cli import main, parse_group_spec
from mckay_moduli.flow import min_cost_flow
from mckay_moduli.groups import AbelianGroupData, integral_theta
from mckay_moduli.intlinalg import int_rank, mat_vec, row_hnf
from mckay_moduli.lp import LinearProgram, LpOptimal, optimal_face_tight_set, solve
from mckay_moduli.moduli import (
    _check_relations,
    _invariant_ball,
    _l1_ball,
    lifted_theta_polyhedron,
)

BOTH = (theta_polyhedron, lifted_theta_polyhedron)


def quiver(orders, weights):
    return build_quiver(build_group(orders, weights))


def w1_quiver():
    return quiver([3], [[1, 1, 1]])


def test_stability_parameter_integral_rescale():
    q = quiver([2], [[1, 1]])
    p = stability_parameter(q, (Fraction(-1, 2), Fraction(1, 2)))
    assert p == (-1, 1)
    assert all(type(x) is int for x in p)
    assert stability_parameter(q, p) == p


def test_stability_parameter_validates():
    q = quiver([2], [[1, 1]])
    with pytest.raises(InputError, match="^parameter entries must sum to zero$"):
        stability_parameter(q, (1, 1))
    with pytest.raises(InputError, match="^parameter has length 1, expected 2$"):
        stability_parameter(q, (0,))


@pytest.mark.parametrize(
    "theta", [(0,), (1, -1, 0), (1, 1), (Fraction(1, 2), Fraction(1, 3)), (3, -2)]
)
def test_stability_parameter_and_integral_theta_share_messages(theta):
    # integral inputs fail both validations with the same message; the
    # rational one fails only by its sum, which stability_parameter rescales
    q = quiver([2], [[1, 1]])
    message = f"^parameter (has length {len(theta)}, expected 2|entries must sum to zero)$"
    with pytest.raises(InputError, match=message) as direct:
        stability_parameter(q, theta)
    cleared = [x * 6 for x in theta]
    with pytest.raises(InputError, match=message) as shared:
        integral_theta(q, cleared)
    assert str(direct.value) == str(shared.value)


def test_theta_polyhedron_zero_is_orthant():
    for build in BOTH:
        q = quiver([3], [[1, 1, 1]])
        tp = build(q, (0, 0, 0))
        assert set(tp.v.vertices) == {(0, 0, 0)}
        assert set(tp.v.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert set(tp.h.inequalities) == {
            ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)
        }


def test_theta_polyhedron_weight_one_golden():
    q = w1_quiver()
    tp = theta_polyhedron(q, golden.W1_THETA)
    assert set(map(tuple, tp.v.vertices)) == golden.W1_VERTICES
    assert set(tp.h.inequalities) == golden.W1_INEQS
    assert tp.h.equations == ()


def test_theta_polyhedron_two_paths_agree_weight_one():
    q = w1_quiver()
    a = theta_polyhedron(q, golden.W1_THETA)
    b = lifted_theta_polyhedron(q, golden.W1_THETA)
    assert a.h == b.h
    assert a.v == b.v


def test_theta_polyhedron_fractional_parameter():
    q = w1_quiver()
    third = (Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3))
    tp = theta_polyhedron(q, third)
    scaled = theta_polyhedron(q, (-2, 1, 1))
    # clearing denominators rescales theta by 3, shrinking the polyhedron by
    # nothing: the integral form is what both computations use
    assert tp.h == scaled.h


def test_lifted_flow_polyhedron_small_counts():
    q = quiver([2], [[1, 1]])
    lifted = h_to_v(lifted_flow_polyhedron(q, (-1, 1)))
    assert len(lifted.vertices) == 2
    assert len(lifted.rays) == 4
    inc = incidence_matrices(q)
    for u in lifted.vertices:
        assert all(x >= 0 for x in u)
        assert all(int(x) == x for x in u)
        assert list(mat_vec(inc.b, [int(x) for x in u])) == [-1, 1]


def test_lifted_vertices_certified_by_forest_oracle():
    # vertices of a flow polyhedron are exactly the feasible flows with
    # forest support; the subset dynamic program counts them independently
    cases = [
        ([3], [[1, 1, 1]], (-2, 1, 1)),
        ([5], [[1, 2, 3]], (2, 0, -1, -1, 0)),
        ([6], [[1, 2, 3]], (1, 1, 1, -5, 1, 1)),
        ([2, 2], [[1, 0], [0, 1]], (3, -1, -1, -1)),
    ]
    for orders, weights, theta in cases:
        q = quiver(orders, weights)
        integral = stability_parameter(q, theta)
        lifted = h_to_v(lifted_flow_polyhedron(q, integral))
        assert len(lifted.vertices) == flow_oracle.count_flow_vertices(q, integral)
        assert len(lifted.rays) == flow_oracle.count_elementary_cycles(q)
        for u in lifted.vertices:
            assert flow_oracle.is_feasible_forest_flow(q, integral, u)
        for u in lifted.rays:
            assert flow_oracle.is_elementary_circulation(q, u)


def test_theta_polyhedron_resolution_of_a1():
    q = quiver([2], [[1, 1]])
    tp = theta_polyhedron(q, (-1, 1))
    assert set(map(tuple, tp.v.vertices)) == {(1, 0), (0, 1)}
    assert set(tp.h.inequalities) == {((1, 0), 0), ((0, 1), 0), ((1, 1), 1)}
    rays_of = {frozenset(tp.fan.rays[i] for i in c) for c in tp.fan.cones}
    assert rays_of == {
        frozenset({(1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 1)}),
    }


def test_brute_force_images_match_polyhedron():
    cases = [
        (quiver([2], [[1, 1]]), (-1, 1), 4),
        (w1_quiver(), golden.W1_THETA, 5),
    ]
    for q, theta, bound in cases:
        tp = theta_polyhedron(q, theta)
        images = flow_oracle.flow_images_up_to(q, theta, bound)
        assert images, "no small flows found"
        for m in images:
            for coeffs, rhs in tp.h.inequalities:
                assert sum(c * x for c, x in zip(coeffs, m)) >= rhs
        for v in tp.v.vertices:
            assert tuple(int(x) for x in v) in images


def min_total_flow(q, theta):
    """Least total arrow multiplicity of a nonnegative flow routing theta."""
    return min_cost_flow(q, integral_theta(q, theta), [1] * q.num_arrows)[2]


def test_min_total_flow():
    q = w1_quiver()
    assert min_total_flow(q, (0, 0, 0)) == 0
    assert min_total_flow(q, golden.W1_THETA) == 3
    assert min_total_flow(quiver([2], [[1, 1]]), (-1, 1)) == 1
    rng = random.Random(9)
    for _ in range(5):
        vals = [rng.randint(-3, 3) for _ in range(2)]
        theta = tuple(vals + [-sum(vals)])
        d = min_total_flow(q, theta)
        assert isinstance(d, int)
        assert d >= 0
        assert (d == 0) == (theta == (0, 0, 0))


def test_min_total_flow_validates():
    q = w1_quiver()
    with pytest.raises(InputError, match="^parameter entries must sum to zero$"):
        min_total_flow(q, (1, 1, 1))
    with pytest.raises(InputError, match="^parameter has length 2, expected 3$"):
        min_total_flow(q, (1, -1))
    with pytest.raises(InputError, match="^parameter must be integral$"):
        min_total_flow(q, (Fraction(1, 2), Fraction(-1, 2), 0))


def test_ghilb_parameter():
    assert ghilb_parameter(quiver([7], [[1, 2]])) == (-6, 1, 1, 1, 1, 1, 1)
    assert ghilb_parameter(quiver([2], [[1, 1]])) == (-1, 1)
    p = ghilb_parameter(quiver([11], [[1, 2, 8]]))
    assert sum(p) == 0
    assert p[0] < 0
    assert all(x > 0 for x in p[1:])
    with pytest.raises(InputError, match="^the trivial group admits no such parameter$"):
        ghilb_parameter(quiver([1], [[0]]))


def test_distinguished_rep_validates_w():
    q = quiver([3], [[1, 2]])
    with pytest.raises(InputError, match="^weight vector entries must be nonnegative$"):
        distinguished_rep(q, (-1, 0, 1), (-1, 0))
    with pytest.raises(InputError, match="^weight vector has length 1, expected 2$"):
        distinguished_rep(q, (-1, 0, 1), (1,))


def test_distinguished_rep_trivial_group():
    q = quiver([1], [[0, 0]])
    assert q.num_arrows == 2
    assert all(a.head == a.tail for a in q.arrows)
    rep = distinguished_rep(q, (0,), (2, 3))
    assert rep.b == (0, 0)
    assert rep.point == (0,)
    assert rep.value == 0
    rep0 = distinguished_rep(q, (0,), (0, 0))
    assert rep0.b == (1, 1)


def test_rep_point_matches_golden_potentials(example_quiver):
    points = {}
    for w, potentials in ((golden.W_A, golden.V_A), (golden.W_B, golden.V_B)):
        points[w] = distinguished_rep(example_quiver, golden.EXAMPLE_THETA, w).point
        assert points[w][0] == 0
        assert len({p - g for p, g in zip(points[w], potentials)}) == 1
    v = points[golden.W_A]
    slacks = tuple(golden.W_A[a.label - 1] + v[a.head] - v[a.tail] for a in example_quiver.arrows)
    assert slacks == golden.SLACK_A


def test_broken_arrow_relation_raises():
    q = quiver([7], [[1, 2]])
    g = q.group
    h, rho = 0, q.vertices[0]
    via_1 = q.vertex_index[g.mul(rho, g.generator(1))]
    b = [0] * q.num_arrows
    b[arrow_index(q, h, 1)] = 1
    b[arrow_index(q, via_1, 2)] = 1
    with pytest.raises(CertificateError):
        _check_relations(q, b)
    _check_relations(q, [1] * q.num_arrows)


def test_distinguished_rep_w_zero_single_point():
    q = quiver([5], [[1, 3]])
    rep = distinguished_rep(q, ghilb_parameter(q), (0, 0))
    assert all(x == 1 for x in rep.b)
    assert all(x == 0 for x in rep.point)


def test_distinguished_rep_scaling_invariance():
    q = w1_quiver()
    base = distinguished_rep(q, golden.W1_THETA, (1, 2, 2))
    lam = tuple(Fraction(7, 3) * x for x in golden.W1_THETA)
    mu = (Fraction(5, 2), 5, 5)
    scaled = distinguished_rep(q, lam, mu)
    assert scaled.b == base.b
    assert scaled.tight == base.tight


def test_distinguished_rep_same_cone_same_b():
    q = w1_quiver()
    tp = theta_polyhedron(q, golden.W1_THETA)
    # two interior combinations of one maximal cone's rays
    cone = tp.fan.cones[0]
    rays = [tp.fan.rays[i] for i in cone]
    w1 = tuple(sum(r[j] for r in rays) for j in range(3))
    w2 = tuple(sum((k + 1) * r[j] for k, r in enumerate(rays)) for j in range(3))
    rep1 = distinguished_rep(q, golden.W1_THETA, w1)
    rep2 = distinguished_rep(q, golden.W1_THETA, w2)
    assert locate_cone(tp.fan, w1) == cone
    assert locate_cone(tp.fan, w2) == cone
    assert rep1.b == rep2.b
    assert rep1.tight == rep2.tight


def test_distinguished_rep_face_subset_of_single():
    q = w1_quiver()
    rng = random.Random(13)
    for _ in range(8):
        w = tuple(rng.randrange(0, 5) for _ in range(3))
        face = distinguished_rep(q, golden.W1_THETA, w)
        single = distinguished_rep(q, golden.W1_THETA, w, single_optimizer=True)
        assert face.tight <= single.tight
        assert face.value == single.value


def test_single_optimizer_runs_no_face_search(monkeypatch):
    real = moduli._reachable
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(moduli, "_reachable", counting)
    q = quiver([13], [[1, 3, 9]])
    theta = ghilb_parameter(q)
    distinguished_rep(q, theta, (13, 7, 1), single_optimizer=True)
    assert len(calls) == 0
    # One strongly connected piece: one forward and one backward search,
    # not one search per vertex.
    distinguished_rep(q, theta, (13, 7, 1))
    assert len(calls) == 2


# Each mutant hands distinguished_rep a certificate that must fail, on
# G-Hilb 1/7(1,2) at w = (1, 1); python -O must not turn the checks off.
_REP_TAMPER_HEAD = """
from mckay_moduli import CertificateError, build_group, build_quiver, moduli
from mckay_moduli import distinguished_rep, ghilb_parameter

kernel, potential_and_face = moduli.min_cost_flow, moduli._potential_and_face
q = build_quiver(build_group([7], [[1, 2]]))
"""
_REP_TAMPER_TAIL = """
try:
    distinguished_rep(q, ghilb_parameter(q), (1, 1))
except CertificateError as exc:
    print("raised", __debug__, exc)
"""
REP_MUTANTS = {
    # one more unit around the label-1 cycles: feasible, of positive cost
    "flow-not-optimal": ("""
def tampered(quiver, theta, cost):
    u, y, value = kernel(quiver, theta, cost)
    u = [x + (a.label == 1) for x, a in zip(u, quiver.arrows)]
    return u, y, sum(c * x for c, x in zip(cost, u))
moduli.min_cost_flow = tampered
""", "the optimal face has no greatest potential"),
    "wrong-flow-value": ("""
def tampered(quiver, theta, cost):
    u, y, value = kernel(quiver, theta, cost)
    return u, y, value + 1
moduli.min_cost_flow = tampered
""", "the greatest potential is not optimal"),
    # the shortest-path tree's potential one lower at vertex 3, tampering
    # only the call whose network is not the quiver
    "potential-not-greatest": ("""
def tampered(network, theta, cost):
    u, y, value = kernel(network, theta, cost)
    if network is not q:
        y = tuple(p - (v == 3) for v, p in enumerate(y))
    return u, y, value
moduli.min_cost_flow = tampered
""", "the greatest potential is not optimal"),
    # the two arrows that test_broken_arrow_relation_raises marks: one side
    # of a commutation square without the other
    "broken-square": ("""
via_1 = q.vertex_index[q.group.mul(q.vertices[0], q.group.generator(1))]
def tampered(*args):
    return potential_and_face(*args)[0], frozenset({0, via_1 * q.n + 1})
moduli._potential_and_face = tampered
""", "arrow relation fails at vertex "),
}


@pytest.mark.parametrize("mutant", sorted(REP_MUTANTS))
def test_rep_certificate_checks_survive_optimize_flag(mutant):
    code, message = REP_MUTANTS[mutant]
    out = subprocess.run(
        [sys.executable, "-O", "-c", _REP_TAMPER_HEAD + code + _REP_TAMPER_TAIL],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout.startswith("raised False " + message)


FACE_QUIVERS = [
    quiver([7], [[1, 2, 4]]),
    quiver([13], [[1, 3, 9]]),
    quiver([11], [[1, 2, 8]]),
    quiver([2, 2], [[1, 0, 1], [0, 1, 1]]),
]


def test_face_matches_the_per_vertex_search():
    # Sparse theta leaves the optimal flow small, so the tight arcs often
    # split into several strongly connected pieces.
    rng = random.Random(22)
    split = 0
    for _ in range(200):
        q = rng.choice(FACE_QUIVERS)
        theta = [0] * q.r
        for v in rng.sample(range(1, q.r), 2):
            theta[v] = rng.randrange(-4, 5)
        theta[0] = -sum(theta)
        w = tuple(rng.randrange(0, 4) for _ in range(q.n))
        cost = [w[a.label - 1] for a in q.arrows]
        u, y, _ = min_cost_flow(q, stability_parameter(q, theta), cost)
        face, pieces = flow_oracle.face_tight_arrows(q, cost, u, y)
        assert distinguished_rep(q, theta, w).tight == face
        split += pieces >= 2
    assert split >= 20


REP_QUIVERS = [q for _, q in suite_quivers()] + [quiver([7], [[1, 2, 4]])]


@st.composite
def rep_programs(draw):
    q = draw(st.sampled_from(REP_QUIVERS))
    entry = st.integers(-6, 6)
    weight = st.one_of(st.just(0), st.fractions(min_value=0, max_value=6, max_denominator=3))
    if draw(st.booleans()):
        # Zeros in theta leave vertices off the flow, and positive weights
        # leave their potentials loose: the flow's own potentials are then
        # optimal but often not greatest.
        entry = st.one_of(st.just(0), entry)
        weight = st.fractions(min_value=Fraction(1, 3), max_value=6, max_denominator=3)
    head = draw(st.lists(entry, min_size=q.r - 1, max_size=q.r - 1))
    theta = tuple(head) + (-sum(head),)
    w = tuple(draw(st.lists(weight, min_size=q.n, max_size=q.n)))
    return q, theta, w


def _potential_program(q, w, objective, extra=()):
    """Minimize objective . v over {v : w_label + v_head - v_tail >= 0, v_0 = 0}."""
    rows = []
    for a in q.arrows:
        coeffs = [0] * q.r
        coeffs[a.head] += 1
        coeffs[a.tail] -= 1
        rows.append((tuple(coeffs), -Fraction(w[a.label - 1])))
    pin = (tuple(1 if t == 0 else 0 for t in range(q.r)), 0)
    feasible = HPolyhedron(dim=q.r, inequalities=tuple(rows), equations=(pin,) + extra)
    return LinearProgram(objective=objective, feasible=feasible)


# In both examples the flow's own potentials are optimal but not greatest,
# so only the shortest-path tree on the reduced arcs lifts them.
REP_POINT_EXAMPLES = [
    (REP_QUIVERS[0], (0, 0), (Fraction(1, 2),)),
    (REP_QUIVERS[-1], (0, 3, -4, 2, -2, 0, 1), (Fraction(5, 3), 1, 3)),
]


def test_rep_point_matches_bellman_ford():
    lifted = []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rep_programs())
    @example(REP_POINT_EXAMPLES[0])
    @example(REP_POINT_EXAMPLES[1])
    def check(program):
        q, theta, w = program
        scale = math.lcm(*(Fraction(x).denominator for x in w))
        cost = [int(Fraction(w[a.label - 1]) * scale) for a in q.arrows]
        u, y, _ = min_cost_flow(q, stability_parameter(q, theta), cost)
        greatest = flow_oracle.greatest_potential(q, cost, u)
        expected = tuple(Fraction(d, scale) for d in greatest)
        assert distinguished_rep(q, theta, w).point == expected
        assert distinguished_rep(q, theta, w, single_optimizer=True).point == expected
        if program not in REP_POINT_EXAMPLES:
            lifted.append(greatest != [y[0] - p for p in y])

    check()
    # Drawn programs whose flow potentials are optimal but not greatest.
    assert sum(lifted) >= 5

@pytest.mark.parametrize("single", [False, True])
def test_rep_makes_two_kernel_calls(monkeypatch, single):
    networks = []

    def counting(network, theta, cost):
        networks.append(network)
        return min_cost_flow(network, theta, cost)

    monkeypatch.setattr(moduli, "min_cost_flow", counting)
    q = quiver([13], [[1, 3, 9]])
    distinguished_rep(q, ghilb_parameter(q), (13, 7, 1), single_optimizer=single)
    # the flow on the quiver, then the shortest-path tree on its reduced arcs
    assert len(networks) == 2
    assert networks[0] is q and networks[1].r == q.r
    assert len(networks[1].arrows) > q.num_arrows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rep_programs())
def test_distinguished_rep_matches_lp_reference(program):
    q, theta, w = program
    sol, tight = optimal_face_tight_set(_potential_program(q, w, theta))
    face = distinguished_rep(q, theta, w)
    assert face.tight == tight
    assert face.b == tuple(1 if k in tight else 0 for k in range(q.num_arrows))
    assert face.value == sol.value
    single = distinguished_rep(q, theta, w, single_optimizer=True)
    assert single.tight >= face.tight
    assert single.point == face.point
    assert sum(t * v for t, v in zip(theta, face.point)) == face.value
    # The optimal face has a greatest element, and it is the one optimum of
    # sum(v) over the face, so one solve checks every coordinate of point.
    on_face = ((tuple(theta), sol.value),)
    res = solve(_potential_program(q, w, (-1,) * q.r, on_face))
    assert isinstance(res, LpOptimal)
    assert res.point == face.point


def test_locate_cone_succeeds_on_random_w():
    q = w1_quiver()
    tp = theta_polyhedron(q, golden.W1_THETA)
    faces = face_cones(tp.h, tp.v)
    rng = random.Random(19)
    for _ in range(50):
        w = tuple(Fraction(rng.randrange(0, 40), rng.randrange(1, 5)) for _ in range(3))
        cone = locate_cone(tp.fan, w)
        assert faces.get(frozenset(cone)) == cone


def test_moduli_fan_weight_one_structure():
    q = w1_quiver()
    tp = theta_polyhedron(q, golden.W1_THETA)
    fan = tp.fan
    assert set(fan.rays) == golden.W1_FAN_RAYS
    assert len(fan.cones) == 3
    big = fan.rays.index((1, 1, 1))
    for cone in fan.cones:
        assert big in cone
        assert len(cone) == 3
    marker_of = {frozenset(c): tuple(int(x) for x in fan.vertices[j])
                 for j, c in enumerate(fan.cones)}
    unit_of = {(3, 0, 0): (1, 0, 0), (0, 3, 0): (0, 1, 0), (0, 0, 3): (0, 0, 1)}
    for key, vert in marker_of.items():
        missing_unit = unit_of[vert]
        assert fan.rays.index(missing_unit) not in key


def test_moduli_fan_charts_weight_one_saturated():
    q = w1_quiver()
    tp = theta_polyhedron(q, golden.W1_THETA)
    tf = moduli_fan(tp, charts_bound=6)
    assert tf.charts is not None
    assert len(tf.charts) == 3
    for ch in tf.charts:
        assert ch.bound == 6
        assert ch.saturated_up_to_bound
        assert ch.missing == ()
        assert ch.generators
        for g in ch.generators:
            assert sum(g) % 3 == 0
            assert sum(abs(x) for x in g) <= 6


def test_moduli_fan_charts_theta_zero():
    q = quiver([2], [[1, 1]])
    tp = theta_polyhedron(q, (0, 0))
    tf = moduli_fan(tp, charts_bound=4)
    assert len(tf.charts) == 1
    ch = tf.charts[0]
    assert ch.saturated_up_to_bound
    gens = set(ch.generators)
    # the degree-zero points of the quarter plane within the bound
    expect = {
        (m1, m2)
        for m1 in range(5)
        for m2 in range(5)
        if 0 < m1 + m2 <= 4 and (m1 + m2) % 2 == 0
    }
    assert gens == expect


def test_fan_support_covers_orthant_only(example_tp):
    fan = example_tp.fan
    assert set(fan.rec_rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    with pytest.raises(Exception):
        locate_cone(fan, (-1, 2, 2))


def test_adjacent_vertices_share_wall(example_tp):
    fan = example_tp.fan
    shared = 0
    for i, ci in enumerate(fan.cones):
        for cj in fan.cones[i + 1:]:
            common = sorted(set(ci) & set(cj))
            if len(common) == 2:
                w = tuple(sum(col) for col in zip(*(fan.rays[k] for k in common)))
                wall = locate_cone(fan, w)
                assert wall == tuple(common)
                assert int_rank([fan.rays[k] for k in wall]) == 2
                shared += 1
    assert shared >= 10


def test_two_path_agreement_on_random_parameters():
    rng = random.Random(29)
    for _, orders, weights in SUITE_GROUPS:
        q = quiver(orders, weights)
        for _ in range(2):
            vals = [rng.randint(-4, 4) for _ in range(q.r - 1)]
            theta = tuple(vals + [-sum(vals)])
            a = theta_polyhedron(q, theta)
            b = lifted_theta_polyhedron(q, theta)
            assert a.h == b.h
            assert a.v == b.v


# v_to_h loses its lexicographically largest facet in every oracle round.
# Unchecked, G-Hilb on 1/7(1,2,4) then comes back with 5 facets and 5
# vertices instead of 6 and 7, two of them never solved.  The closing reads
# vertices off the solved points only, so the row (1, 2, 4) >= 21 meets just
# two of them, (9, 0, 3) and (21, 0, 0), and is not a facet.
_DROP_ROW_SCRIPT = """
from mckay_moduli import CertificateError, HPolyhedron, build_group, build_quiver, moduli
from mckay_moduli import ghilb_parameter, theta_polyhedron

v_to_h = moduli.v_to_h
moduli.v_to_h = lambda v: HPolyhedron(v.dim, v_to_h(v).inequalities[:-1])
q = build_quiver(build_group([7], [[1, 2, 4]]))
try:
    theta_polyhedron(q, ghilb_parameter(q))
except CertificateError as exc:
    print("raised", __debug__, exc)
"""


def test_oracle_rejects_a_vertex_no_flow_reached():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _DROP_ROW_SCRIPT],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "raised False row (1, 2, 4) >= 21 is not a facet\n"


# Every oracle solve reports a minimum one above the true one, so a row that
# the cheapest flow meets reads as lying above the polyhedron.
_RAISE_VALUE_SCRIPT = """
from mckay_moduli import CertificateError, build_group, build_quiver, moduli
from mckay_moduli import ghilb_parameter, theta_polyhedron

flow = moduli.min_cost_flow


def raised(quiver, theta, cost):
    u, y, value = flow(quiver, theta, cost)
    return u, y, value + 1


moduli.min_cost_flow = raised
q = build_quiver(build_group([7], [[1, 2, 4]]))
try:
    theta_polyhedron(q, ghilb_parameter(q))
except CertificateError as exc:
    print("raised", __debug__, exc)
"""


def test_oracle_rejects_a_flow_minimum_above_its_row():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _RAISE_VALUE_SCRIPT],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "raised False flow minimum lies above an inner facet\n"


# The first vertex of G-Hilb on 1/7(1,2,4) gets the first coordinate 1/2, so
# no chart can be read off it.
_HALF_VERTEX_SCRIPT = """
from fractions import Fraction
from mckay_moduli import CertificateError, build_group, build_quiver, moduli_fan
from mckay_moduli import ghilb_parameter, theta_polyhedron

q = build_quiver(build_group([7], [[1, 2, 4]]))
tp = theta_polyhedron(q, ghilb_parameter(q))
first, *rest = tp.fan.vertices
tp = tp._replace(fan=tp.fan._replace(vertices=((Fraction(1, 2),) + first[1:], *rest)))
try:
    moduli_fan(tp, charts_bound=2)
except CertificateError as exc:
    print("raised", __debug__, exc)
"""


def test_charts_reject_a_fractional_vertex():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _HALF_VERTEX_SCRIPT],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "raised False vertex 0 of the type polyhedron is not integral\n"


# The closing (normal_fan) loses the lexicographically largest of the points
# it is given, as a vertex enumeration that drops one vertex would.  Unchecked,
# G-Hilb on 1/7(1,2,4) then comes back with 6 vertices and a fan one cone short.
_DROP_MAX_SCRIPT = """
from mckay_moduli import CertificateError, build_group, build_quiver, moduli
from mckay_moduli import ghilb_parameter

fan = moduli.normal_fan

def drop_max(h, v):
    return fan(h, v._replace(vertices=tuple(p for p in v.vertices if p != max(v.vertices))))

moduli.normal_fan = drop_max
q = build_quiver(build_group([7], [[1, 2, 4]]))
for build in (moduli.theta_polyhedron, moduli.lifted_theta_polyhedron):
    try:
        build(q, ghilb_parameter(q))
    except CertificateError as exc:
        print("raised", __debug__, exc)
"""


def test_both_methods_reject_a_dropped_vertex():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _DROP_MAX_SCRIPT],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    line = "raised False edge (2, -1, 0) at vertex (3, 9, 0) ends at no returned vertex\n"
    assert out.stdout == line * 2


# The closing (normal_fan) runs once as the construction calls it, then once per
# vertex on the same H-description and points with that vertex taken out;
# every such run must raise.  Prints each vertex whose loss went unnoticed.
_DROP_EACH_SCRIPT = """
import sys
from mckay_moduli import CertificateError, build_group, build_quiver, moduli
from mckay_moduli import ghilb_parameter

order, weights, method = int(sys.argv[1]), [int(x) for x in sys.argv[2].split(",")], sys.argv[3]
build = moduli.lifted_theta_polyhedron if method == "lifted" else moduli.theta_polyhedron
fan = moduli.normal_fan
held = []
moduli.normal_fan = lambda *args: held.append(args) or fan(*args)
q = build_quiver(build_group([order], [weights]))
tp = build(q, ghilb_parameter(q))
h, v = held[0]
for vert in tp.v.vertices:
    try:
        fan(h, v._replace(vertices=tuple(p for p in v.vertices if p != vert)))
        print("passed", vert)
    except CertificateError:
        pass
print("raised", __debug__, len(tp.v.vertices))
"""

STRESS = pytest.mark.skipif(not os.environ.get("MCKAY_STRESS"), reason="set MCKAY_STRESS=1")


@pytest.mark.parametrize("order,weights,method,count", [
    (7, "1,2,4", "oracle", 7),
    (13, "1,3,9", "oracle", 13),
    (7, "1,2,4", "lifted", 7),
    pytest.param(41, "1,5,12,23", "oracle", 281, marks=STRESS),
])
def test_closing_rejects_each_dropped_vertex(order, weights, method, count):
    out = subprocess.run(
        [sys.executable, "-O", "-c", _DROP_EACH_SCRIPT, str(order), weights, method],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout == f"raised False {count}\n"


UNITS_2 = ((0, 1), (1, 0))


def test_closing_rejects_a_recession_cone_beyond_the_orthant():
    h = HPolyhedron(dim=2, inequalities=(((1, 1), 2), ((0, 1), 1)))
    v = VPolyhedron(dim=2, vertices=((1, 1),), rays=UNITS_2)
    assert normal_fan_under_optimize(h, v) == (
        "raised False CertificateError row (1, 1) >= 2 is not a facet"
    )


def test_closing_rejects_a_point_outside_the_rows():
    orthant = HPolyhedron(dim=2, inequalities=(((0, 1), 0), ((1, 0), 0)))
    v = VPolyhedron(dim=2, vertices=((-1, 3), (0, 0)), rays=UNITS_2)
    assert normal_fan_under_optimize(orthant, v) == (
        "raised False CertificateError vertex violates an inequality"
    )


# Anchor fans and seeded generic parameters, with the lifted path where its
# potential cone stays small (it grows exponentially in r).
REFERENCE_CASES = [
    ([7], [[1, 2, 4]], None, BOTH),
    ([13], [[1, 3, 9]], None, BOTH),
    ([13], [[1, 3, 9]], tuple(int(x) for x in golden.GENERIC_13.split(",")), BOTH),
    ([11], [[1, 2, 8]], golden.EXAMPLE_THETA, BOTH),
    ([61], [[1, 11, 49]], None, (theta_polyhedron,)),
] + [
    (orders, weights, generic_theta(random.Random(seed), math.prod(orders)), BOTH)
    for _, orders, weights in SUITE_GROUPS + [("2x2:1,0,1;0,1,1", [2, 2], [[1, 0, 1], [0, 1, 1]])]
    if math.prod(orders) * len(weights[0]) <= 16
    for seed in range(3)
]


@pytest.mark.parametrize("orders,weights,theta,methods", REFERENCE_CASES)
def test_closing_matches_the_vertex_enumeration(orders, weights, theta, methods):
    q = quiver(orders, weights)
    for build in methods:
        tp = build(q, ghilb_parameter(q) if theta is None else theta)
        assert tp.v == h_to_v(tp.h)


def _golden_v(vertices, n):
    """The golden vertex set as the public VPolyhedron, with Fraction coordinates."""
    units = tuple(sorted(tuple(1 if t == i else 0 for t in range(n)) for i in range(n)))
    verts = tuple(sorted(tuple(Fraction(x) for x in vert) for vert in vertices))
    return VPolyhedron(dim=n, vertices=verts, rays=units)


def test_golden_v_descriptions_compare_equal(example_tp):
    cases = [(example_tp, golden.EXAMPLE_VERTICES)]
    for build in BOTH:
        cases.append((build(w1_quiver(), golden.W1_THETA), golden.W1_VERTICES))
    for tp, vertices in cases:
        expected = _golden_v(vertices, tp.quiver.n)
        assert tp.v == expected
        assert hash(tp.v) == hash(expected)
        assert tp.v.vertices == expected.vertices
        assert all(type(x) is int for vert in tp.v.vertices for x in vert)


def test_lifted_path_builds_no_vertex_fractions(monkeypatch):
    """polyhedra builds no Fraction at all: the initial basis is inverted in integers."""
    real = polyhedra.Fraction
    callers = set()

    def counting(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        callers.add(frame.f_code.co_name)
        return real(*args)

    monkeypatch.setattr(polyhedra, "Fraction", counting)
    q = quiver([7], [[1, 2, 4]])
    tp = lifted_theta_polyhedron(q, ghilb_parameter(q))
    assert callers == set()
    assert len(tp.v.vertices) == 7
    assert all(type(x) is int for vert in tp.v.vertices for x in vert)


def test_lifted_path_builds_no_arrow_space_v_description(monkeypatch):
    real_h_to_v, real_project, real_dd = polyhedra.h_to_v, polyhedra.project, polyhedra._pointed_dd
    seen, dd_dims = [], set()

    def h_to_v_recorder(h):
        seen.append(("h_to_v", h.dim))
        return real_h_to_v(h)

    def project_recorder(v, rows):
        seen.append(("project", v.dim))
        return real_project(v, rows)

    def dd_recorder(rows, d):
        dd_dims.add(d)
        return real_dd(rows, d)

    for module in (moduli, polyhedra):
        monkeypatch.setattr(module, "h_to_v", h_to_v_recorder, raising=False)
        monkeypatch.setattr(module, "project", project_recorder, raising=False)
    monkeypatch.setattr(polyhedra, "_pointed_dd", dd_recorder)
    q = quiver([7], [[1, 2, 4]])
    tp = lifted_theta_polyhedron(q, ghilb_parameter(q))
    assert len(tp.v.vertices) == 7
    # h_to_v runs in type space only, and project never runs.
    assert set(seen) == {("h_to_v", q.n)}
    # The potential cone in n + r - 1 dimensions, the homogenized type space
    # (h_to_v, v_to_h) and the edges of normal_fan: never the flow cone.
    assert dd_dims == {q.n + q.r - 1, q.n + 1, q.n}


@pytest.mark.parametrize("theta", [None, (8, 8, -6, -6, -6, 1, 1)])
def test_lifted_path_runs_no_flow_code(monkeypatch, theta):
    def refuse(*args):
        raise AssertionError("the lifted path ran flow code")

    monkeypatch.setattr(moduli, "min_cost_flow", refuse)
    monkeypatch.setattr(moduli, "theta_decompose", refuse)
    q = quiver([7], [[1, 2, 4]])
    param = ghilb_parameter(q) if theta is None else theta
    lifted = lifted_theta_polyhedron(q, param)
    with pytest.raises(AssertionError, match="flow code"):
        theta_polyhedron(q, param)
    monkeypatch.undo()
    assert lifted == theta_polyhedron(q, param)


Q7 = quiver([7], [[1, 2, 4]])
Q22 = quiver([2, 2], [[1, 0, 1], [0, 1, 1]])
LIFTED_QUIVERS = [q for _, q in suite_quivers()] + [Q7, Q22]


@st.composite
def lifted_cases(draw):
    q = draw(st.sampled_from(LIFTED_QUIVERS))
    head = draw(st.lists(st.integers(-3, 3), min_size=q.r - 1, max_size=q.r - 1)
                .filter(lambda h: abs(sum(h)) <= 3))
    return q, tuple(head) + (-sum(head),)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lifted_cases())
@example((Q7, (0,) * 7))
@example((Q22, (0, 0, 0, 0)))
@example((Q22, (-3, 1, 1, 1)))
def test_lifted_path_matches_the_projected_flow_polyhedron(case):
    """The rays mapped straight into type space give what projecting the flow vertices gives."""
    q, theta = case
    tp = lifted_theta_polyhedron(q, theta)
    flow = lifted_flow_polyhedron(q, stability_parameter(q, theta))
    v = project(h_to_v(flow), incidence_matrices(q).d)
    assert tp.v == v
    assert tp.h == v_to_h(v)


# _pointed_dd negates the first ray of the potential cone, the first double
# description the lifted path runs.
_NEGATE_POTENTIAL_RAY_SCRIPT = """
from mckay_moduli import CertificateError, build_group, build_quiver, polyhedra
from mckay_moduli import ghilb_parameter
from mckay_moduli.moduli import lifted_theta_polyhedron

pointed_dd = polyhedra._pointed_dd
calls = []

def negate_first(rows, d):
    rays = pointed_dd(rows, d)
    if not calls:
        rays[0] = tuple(-x for x in rays[0])
    calls.append(d)
    return rays

polyhedra._pointed_dd = negate_first
q = build_quiver(build_group([7], [[1, 2, 4]]))
try:
    lifted_theta_polyhedron(q, ghilb_parameter(q))
except CertificateError as exc:
    print("raised", __debug__, exc)
"""


def test_lifted_path_rejects_a_ray_outside_the_potential_cone():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _NEGATE_POTENTIAL_RAY_SCRIPT],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout == (
        "raised False ray (-1, -2, -4, -1, -2, -3, -4, -5, -6) "
        "of the potential cone violates an arrow row\n"
    )


# _pointed_dd negates one ray with t > 0 of the homogenized flow cone; rows[0]
# is the row t >= 0 in kernel coordinates, so it reads each ray's t.
_NEGATE_RAY_SCRIPT = """
from mckay_moduli import CertificateError, build_group, build_quiver, polyhedra
from mckay_moduli import ghilb_parameter, h_to_v, lifted_flow_polyhedron

pointed_dd = polyhedra._pointed_dd
calls = []

def negate_one(rows, d):
    rays = pointed_dd(rows, d)
    if not calls:
        k = next(i for i, y in enumerate(rays) if sum(a * b for a, b in zip(rows[0], y)) > 0)
        rays[k] = tuple(-x for x in rays[k])
    calls.append(d)
    return rays

polyhedra._pointed_dd = negate_one
q = build_quiver(build_group([7], [[1, 2, 4]]))
try:
    h_to_v(lifted_flow_polyhedron(q, ghilb_parameter(q)))
except CertificateError as exc:
    print("raised", __debug__, exc)
"""


def test_h_to_v_rejects_a_ray_below_the_hyperplane_at_infinity():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _NEGATE_RAY_SCRIPT],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout.startswith("raised False homogenizing coordinate of ray (")
    assert out.stdout.endswith(") is negative\n")


def test_charts_sweep_the_lattice_ball_once(monkeypatch, capsys):
    real = AbelianGroupData.deg
    calls = []

    def counting(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(AbelianGroupData, "deg", counting)
    base = ["fan", "--group", "1/7(1,2,4)", "--ghilb"]
    assert main(base) == 0
    without = len(calls)
    assert main(base + ["--charts", "6"]) == 0
    capsys.readouterr()
    assert len(calls) - without == sum(1 for _ in _l1_ball(3, 6))


@pytest.mark.parametrize("argv", [
    ["fan", "--group", "1/7(1,2,4)", "--ghilb", "--charts", "4"],
    ["rep", "--group", "1/11(1,2,8)", "--theta", "1,1,1,1,-7,-9,1,1,1,8,1", "-w", "10,7,6"],
])
def test_one_incidence_pass_per_command(monkeypatch, capsys, argv):
    real = polyhedra.normal_fan
    calls = []

    def counting(h, v):
        calls.append(v)
        return real(h, v)

    # Every module that binds the function gets the counting one.
    for name, mod in list(sys.modules.items()):
        if name.startswith("mckay_moduli") and getattr(mod, "normal_fan", 0) is real:
            monkeypatch.setattr(mod, "normal_fan", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_chart_search_needs_no_recursion_depth():
    # A recursive search over q -> q - g needs about 0.66 * bound frames on
    # G-Hilb 1/3(1,2), 58 at bound 80.
    q = quiver([3], [[1, 2]])
    tp = theta_polyhedron(q, ghilb_parameter(q))
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        tf = moduli_fan(tp, charts_bound=80)
    finally:
        sys.setrecursionlimit(limit)
    assert len(tf.charts) == 3
    assert all(ch.saturated_up_to_bound for ch in tf.charts)


# v_to_h appends the sum of its first two rows in every oracle round: a
# valid but redundant row.  Unchecked, G-Hilb on 1/7(1,2,4) then comes back
# with 7 rows, (0, 1, 1) >= 0 among them.
_ADD_ROW_SCRIPT = """
from mckay_moduli import CertificateError, HPolyhedron, build_group, build_quiver, moduli
from mckay_moduli import ghilb_parameter, theta_polyhedron

v_to_h = moduli.v_to_h

def add_row(v):
    rows = v_to_h(v).inequalities
    (c0, r0), (c1, r1) = rows[:2]
    return HPolyhedron(v.dim, rows + ((tuple(a + b for a, b in zip(c0, c1)), r0 + r1),))

moduli.v_to_h = add_row
q = build_quiver(build_group([7], [[1, 2, 4]]))
try:
    theta_polyhedron(q, ghilb_parameter(q))
except CertificateError as exc:
    print("raised", __debug__, exc)
"""


def test_oracle_rejects_a_redundant_row():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _ADD_ROW_SCRIPT],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "raised False row (0, 1, 1) >= 0 is not a facet\n"


# (orders, weights, theta or None for G-Hilb, bound, {vertex: missing} of the
# charts that are not saturated up to the bound)
CHART_CASES = [
    ([7], [[1, 2, 4]], None, 14, {}),
    ([13], [[1, 3, 9]], None, 12, {}),
    ([3], [[1, 1, 1]], (-2, 1, 1), 10, {}),
    ([2, 2], [[1, 0, 1], [0, 1, 1]], None, 8, {}),
    ([8], [[1, 3, 5, 7]], (-4, -1, -4, 2, -5, 0, 3, 9), 5, {(0, 3, 14, 1): ((0, 2, 0, -2),)}),
]


@pytest.mark.parametrize("orders,weights,theta,bound,unsaturated", CHART_CASES)
def test_charts_match_the_per_vertex_reference(orders, weights, theta, bound, unsaturated):
    q = quiver(orders, weights)
    tp = theta_polyhedron(q, ghilb_parameter(q) if theta is None else theta)
    tf = moduli_fan(tp, charts_bound=bound)
    ball = _invariant_ball(q.group, bound)
    expected = tuple(chart_report(tp, tf.fan, i, bound, ball) for i in range(len(tp.v.vertices)))
    assert tf.charts == expected
    assert {ch.vertex: ch.missing for ch in tf.charts if ch.missing} == unsaturated


def _primitive_in_n(ray, r, basis):
    """Coordinates of ray in the basis of r * N, made primitive: ray's primitive vector in N."""
    c = []
    for j, col in enumerate(zip(*basis)):
        rest = r * ray[j] - sum(ci * b for ci, b in zip(c, col))
        assert rest % col[j] == 0
        c.append(rest // col[j])
    g = math.gcd(*c)
    return [x // g for x in c]


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@pytest.mark.parametrize(
    "r,weights,generic",
    [(61, [1, 11, 49], False), (127, [1, 19, 107], False), (127, [1, 19, 107], True)],
)
def test_fan_meets_the_mckay_invariants_at_the_frontier(r, weights, generic):
    """The fan of a generic theta on C^3 / (1/r(a)) is a crepant resolution's.

    r maximal cones, each simplicial; one ray per coordinate and per junior
    element; every cone unimodular in N = Z^3 + Z a / r.
    """
    q = quiver([r], [weights])
    theta = generic_theta(random.Random(1), r) if generic else ghilb_parameter(q)
    fan = theta_polyhedron(q, theta).fan
    junior = sum(1 for k in range(1, r) if sum(k * a % r for a in weights) == r)
    assert junior == {61: 30, 127: 63}[r]
    assert len(fan.cones) == r
    assert len(fan.rays) == 3 + junior
    basis = row_hnf([tuple(r if i == j else 0 for j in range(3)) for i in range(3)] + [weights])
    assert len(basis) == 3
    for cone in fan.cones:
        assert len(cone) == 3
        assert abs(_det3([_primitive_in_n(fan.rays[i], r, basis) for i in cone])) == 1


@pytest.mark.parametrize(
    "spec", ["1/7(1,2,4)", "1/13(1,3,9)", "2x2:1,0,1;0,1,1", "1/8(1,3,5,7)", "1/61(1,11,49)"]
)
def test_ghilb_cones_are_g_graphs(spec):
    """Each maximal cone of the G-Hilb fan is sigma(Gamma) of a G-graph Gamma (Nakamura, 2001).

    At w inside the cone the cheapest flow is a spanning tree out of vertex 0,
    and the label counts of its paths are Gamma: r monomials closed under division.
    """
    q = quiver(*parse_group_spec(spec))
    theta = ghilb_parameter(q)
    fan = theta_polyhedron(q, theta).fan
    for cone, vertex in zip(fan.cones, fan.vertices):
        rays = [fan.rays[i] for i in cone]
        w = [sum(col) for col in zip(*rays)]
        u, _, _ = min_cost_flow(q, theta, [w[a.label - 1] for a in q.arrows])
        support = [a for a, f in zip(q.arrows, u) if f]
        assert sorted(a.head for a in support) == list(range(1, q.r))
        # One arrow into each other vertex: the support is a tree when 0 reaches all r.
        m = {0: (0,) * q.n}
        for v in (queue := [0]):
            for a in support:
                if a.tail == v:
                    m[a.head] = tuple(x + (i == a.label - 1) for i, x in enumerate(m[v]))
                    queue.append(a.head)
        gamma = set(m.values())
        assert len(m) == len(gamma) == q.r
        for mono in gamma:
            for i, x in enumerate(mono):
                assert not x or mono[:i] + (x - 1,) + mono[i + 1:] in gamma
        assert tuple(map(sum, zip(*gamma))) == vertex
        steps = [
            tuple(x + (i == a.label - 1) - y for i, (x, y) in enumerate(zip(m[a.tail], m[a.head])))
            for a in q.arrows
        ]
        assert polyhedra.cone_double_description(steps, [], q.n) == sorted(rays)
        tight = distinguished_rep(q, theta, w).tight
        assert tight == {k for k, step in enumerate(steps) if not any(step)}

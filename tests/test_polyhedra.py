import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import golden
from conftest import generic_theta, internal_error, normal_fan_under_optimize, src_env
from dd_oracle import cone_double_description_dense, pointed_dd_scan
from fan_oracle import face_cones

from mckay_moduli import (
    CertificateError,
    HPolyhedron,
    InputError,
    VPolyhedron,
    build_group,
    build_quiver,
    ghilb_parameter,
    h_to_v,
    locate_cone,
    normal_fan,
    project,
    theta_polyhedron,
    v_to_h,
)
from mckay_moduli import polyhedra
from mckay_moduli.intlinalg import independent_rows, int_rank, kernel_basis
from mckay_moduli.polyhedra import _pointed_dd, cone_double_description

ORTHANT_2 = HPolyhedron(dim=2, inequalities=(((1, 0), 0), ((0, 1), 0)))
SQUARE = HPolyhedron(
    dim=2,
    inequalities=(((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)),
)
TRIANGLE = VPolyhedron(dim=2, vertices=((0, 0), (1, 0), (0, 1)))


def _homogenized_rows(rows):
    """Integer rows (coeffs, -rhs) scaled by the lcm of their denominators."""
    out = []
    for coeffs, rhs in rows:
        entries = [Fraction(x) for x in coeffs] + [-Fraction(rhs)]
        mult = math.lcm(*(x.denominator for x in entries))
        out.append(tuple(int(x * mult) for x in entries))
    return out


def _dense_lineality_of_h(h):
    """Lineality of the homogenization of h, by the dense reference.

    It is nonempty exactly when h_to_v must raise ModuliError.
    """
    ineq_rows = [(0,) * h.dim + (1,)] + _homogenized_rows(h.inequalities)
    return cone_double_description_dense(ineq_rows, _homogenized_rows(h.equations), h.dim + 1)[1]


def _generator_rows(v):
    """Integer generators (den * vertex, den) and (ray, 0) of the homogenization of v."""
    rows = []
    for vert in v.vertices:
        den = math.lcm(*(Fraction(x).denominator for x in vert))
        rows.append(tuple(int(x * den) for x in vert) + (den,))
    return rows + [tuple(ray) + (0,) for ray in v.rays]


def _dense_lineality_of_v(v):
    """Lineality of the cone of inequalities valid on v, by the dense reference.

    It is nonempty exactly when v is lower-dimensional, where v_to_h must
    raise ModuliError.
    """
    return cone_double_description_dense(_generator_rows(v), [], v.dim + 1)[1]


def test_h_to_v_orthant():
    v = h_to_v(ORTHANT_2)
    assert set(v.vertices) == {(0, 0)}
    assert set(v.rays) == {(1, 0), (0, 1)}
    assert v == VPolyhedron(dim=2, vertices=((0, 0),), rays=((0, 1), (1, 0)))


def test_h_to_v_square():
    v = h_to_v(SQUARE)
    assert set(v.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert v.rays == ()


def test_h_to_v_empty():
    empty = HPolyhedron(dim=1, inequalities=(((1,), 1), ((-1,), 0)))
    v = h_to_v(empty)
    assert v.is_empty
    assert v.vertices == () and v.rays == ()
    assert v == VPolyhedron(dim=1, vertices=())


def test_h_to_v_halfspace_has_lineality():
    half = HPolyhedron(dim=2, inequalities=(((1, 0), 0),))
    assert _dense_lineality_of_h(half) == [(0, 1, 0)]
    with internal_error("not pointed"):
        h_to_v(half)


def test_h_to_v_whole_space():
    whole = HPolyhedron(dim=2, inequalities=())
    assert len(_dense_lineality_of_h(whole)) == 2
    with internal_error("not pointed"):
        h_to_v(whole)


def test_h_to_v_equations_only_point():
    point = HPolyhedron(
        dim=2, inequalities=(), equations=(((1, 0), 2), ((0, 1), 3))
    )
    v = h_to_v(point)
    assert v.vertices == ((2, 3),)
    assert v.rays == ()
    assert v == VPolyhedron(dim=2, vertices=((2, 3),))


def test_v_to_h_triangle():
    h = v_to_h(TRIANGLE)
    assert h.equations == ()
    assert set(h.inequalities) == {((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)}


def test_v_to_h_single_point():
    point = VPolyhedron(dim=2, vertices=((1, 2),))
    # The valid inequalities x = 1 and y = 2 make up the lineality of the polar cone.
    assert _dense_lineality_of_v(point) == [(1, 0, -1), (0, 1, -2)]
    with internal_error("not pointed"):
        v_to_h(point)


def test_v_to_h_rejects_empty():
    with internal_error("^cannot convert an empty V-description$"):
        v_to_h(VPolyhedron(dim=2, vertices=()))


# The cone of valid inequalities gains the generator (0, 0, -1), which reads 0 >= 1.
_TRIVIAL_ROW_SCRIPT = """
from mckay_moduli import CertificateError, VPolyhedron, polyhedra

dd = polyhedra.cone_double_description
polyhedra.cone_double_description = lambda *args: dd(*args) + [(0, 0, -1)]
try:
    polyhedra.v_to_h(VPolyhedron(2, ((0, 0), (1, 0), (0, 1))))
except CertificateError as exc:
    print("raised", __debug__, exc)
"""


def test_v_to_h_rejects_an_inconsistent_trivial_row():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _TRIVIAL_ROW_SCRIPT],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "raised False inconsistent trivial inequality 0 >= 1\n"


def test_v_to_h_fractional_vertices():
    v = VPolyhedron(dim=1, vertices=((Fraction(1, 2),), (Fraction(3, 2),)))
    h = v_to_h(v)
    assert set(h.inequalities) == {((2,), 1), ((-2,), -3)}


def test_round_trip_square():
    v = h_to_v(SQUARE)
    h2 = v_to_h(v)
    assert set(h2.inequalities) == set(
        v_to_h(h_to_v(h2)).inequalities
    )
    assert set(h2.inequalities) == {
        ((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)
    }


def test_h_to_v_row_order_independence():
    rng = random.Random(17)
    rows = list(SQUARE.inequalities) + [((1, 1), 0), ((-1, 1), -1)]
    base = h_to_v(HPolyhedron(dim=2, inequalities=tuple(rows)))
    for _ in range(6):
        rng.shuffle(rows)
        again = h_to_v(HPolyhedron(dim=2, inequalities=tuple(rows)))
        assert again.vertices == base.vertices
        assert again.rays == base.rays
        assert again == base


def test_round_trip_random_h_polyhedra():
    rng = random.Random(23)
    for _ in range(30):
        dim = rng.randrange(1, 4)
        m = rng.randrange(1, 6)
        ineqs = tuple(
            (tuple(rng.randrange(-3, 4) for _ in range(dim)), rng.randrange(-3, 4))
            for _ in range(m)
        )
        ineqs = tuple((c, b) for c, b in ineqs if any(c))
        if not ineqs:
            continue
        h1 = HPolyhedron(dim=dim, inequalities=ineqs)
        if _dense_lineality_of_h(h1):
            with internal_error("not pointed"):
                h_to_v(h1)
            continue
        v1 = h_to_v(h1)
        if v1.is_empty:
            continue
        if _dense_lineality_of_v(v1):
            with internal_error("not pointed"):
                v_to_h(v1)
            continue
        h2 = v_to_h(v1)
        v2 = h_to_v(h2)
        assert set(v1.vertices) == set(v2.vertices)
        assert set(v1.rays) == set(v2.rays)
        assert v1 == v2


def test_cone_double_description_orthant():
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rays = cone_double_description(units, [], 3)
    assert set(rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert (rays, []) == cone_double_description_dense(units, [], 3)


def test_cone_double_description_with_equation():
    # slice the orthant with x + y + z = 0: only the origin survives
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rays = cone_double_description(units, [(1, 1, 1)], 3)
    assert rays == [] or all(all(x == 0 for x in r) for r in rays)
    assert (rays, []) == cone_double_description_dense(units, [(1, 1, 1)], 3)


def test_project_triangle_to_axis():
    tri = VPolyhedron(dim=2, vertices=((0, 0), (2, 0), (0, 2)))
    seg = project(tri, [(1, 0)])
    assert set(seg.vertices) == {(0,), (2,)}
    assert seg.rays == ()


def test_project_orthant_sum():
    orth = h_to_v(ORTHANT_2)
    img = project(orth, [(1, 1)])
    assert set(img.vertices) == {(0,)}
    assert set(img.rays) == {(1,)}


def _fraction_image(v, rows):
    """Reference image of a V-description computed in Fraction arithmetic.

    Returns None when the dense reference finds the image lower-dimensional
    or with lineality, where project must raise ModuliError.
    """
    pts = {
        tuple(sum((Fraction(a) * Fraction(x) for a, x in zip(row, vert)), Fraction(0))
              for row in rows)
        for vert in v.vertices
    }
    rays = set()
    for ray in v.rays:
        img = [sum(a * x for a, x in zip(row, ray)) for row in rows]
        if any(img):
            g = math.gcd(*img)
            rays.add(tuple(x // g for x in img))
    raw = VPolyhedron(dim=len(rows), vertices=tuple(sorted(pts)), rays=tuple(sorted(rays)))
    if _dense_lineality_of_v(raw):
        return None
    # The facets of the image cut out its homogenization; lineality there
    # means the image is not pointed.
    facets, _ = cone_double_description_dense(_generator_rows(raw), [], raw.dim + 1)
    if cone_double_description_dense(facets, [], raw.dim + 1)[1]:
        return None
    return h_to_v(v_to_h(raw))


def _assert_project_matches_fraction_image(v, rows):
    reference = _fraction_image(v, rows)
    if reference is None:
        with internal_error("not pointed"):
            project(v, rows)
    else:
        assert project(v, rows) == reference


def test_project_mixed_denominators_matches_fraction_image():
    h, t = Fraction(1, 2), Fraction(2, 3)
    v = VPolyhedron(
        dim=3,
        vertices=(
            (h, t, 0),
            (-h, 2, -t),
            (1, -1, 3),
            (-3, h, -t),
            (Fraction(5, 2), Fraction(-4, 3), 1),
            (0, 0, 0),
            (2 * h, -2 * t, Fraction(-7, 6)),
            (2, Fraction(-5, 6), 1),
        ),
        rays=((1, 0, 0),),
    )
    rows = [(1, 1, 0), (2, 0, -3), (1, 1, 0)]
    # The equal first and last rows put the image in a plane: it must raise.
    assert _fraction_image(v, rows) is None
    _assert_project_matches_fraction_image(v, rows)
    # (1/2, 2/3, 0) and (2, -5/6, 1) share the image (7/6, 1, 7/6).
    images = [tuple(sum(a * x for a, x in zip(row, vert)) for row in rows) for vert in v.vertices]
    assert len(set(images)) < len(images)
    collapsed = project(v, [(1, 1, 0)])
    assert collapsed == _fraction_image(v, [(1, 1, 0)])


def test_project_random_rational_points_match_fraction_image():
    rng = random.Random(5)
    for _ in range(40):
        dim = rng.randint(1, 4)
        verts = tuple(
            tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 6))) for _ in range(dim))
            for _ in range(rng.randint(1, 8))
        )
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 3))]
        v = VPolyhedron(dim=dim, vertices=verts)
        _assert_project_matches_fraction_image(v, rows)


@st.composite
def projection_cases(draw):
    """A V-description in dimension m + extra and the map [I_m | C] onto its first m coordinates.

    Points are all ints or all Fractions with mixed denominators, and
    include duplicates, ties in single coordinates and points dominating
    others; the rays contain every unit vector of the image or not, as drawn,
    and a drawn lineality direction l enters as the two rays l and -l.
    """
    m = draw(st.integers(1, 4))
    extra = draw(st.integers(0, 2))
    n = m + extra
    if draw(st.booleans()):
        coord, bumps = st.integers(-4, 4), (0, 0, 1, 3)
    else:
        coord = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 6)))
        bumps = (0, 0, 1, Fraction(1, 2), 3)
    base = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=6))
    pts = list(base)
    for src, bump in draw(st.lists(st.tuples(st.integers(0, 10), st.tuples(
            *[st.sampled_from(bumps)] * n)), max_size=6)):
        pts.append(tuple(x + y for x, y in zip(base[src % len(base)], bump)))
    pts += draw(st.lists(st.sampled_from(base), max_size=3))
    rows = [tuple(1 if j == i else 0 for j in range(m)) + draw(
        st.tuples(*[st.integers(-2, 2)] * extra)) for i in range(m)]
    units = draw(st.booleans())
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(m)] if units else []
    rays += draw(st.lists(st.tuples(*[st.integers(-1, 2)] * n).filter(any), max_size=3))
    lin = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * n).filter(any), max_size=1))
    rays += [tuple(s * x for x in l) for l in lin for s in (1, -1)]
    v = VPolyhedron(dim=n, vertices=tuple(pts), rays=tuple(rays))
    return v, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(projection_cases())
def test_project_matches_unpruned_image(case):
    v, rows = case
    _assert_project_matches_fraction_image(v, rows)


def test_project_keeps_dominating_points_without_every_unit_ray():
    # Only e_1 recedes, so (1, 1) dominates (0, 0) without being redundant:
    # dropping it would turn the strip into a half-line.
    v = VPolyhedron(dim=2, vertices=((0, 0), (1, 1)), rays=((1, 0),))
    img = project(v, [(1, 0), (0, 1)])
    assert img == _fraction_image(v, [(1, 0), (0, 1)])
    assert img.vertices == ((0, 0), (1, 1))
    pruned = VPolyhedron(dim=2, vertices=((0, 0),), rays=((1, 0),))
    assert img != pruned
    # The half-line is lower-dimensional, so it has no H-description here.
    assert _dense_lineality_of_v(pruned)
    with internal_error("not pointed"):
        v_to_h(pruned)
    # With both unit rays, (1, 1) is redundant and the image is the orthant.
    both = VPolyhedron(dim=2, vertices=v.vertices, rays=((0, 1), (1, 0)))
    assert project(both, [(1, 0), (0, 1)]) == h_to_v(ORTHANT_2)


@st.composite
def pointed_row_sets(draw):
    """Full-rank integer rows with repeated, parallel and concurrent rows mixed in."""
    d = draw(st.integers(2, 5))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.tuples(*[entry] * d), min_size=d, max_size=8))
    # rows through one common ray v: a . v == 0 after fixing one coordinate
    v = draw(st.tuples(*[st.integers(-1, 1)] * d).filter(any))
    pivot = next(i for i, x in enumerate(v) if x)
    for a in draw(st.lists(st.tuples(*[entry] * d), max_size=4)):
        a = list(a)
        a[pivot] -= v[pivot] * sum(x * y for x, y in zip(a, v))
        rows.append(tuple(a))
    for src, mult in draw(st.lists(st.tuples(st.integers(0, 20), st.sampled_from((1, 1, 2, 3, -1))),
                                   max_size=3)):
        rows.append(tuple(mult * x for x in rows[src % len(rows)]))
    rows = draw(st.permutations(rows))[:10]
    assume(int_rank(rows) == d)
    return rows, d


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pointed_row_sets())
def test_pointed_dd_matches_scan_reference(case):
    rows, d = case
    rays = _pointed_dd(rows, d)
    assert rays == pointed_dd_scan(rows, d)
    assert len(set(rays)) == len(rays)
    for ray in rays:
        dots = [sum(a * x for a, x in zip(row, ray)) for row in rows]
        assert all(s >= 0 for s in dots)
        assert int_rank([row for row, s in zip(rows, dots) if s == 0]) == d - 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=3),
            st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=7),
        )
    )
)
def test_greedy_basis_matches_rank_scan(case):
    base, rows = case
    past_base = [i - len(base) for i in independent_rows([*base, *rows]) if i >= len(base)]

    def rank(vectors):
        # Gaussian elimination over Q, independent of the package's echelon pass.
        work = [[Fraction(x) for x in v] for v in vectors]
        r = 0
        for c in range(len(work[0]) if work else 0):
            piv = next((i for i in range(r, len(work)) if work[i][c]), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            for i in range(r + 1, len(work)):
                f = work[i][c] / work[r][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            r += 1
        return r

    expected = []
    chosen = list(base)
    for idx, row in enumerate(rows):
        if rank(chosen + [row]) > rank(chosen):
            expected.append(idx)
            chosen.append(row)
    assert past_base == expected


def _lifted_dd_calls(monkeypatch, r, weights, theta=None):
    """The (rows, d) arguments _pointed_dd receives while h_to_v runs on a lifted cone."""
    from mckay_moduli import (
        build_group,
        build_quiver,
        ghilb_parameter,
        lifted_flow_polyhedron,
        stability_parameter,
    )

    q = build_quiver(build_group([r], [weights]))
    integral = ghilb_parameter(q) if theta is None else stability_parameter(q, theta)
    h = lifted_flow_polyhedron(q, integral)
    calls = []

    def recording(rows, d):
        rows = [tuple(row) for row in rows]
        rays = _pointed_dd(rows, d)
        calls.append((rows, d, list(rays)))
        return rays

    monkeypatch.setattr(polyhedra, "_pointed_dd", recording)
    h_to_v(h)
    monkeypatch.undo()
    assert calls
    return calls


@pytest.mark.parametrize(
    "r, weights, theta",
    [
        (7, [1, 2, 4], None),
        (8, [1, 2, 5], None),
        (7, [1, 2, 4], generic_theta(random.Random(1), 7)),
        (7, [1, 2, 4], generic_theta(random.Random(2), 7)),
    ],
)
def test_pointed_dd_matches_scan_reference_on_lifted_cones(monkeypatch, r, weights, theta):
    for rows, d, rays in _lifted_dd_calls(monkeypatch, r, weights, theta):
        assert rays == pointed_dd_scan(rows, d)
        # The cone mixes non-degenerate rays (d - 1 tight rows) and degenerate ones.
        tight = [sum(1 for row in rows if sum(a * x for a, x in zip(row, ray)) == 0) for ray in rays]
        assert min(tight) == d - 1 < max(tight)


# normal_fan reads each vertex's tight rows off its slacks, and checks the
# points and rays of v against every row on the way.
def test_vertex_facet_incidence_square():
    fan = normal_fan(SQUARE, h_to_v(SQUARE))
    by_vertex = {tuple(p): c for p, c in zip(fan.vertices, fan.cones)}
    assert by_vertex[(0, 0)] == (0, 1)
    assert by_vertex[(1, 0)] == (1, 2)
    assert by_vertex[(0, 1)] == (0, 3)
    assert by_vertex[(1, 1)] == (2, 3)


def test_vertex_facet_incidence_rejects_outside_point():
    fake = VPolyhedron(dim=2, vertices=((2, 2),))
    with pytest.raises(CertificateError, match="vertex violates an inequality"):
        normal_fan(SQUARE, fake)


def test_vertex_facet_incidence_rejects_outside_ray():
    fake = VPolyhedron(dim=2, vertices=((0, 0),), rays=((1, 0),))
    with pytest.raises(CertificateError, match="ray violates an inequality"):
        normal_fan(SQUARE, fake)


def test_vertex_facet_incidence_rejects_equations():
    line = HPolyhedron(dim=2, inequalities=(((0, 1), 0),), equations=(((1, 0), 0),))
    v = VPolyhedron(dim=2, vertices=((0, 0),), rays=((0, 1),))
    with internal_error("full-dimensional"):
        normal_fan(line, v)


def test_normal_fan_rejects_another_dimension():
    with internal_error("dimension mismatch"):
        normal_fan(SQUARE, VPolyhedron(dim=3, vertices=((0, 0, 0),)))


def test_normal_fan_rejects_a_vertex_that_is_not_basic():
    v = h_to_v(SQUARE)
    midpoint = VPolyhedron(dim=2, vertices=v.vertices + ((Fraction(1, 2), 0),), rays=v.rays)
    assert normal_fan(SQUARE, midpoint) == normal_fan(SQUARE, v)


CUBE = HPolyhedron(
    dim=3,
    inequalities=(
        ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
        ((-1, 0, 0), -1), ((0, -1, 0), -1), ((0, 0, -1), -1),
    ),
)


# In the plane a dropped vertex leaves both its edges with one vertex, so
# check (b) catches it; in the cube each facet keeps three vertices and
# check (c) catches it.
@pytest.mark.parametrize("h,vert,message", [
    (SQUARE, (0, 0), "row (1, 0) >= 0 is not a facet"),
    (SQUARE, (1, 1), "row (-1, 0) >= -1 is not a facet"),
    (CUBE, (1, 1, 1), "edge (1, 0, 0) at vertex (0, 1, 1) ends at no returned vertex"),
    (CUBE, (0, 0, 0), "edge (0, 0, -1) at vertex (0, 0, 1) ends at no returned vertex"),
])
def test_normal_fan_rejects_a_dropped_vertex(h, vert, message):
    v = h_to_v(h)
    short = v._replace(vertices=tuple(p for p in v.vertices if p != vert))
    assert normal_fan_under_optimize(h, short) == f"raised False CertificateError {message}"


def test_normal_fan_of_a_fractional_triangle():
    h = HPolyhedron(dim=2, inequalities=(((1, 0), 0), ((0, 1), 0), ((-2, -2), -1)))
    fan = normal_fan(h, h_to_v(h))
    assert fan.vertices == ((0, 0), (0, Fraction(1, 2)), (Fraction(1, 2), 0))
    assert fan.cones == ((0, 1), (0, 2), (1, 2))


def test_normal_fan_of_a_segment():
    # In dimension 1 an edge lies on no tight row, so it may end at any vertex.
    h = HPolyhedron(dim=1, inequalities=(((1,), 0), ((-1,), -1)))
    fan = normal_fan(h, h_to_v(h))
    assert fan.vertices == ((0,), (1,))
    assert fan.cones == ((0,), (1,))


def test_normal_fan_rejects_a_dropped_vertex_behind_duplicates():
    # Each neighbour of the dropped vertex is listed twice, so each edge
    # towards it meets a copy of its own start.
    v = h_to_v(CUBE)
    near = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    short = v._replace(vertices=tuple(p for p in v.vertices if p != (1, 1, 1)) + near)
    message = "edge (1, 0, 0) at vertex (0, 1, 1) ends at no returned vertex"
    assert normal_fan_under_optimize(CUBE, short) == f"raised False CertificateError {message}"


def test_normal_fan_rejects_a_redundant_row():
    h = SQUARE._replace(inequalities=SQUARE.inequalities + (((1, 0), -1),))
    assert normal_fan_under_optimize(h, h_to_v(SQUARE)) == (
        "raised False CertificateError row (1, 0) >= -1 is not a facet"
    )


@pytest.mark.parametrize("ray,message", [
    ((1, 0), "row (0, 1) >= 1 is not a facet"),
    ((0, 1), "row (1, 0) >= 1 is not a facet"),
])
def test_normal_fan_rejects_a_missing_ray(ray, message):
    h = HPolyhedron(dim=2, inequalities=(((1, 0), 1), ((0, 1), 1)))
    v = h_to_v(h)
    short = v._replace(rays=tuple(e for e in v.rays if e != ray))
    assert normal_fan_under_optimize(h, short) == f"raised False CertificateError {message}"


def test_h_polyhedron_validates_row_lengths():
    with internal_error("row length does not match dimension"):
        HPolyhedron(dim=2, inequalities=(((1,), 0),))


def cone_rays(fan, cone):
    """The set of rays of fan that span cone, a tuple of indices into fan.rays."""
    return frozenset(fan.rays[i] for i in cone)


def test_normal_fan_orthant():
    v = h_to_v(ORTHANT_2)
    fan = normal_fan(ORTHANT_2, v)
    assert set(fan.rays) == {(1, 0), (0, 1)}
    assert len(fan.cones) == len(v.vertices) == 1
    assert fan.cones[0] == (0, 1)


def test_normal_fan_square():
    v = h_to_v(SQUARE)
    fan = normal_fan(SQUARE, v)
    assert len(fan.cones) == len(v.vertices) == 4
    rays_of = {cone_rays(fan, cone) for cone in fan.cones}
    assert rays_of == {
        frozenset({(1, 0), (0, 1)}),
        frozenset({(0, 1), (-1, 0)}),
        frozenset({(1, 0), (0, -1)}),
        frozenset({(-1, 0), (0, -1)}),
    }


def test_normal_fan_translated_orthant():
    h = HPolyhedron(dim=2, inequalities=(((1, 0), 1), ((0, 1), 1)))
    v = h_to_v(h)
    fan = normal_fan(h, v)
    assert len(fan.cones) == len(v.vertices) == 1
    assert set(fan.rec_rays) == {(1, 0), (0, 1)}


def test_normal_fan_rejects_lineality():
    half = HPolyhedron(dim=2, inequalities=(((1, 0), 0),))
    with internal_error("^cone is not pointed$"):
        normal_fan(half, h_to_v(half))


def test_locate_cone_square():
    v = h_to_v(SQUARE)
    fan = normal_fan(SQUARE, v)
    assert cone_rays(fan, locate_cone(fan, (1, 1))) == {(1, 0), (0, 1)}
    assert cone_rays(fan, locate_cone(fan, (1, 0))) == {(1, 0)}
    assert locate_cone(fan, (0, 0)) == ()


def test_locate_cone_unbounded_support():
    h = HPolyhedron(dim=2, inequalities=(((1, 0), 1), ((0, 1), 1)))
    fan = normal_fan(h, h_to_v(h))
    assert cone_rays(fan, locate_cone(fan, (3, 2))) == {(1, 0), (0, 1)}
    assert cone_rays(fan, locate_cone(fan, (0, 1))) == {(0, 1)}
    assert locate_cone(fan, (0, 0)) == ()
    with pytest.raises(InputError, match="^vector is negative on a recession direction$"):
        locate_cone(fan, (-1, 0))


def test_locate_cone_scaling_stability():
    v = h_to_v(SQUARE)
    fan = normal_fan(SQUARE, v)
    rng = random.Random(31)
    for _ in range(25):
        w = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        cone = locate_cone(fan, w)
        scaled = locate_cone(fan, (Fraction(5, 3) * w[0], Fraction(5, 3) * w[1]))
        assert cone == scaled


def test_locate_cone_rejects_wrong_length():
    fan = normal_fan(SQUARE, h_to_v(SQUARE))
    for w in ((1,), (1, 1, -5)):
        with pytest.raises(InputError, match=f"^vector has length {len(w)}, expected 2$"):
            locate_cone(fan, w)


def test_fan_cone_lookup():
    v = h_to_v(SQUARE)
    fan = normal_fan(SQUARE, v)
    for cone, (x, y) in zip(fan.cones, v.vertices, strict=True):
        tight = [i for i, ((a, b), c) in enumerate(SQUARE.inequalities) if a * x + b * y == c]
        assert cone == tuple(tight)


def _theta_case(orders, weights, theta=None):
    q = build_quiver(build_group(orders, weights))
    tp = theta_polyhedron(q, ghilb_parameter(q) if theta is None else theta)
    return tp.h, tp.v


def _h_case(h):
    return h, h_to_v(h)


# (builder of matching (h, v), number of cones of the normal fan, zero cone included)
FACE_CASES = {
    "square": (lambda: _h_case(SQUARE), 9),
    "orthant": (lambda: _h_case(ORTHANT_2), 4),
    "translated-orthant": (
        lambda: _h_case(HPolyhedron(dim=2, inequalities=(((1, 0), 1), ((0, 1), 1)))),
        4,
    ),
    "golden-1/11(1,2,8)": (
        lambda: _theta_case(golden.EXAMPLE_ORDERS, golden.EXAMPLE_WEIGHTS, golden.EXAMPLE_THETA),
        38,
    ),
    "ghilb-1/7(1,2,4)": (lambda: _theta_case([7], [[1, 2, 4]]), 26),
    "ghilb-1/13(1,3,9)": (lambda: _theta_case([13], [[1, 3, 9]]), 44),
    "generic-1/13(1,3,9)": (
        lambda: _theta_case([13], [[1, 3, 9]], tuple(map(int, golden.GENERIC_13.split(",")))),
        44,
    ),
    "ghilb-2x2:1,0,1;0,1,1": (lambda: _theta_case([2, 2], [[1, 0, 1], [0, 1, 1]]), 20),
}


@pytest.mark.parametrize("case", FACE_CASES)
def test_locate_cone_finds_every_face_cone(case):
    build, count = FACE_CASES[case]
    h, v = build()
    fan = normal_fan(h, v)
    faces = face_cones(h, v)
    assert len(faces) == count
    for cone in faces.values():
        # The sum of a cone's rays lies in its relative interior.
        w = tuple(sum(col) for col in zip(*(fan.rays[i] for i in cone))) if cone else (0,) * h.dim
        assert locate_cone(fan, w) == cone


def test_precondition_failures_are_internal_errors():
    with internal_error("not pointed"):
        _pointed_dd([(1, 0), (2, 0)], 2)
    with internal_error("empty"):
        v_to_h(VPolyhedron(dim=2, vertices=()))
    half = HPolyhedron(dim=2, inequalities=(((1, 0), 0),))
    with internal_error("pointed"):
        normal_fan(half, h_to_v(half))
    with internal_error("nonempty"):
        normal_fan(SQUARE, VPolyhedron(dim=2, vertices=()))
    ray = HPolyhedron(dim=2, inequalities=(((1, 0), 0),), equations=(((0, 1), 0),))
    with internal_error("full-dimensional"):
        normal_fan(ray, h_to_v(ray))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def rational_h_polyhedra(draw):
    """Small H-descriptions with rational data, so some vertices are fractional."""
    d = draw(st.integers(1, 3))
    row = st.tuples(st.tuples(*[st.integers(-3, 3)] * d), rationals)
    ineqs = draw(st.lists(row, max_size=6))
    eqs = draw(st.lists(row, max_size=1))
    return HPolyhedron(dim=d, inequalities=tuple(ineqs), equations=tuple(eqs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rational_h_polyhedra())
def test_h_to_v_vertices_match_fraction_reference(h):
    if _dense_lineality_of_h(h):
        with internal_error("not pointed"):
            h_to_v(h)
        return
    v = h_to_v(h)
    ineq_rows = [(0,) * h.dim + (1,)] + _homogenized_rows(h.inequalities)
    rays = cone_double_description(ineq_rows, _homogenized_rows(h.equations), h.dim + 1)
    reference = sorted(tuple(Fraction(x, z[-1]) for x in z[:-1]) for z in rays if z[-1] > 0)
    assert list(v.vertices) == reference
    for vert in v.vertices:
        integral = all(Fraction(x).denominator == 1 for x in vert)
        assert all(type(x) is int for x in vert) == integral
        assert integral or all(type(x) is Fraction for x in vert)
    if v.is_empty:
        return
    as_fractions = VPolyhedron(dim=v.dim, vertices=tuple(reference), rays=v.rays)
    assert v == as_fractions and hash(v) == hash(as_fractions)
    if _dense_lineality_of_v(v):
        for lower in (v, as_fractions):
            with internal_error("not pointed"):
                v_to_h(lower)
        return
    h2 = v_to_h(v)
    assert v_to_h(as_fractions) == h2
    assert v_to_h(h_to_v(h2)) == h2


@st.composite
def cone_row_sets(draw):
    """Integer inequality rows plus equation rows, in dimensions 2 to 6."""
    dim = draw(st.integers(2, 6))
    entry = st.integers(-2, 2)
    ineqs = draw(st.lists(st.tuples(*[entry] * dim), max_size=8))
    eqs = draw(st.lists(st.tuples(*[entry] * dim), max_size=3))
    return ineqs, eqs, dim


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cone_row_sets())
def test_cone_double_description_matches_dense_reference(case):
    ineqs, eqs, dim = case
    dense_rays, lineality = cone_double_description_dense(ineqs, eqs, dim)
    if lineality:
        with internal_error("not pointed"):
            cone_double_description(ineqs, eqs, dim)
        return
    rays = cone_double_description(ineqs, eqs, dim)
    assert rays == dense_rays
    for ray in rays:
        assert all(sum(a * x for a, x in zip(row, ray)) == 0 for row in eqs)
        assert all(sum(a * x for a, x in zip(row, ray)) >= 0 for row in ineqs)


def test_cone_double_description_lifted_cone_matches_dense_reference():
    from mckay_moduli import build_group, build_quiver, ghilb_parameter, lifted_flow_polyhedron

    q = build_quiver(build_group([7], [[1, 2, 4]]))
    h = lifted_flow_polyhedron(q, ghilb_parameter(q))
    ineqs = [(0,) * h.dim + (1,)] + _homogenized_rows(h.inequalities)
    eqs = _homogenized_rows(h.equations)
    assert len(kernel_basis(eqs)) < h.dim
    rays = cone_double_description(ineqs, eqs, h.dim + 1)
    assert len(rays) > 100
    assert (rays, []) == cone_double_description_dense(ineqs, eqs, h.dim + 1)

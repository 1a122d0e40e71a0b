import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dd_oracle import pointed_dd_scan

from mckay_moduli import (
    HPolyhedron,
    MismatchedDescriptions,
    OutsideSupport,
    VPolyhedron,
    h_to_v,
    locate_cone,
    normal_fan,
    project,
    v_to_h,
    vertex_facet_incidence,
)
from mckay_moduli.intlinalg import int_rank
from mckay_moduli.polyhedra import _pointed_dd, cone_double_description

ORTHANT_2 = HPolyhedron(dim=2, inequalities=(((1, 0), 0), ((0, 1), 0)))
SQUARE = HPolyhedron(
    dim=2,
    inequalities=(((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)),
)
TRIANGLE = VPolyhedron(dim=2, vertices=((0, 0), (1, 0), (0, 1)))


def test_h_to_v_orthant():
    v = h_to_v(ORTHANT_2)
    assert set(v.vertices) == {(0, 0)}
    assert set(v.rays) == {(1, 0), (0, 1)}
    assert v.lineality == ()


def test_h_to_v_square():
    v = h_to_v(SQUARE)
    assert set(v.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert v.rays == ()


def test_h_to_v_empty():
    empty = HPolyhedron(dim=1, inequalities=(((1,), 1), ((-1,), 0)))
    v = h_to_v(empty)
    assert v.is_empty
    assert v.vertices == () and v.rays == () and v.lineality == ()


def test_h_to_v_halfspace_has_lineality():
    half = HPolyhedron(dim=2, inequalities=(((1, 0), 0),))
    v = h_to_v(half)
    assert set(v.vertices) == {(0, 0)}
    assert set(v.rays) == {(1, 0)}
    assert [tuple(l) for l in v.lineality] == [(0, 1)]


def test_h_to_v_whole_space():
    v = h_to_v(HPolyhedron(dim=2, inequalities=()))
    assert set(v.vertices) == {(0, 0)}
    assert v.rays == ()
    assert len(v.lineality) == 2


def test_h_to_v_equations_only_point():
    point = HPolyhedron(
        dim=2, inequalities=(), equations=(((1, 0), 2), ((0, 1), 3))
    )
    v = h_to_v(point)
    assert v.vertices == ((2, 3),)
    assert v.rays == () and v.lineality == ()


def test_v_to_h_triangle():
    h = v_to_h(TRIANGLE)
    assert h.equations == ()
    assert set(h.inequalities) == {((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)}


def test_v_to_h_single_point():
    h = v_to_h(VPolyhedron(dim=2, vertices=((1, 2),)))
    assert h.inequalities == ()
    assert set(h.equations) == {((1, 0), 1), ((0, 1), 2)}


def test_v_to_h_rejects_empty():
    with pytest.raises(ValueError):
        v_to_h(VPolyhedron(dim=2, vertices=()))


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
        assert again.lineality == base.lineality


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
        v1 = h_to_v(HPolyhedron(dim=dim, inequalities=ineqs))
        if v1.is_empty:
            continue
        h2 = v_to_h(v1)
        v2 = h_to_v(h2)
        assert set(v1.vertices) == set(v2.vertices)
        assert set(v1.rays) == set(v2.rays)
        assert v1.lineality == v2.lineality


def test_cone_double_description_orthant():
    rays, lin = cone_double_description([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [], 3)
    assert set(rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert lin == []


def test_cone_double_description_with_equation():
    # slice the orthant with x + y + z = 0: only the origin survives
    rays, lin = cone_double_description(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 1, 1)], 3
    )
    assert rays == [] or all(all(x == 0 for x in r) for r in rays)
    assert lin == []


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
    """Reference image of a V-description computed in Fraction arithmetic."""
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
    return h_to_v(v_to_h(raw))


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
    img = project(v, rows)
    assert img == _fraction_image(v, rows)
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
        assert project(v, rows) == _fraction_image(v, rows)


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


def test_vertex_facet_incidence_square():
    v = h_to_v(SQUARE)
    inc = vertex_facet_incidence(SQUARE, v)
    by_vertex = {tuple(p): s for p, s in zip(v.vertices, inc)}
    assert by_vertex[(0, 0)] == frozenset({0, 1})
    assert by_vertex[(1, 0)] == frozenset({1, 2})
    assert by_vertex[(0, 1)] == frozenset({0, 3})
    assert by_vertex[(1, 1)] == frozenset({2, 3})


def test_vertex_facet_incidence_rejects_outside_point():
    fake = VPolyhedron(dim=2, vertices=((2, 2),))
    with pytest.raises(MismatchedDescriptions):
        vertex_facet_incidence(SQUARE, fake)


def test_h_polyhedron_validates_row_lengths():
    with pytest.raises(MismatchedDescriptions):
        HPolyhedron(dim=2, inequalities=(((1,), 0),))


def test_normal_fan_orthant():
    v = h_to_v(ORTHANT_2)
    fan = normal_fan(ORTHANT_2, v)
    assert set(fan.rays) == {(1, 0), (0, 1)}
    assert len(fan.maximal) == 1
    assert fan.maximal[0] == frozenset({0, 1})
    assert frozenset() in fan.cones
    assert len(fan.cones) == 4


def test_normal_fan_square():
    v = h_to_v(SQUARE)
    fan = normal_fan(SQUARE, v)
    assert len(fan.maximal) == 4
    assert len(fan.cones) == 9
    rays_of = {
        frozenset(fan.rays[i] for i in cone) for cone in fan.maximal
    }
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
    assert len(fan.maximal) == 1
    assert len(fan.cones) == 4
    assert set(fan.rec_rays) == {(1, 0), (0, 1)}


def test_normal_fan_rejects_lineality():
    half = HPolyhedron(dim=2, inequalities=(((1, 0), 0),))
    with pytest.raises(ValueError):
        normal_fan(half, h_to_v(half))


def test_locate_cone_square():
    v = h_to_v(SQUARE)
    fan = normal_fan(SQUARE, v)
    at_origin = locate_cone(fan, (1, 1))
    assert set(at_origin.rays) == {(1, 0), (0, 1)}
    on_edge = locate_cone(fan, (1, 0))
    assert set(on_edge.rays) == {(1, 0)}
    zero = locate_cone(fan, (0, 0))
    assert zero.rays == ()
    assert tuple(zero.indices) == ()


def test_locate_cone_unbounded_support():
    h = HPolyhedron(dim=2, inequalities=(((1, 0), 1), ((0, 1), 1)))
    fan = normal_fan(h, h_to_v(h))
    assert set(locate_cone(fan, (3, 2)).rays) == {(1, 0), (0, 1)}
    assert set(locate_cone(fan, (0, 1)).rays) == {(0, 1)}
    assert locate_cone(fan, (0, 0)).rays == ()
    with pytest.raises(OutsideSupport):
        locate_cone(fan, (-1, 0))


def test_locate_cone_scaling_stability():
    v = h_to_v(SQUARE)
    fan = normal_fan(SQUARE, v)
    rng = random.Random(31)
    for _ in range(25):
        w = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        cone = locate_cone(fan, w)
        scaled = locate_cone(fan, (Fraction(5, 3) * w[0], Fraction(5, 3) * w[1]))
        assert cone.indices == scaled.indices


def test_fan_cone_lookup():
    v = h_to_v(SQUARE)
    fan = normal_fan(SQUARE, v)
    for cone_key in fan.cones:
        cone = fan.cone(cone_key)
        assert frozenset(cone.indices) == cone_key

import random
from fractions import Fraction

from conftest import internal_error
from dd_oracle import cone_double_description_dense

from mckay_moduli import HPolyhedron, h_to_v
from mckay_moduli.lp import (
    LinearProgram,
    LpOptimal,
    optimal_face_tight_set,
    simplex_standard,
    solve,
)

SQUARE = HPolyhedron(
    dim=2,
    inequalities=(((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)),
)


def dot(a, b):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


def test_minimize_over_ray():
    lp = LinearProgram(objective=(1,), feasible=HPolyhedron(dim=1, inequalities=(((1,), 0),)))
    res = solve(lp)
    assert isinstance(res, LpOptimal)
    assert res.value == 0
    assert res.point == (0,)


def test_unbounded_objective():
    lp = LinearProgram(objective=(-1,), feasible=HPolyhedron(dim=1, inequalities=(((1,), 0),)))
    with internal_error("^program is unbounded$"):
        solve(lp)


def test_infeasible_certificate():
    h = HPolyhedron(dim=1, inequalities=(((1,), 1), ((-1,), 0)))
    with internal_error("^program is infeasible$"):
        solve(LinearProgram(objective=(0,), feasible=h))


def test_equality_program():
    h = HPolyhedron(
        dim=2,
        inequalities=(((1, 0), 0), ((0, 1), 0)),
        equations=(((1, 1), 1),),
    )
    res = solve(LinearProgram(objective=(1, 1), feasible=h))
    assert isinstance(res, LpOptimal)
    assert res.value == 1
    assert len(res.eq_duals) == 1


def test_fractional_data_is_exact():
    h = HPolyhedron(dim=1, inequalities=(((3,), 1),))
    res = solve(LinearProgram(objective=(1,), feasible=h))
    assert isinstance(res, LpOptimal)
    assert res.value == Fraction(1, 3)
    assert res.point == (Fraction(1, 3),)


def test_duality_certificate_square():
    res = solve(LinearProgram(objective=(2, 3), feasible=SQUARE))
    assert isinstance(res, LpOptimal)
    assert res.value == 0
    lam = res.ineq_duals
    assert all(l >= 0 for l in lam)
    for j in range(2):
        lhs = sum(l * Fraction(c[j]) for l, (c, _) in zip(lam, SQUARE.inequalities))
        assert lhs == Fraction((2, 3)[j])
    assert sum(l * Fraction(b) for l, (_, b) in zip(lam, SQUARE.inequalities)) == res.value


def test_simplex_standard_known_optimum():
    res = simplex_standard([(1, 2, 1, 0), (3, 1, 0, 1)], [4, 6], (-1, -1, 0, 0))
    assert isinstance(res, LpOptimal)
    assert res.value == Fraction(-14, 5)
    assert res.point[:2] == (Fraction(8, 5), Fraction(6, 5))
    # standard-form dual feasibility: cost - y.A >= 0
    y = res.eq_duals
    reduced = [
        Fraction(c) - sum(Fraction(a[j]) * yy for a, yy in zip([(1, 2, 1, 0), (3, 1, 0, 1)], y))
        for j, c in enumerate((-1, -1, 0, 0))
    ]
    assert all(rc >= 0 for rc in reduced)


def test_solve_against_vertex_enumeration():
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        dim = rng.randrange(1, 4)
        m = rng.randrange(1, 6)
        ineqs = tuple(
            (tuple(rng.randrange(-3, 4) for _ in range(dim)), rng.randrange(-2, 3))
            for _ in range(m)
        )
        ineqs = tuple((c, b) for c, b in ineqs if any(c))
        if not ineqs:
            continue
        h = HPolyhedron(dim=dim, inequalities=ineqs)
        obj = tuple(rng.randrange(-3, 4) for _ in range(dim))
        lp = LinearProgram(objective=obj, feasible=h)
        homogenized = [(0,) * dim + (1,)] + [tuple(c) + (-b,) for c, b in ineqs]
        lineality = [l[:-1] for l in cone_double_description_dense(homogenized, [], dim + 1)[1]]
        if lineality:
            # Vertex enumeration refuses lineality; the slice orthogonal to
            # it is pointed, and empty exactly when h is.
            with internal_error("not pointed"):
                h_to_v(h)
            h = HPolyhedron(dim=dim, inequalities=ineqs, equations=tuple((l, 0) for l in lineality))
        v = h_to_v(h)
        if v.is_empty:
            with internal_error("^program is infeasible$"):
                solve(lp)
            continue
        drops = [r for r in v.rays if dot(obj, r) < 0]
        drops += [l for l in lineality if dot(obj, l) != 0]
        if drops:
            with internal_error("^program is unbounded$"):
                solve(lp)
        else:
            res = solve(lp)
            assert isinstance(res, LpOptimal)
            assert res.value == min(dot(obj, p) for p in v.vertices)
        checked += 1
    assert checked >= 30


def test_row_permutation_keeps_value_and_face():
    rng = random.Random(43)
    ineqs = list(SQUARE.inequalities) + [((1, 1), 0), ((2, -1), -2)]
    obj = (1, 2)
    base_res = solve(LinearProgram(objective=obj, feasible=HPolyhedron(dim=2, inequalities=tuple(ineqs))))
    base_sol, base_tight = optimal_face_tight_set(
        LinearProgram(objective=obj, feasible=HPolyhedron(dim=2, inequalities=tuple(ineqs)))
    )
    base_rows = {ineqs[k] for k in base_tight}
    for _ in range(6):
        perm = list(range(len(ineqs)))
        rng.shuffle(perm)
        shuffled = tuple(ineqs[k] for k in perm)
        res = solve(LinearProgram(objective=obj, feasible=HPolyhedron(dim=2, inequalities=shuffled)))
        assert isinstance(res, LpOptimal)
        assert res.value == base_res.value
        _, tight = optimal_face_tight_set(
            LinearProgram(objective=obj, feasible=HPolyhedron(dim=2, inequalities=shuffled))
        )
        assert {shuffled[k] for k in tight} == base_rows


def test_objective_scaling():
    lp = LinearProgram(objective=(2, 3), feasible=SQUARE)
    sol, tight = optimal_face_tight_set(lp)
    scaled = LinearProgram(
        objective=(Fraction(2 * 7, 5), Fraction(3 * 7, 5)), feasible=SQUARE
    )
    sol2, tight2 = optimal_face_tight_set(scaled)
    assert sol2.value == Fraction(7, 5) * sol.value
    assert tight2 == tight


def test_optimal_face_tight_set_square():
    sol, tight = optimal_face_tight_set(LinearProgram(objective=(1, 1), feasible=SQUARE))
    assert sol.value == 0
    assert tight == frozenset({0, 1})

    sol, tight = optimal_face_tight_set(LinearProgram(objective=(1, 0), feasible=SQUARE))
    assert sol.value == 0
    assert tight == frozenset({0})

    sol, tight = optimal_face_tight_set(LinearProgram(objective=(0, 0), feasible=SQUARE))
    assert sol.value == 0
    assert tight == frozenset()


def test_optimal_face_tight_set_with_unbounded_face():
    # minimizing x over the translated orthant leaves y free upward: the
    # optimal face is the vertical edge, tight only on the x-facet
    h = HPolyhedron(dim=2, inequalities=(((1, 0), 1), ((0, 1), 1)))
    sol, tight = optimal_face_tight_set(LinearProgram(objective=(1, 0), feasible=h))
    assert sol.value == 1
    assert tight == frozenset({0})


def test_optimal_face_tight_set_rejects_unbounded():
    lp = LinearProgram(objective=(-1,), feasible=HPolyhedron(dim=1, inequalities=(((1,), 0),)))
    with internal_error("^program is unbounded$"):
        optimal_face_tight_set(lp)


def test_degenerate_vertex():
    # three facets through one optimal vertex; Bland's rule must terminate
    h = HPolyhedron(
        dim=2,
        inequalities=(((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((-1, -1), -2)),
    )
    res = solve(LinearProgram(objective=(1, 1), feasible=h))
    assert isinstance(res, LpOptimal)
    assert res.value == 0
    assert res.point == (0, 0)
    _, tight = optimal_face_tight_set(LinearProgram(objective=(1, 1), feasible=h))
    assert tight == frozenset({0, 1, 2})

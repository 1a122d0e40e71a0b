"""Exact rational linear programming by primal simplex with Bland's rule.

Programs minimize a linear objective over an HPolyhedron.  Every outcome
carries an exact certificate (optimal dual multipliers, an improving ray, or
Farkas multipliers) and the certificate is re-verified in exact arithmetic
before the outcome is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ModuliError
from .polyhedra import HPolyhedron, h_to_v


@dataclass(frozen=True)
class LinearProgram:
    """Minimize objective . x over the feasible HPolyhedron."""

    objective: tuple
    feasible: HPolyhedron


@dataclass(frozen=True)
class LpOptimal:
    """Optimal point with value and dual multipliers.

    ineq_duals are nonnegative, one per inequality row; eq_duals are free,
    one per equation row; together they reconstruct the objective and match
    the optimal value against the right-hand sides.
    """

    point: tuple
    value: Fraction
    ineq_duals: tuple
    eq_duals: tuple


@dataclass(frozen=True)
class LpUnbounded:
    """Feasible point plus a feasible direction with negative objective."""

    point: tuple
    ray: tuple


@dataclass(frozen=True)
class LpInfeasible:
    """Farkas multipliers proving the feasible set empty.

    ineq_mults >= 0 and eq_mults combine the rows to 0 = (positive number).
    """

    ineq_mults: tuple
    eq_mults: tuple


def _pivot(rows, obj, basis, i, j):
    piv = rows[i][j]
    rows[i] = [x / piv for x in rows[i]]
    ri = rows[i]
    for t in range(len(rows)):
        if t != i:
            f = rows[t][j]
            if f:
                rt = rows[t]
                rows[t] = [a - f * b for a, b in zip(rt, ri)]
    f = obj[j]
    if f:
        obj[:] = [a - f * b for a, b in zip(obj, ri)]
    basis[i] = j


def _bland(rows, obj, basis, ncols):
    """Run simplex to optimality or detect an unbounded entering column.

    Only columns < ncols may enter.  Returns None at optimality, else the
    entering column with no positive tableau entry.
    """
    while True:
        enter = None
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            return None
        leave = None
        best = None
        for i in range(len(rows)):
            aij = rows[i][enter]
            if aij > 0:
                ratio = rows[i][-1] / aij
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return enter
        _pivot(rows, obj, basis, leave, enter)


def simplex_standard(a_rows, rhs, cost):
    """Minimize cost . x subject to a_rows . x = rhs, x >= 0.

    Returns one of LpOptimal, LpUnbounded, LpInfeasible.  Duals and Farkas
    multipliers are expressed against the rows as given (eq_duals empty, the
    rows here all being equations is reflected by ineq_duals=()); callers
    embedding inequalities translate them.  For this standard form the dual
    vector y satisfies cost - y . a_rows >= 0 componentwise.
    """
    m = len(a_rows)
    n = len(cost)
    flip = [(-1 if Fraction(rhs[i]) < 0 else 1) for i in range(m)]
    rows = []
    for i in range(m):
        s = flip[i]
        rows.append(
            [Fraction(s * x) for x in a_rows[i]]
            + [Fraction(1) if t == i else Fraction(0) for t in range(m)]
            + [Fraction(s) * Fraction(rhs[i])]
        )
    obj1 = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for row in rows:
        obj1 = [a - b for a, b in zip(obj1, row)]
    basis = [n + i for i in range(m)]
    res = _bland(rows, obj1, basis, n + m)
    assert res is None, "phase one cannot be unbounded"
    if obj1[-1] != 0:
        y = [Fraction(1) - obj1[n + i] for i in range(m)]
        mult = tuple(flip[i] * y[i] for i in range(m))
        out = LpInfeasible(ineq_mults=(), eq_mults=mult)
        combo = [
            sum(mult[i] * Fraction(a_rows[i][j]) for i in range(m)) for j in range(n)
        ]
        assert all(v <= 0 for v in combo)
        assert sum(mult[i] * Fraction(rhs[i]) for i in range(m)) > 0
        return out

    live = list(range(m))
    for i in range(m):
        if basis[i] >= n:
            j = next((t for t in range(n) if rows[i][t] != 0), None)
            if j is not None:
                _pivot(rows, obj1, basis, i, j)
    keep = [i for i in range(m) if basis[i] < n or any(rows[i][:n])]
    for i in range(m):
        if i not in keep:
            assert rows[i][-1] == 0, "inconsistent redundant row"
    rows = [rows[i] for i in keep]
    basis = [basis[i] for i in keep]
    live = [live[i] for i in keep]

    obj2 = [Fraction(c) for c in cost] + [Fraction(0)] * m + [Fraction(0)]
    for i, bi in enumerate(basis):
        f = obj2[bi]
        if f:
            obj2 = [a - f * b for a, b in zip(obj2, rows[i])]
    res = _bland(rows, obj2, basis, n)

    def current_point():
        x = [Fraction(0)] * n
        for i, bi in enumerate(basis):
            if bi < n:
                x[bi] = rows[i][-1]
        return tuple(x)

    if res is None:
        x = current_point()
        y = [Fraction(0)] * m
        for orig in live:
            y[orig] = -obj2[n + orig] * flip[orig]
        value = sum(Fraction(c) * v for c, v in zip(cost, x))
        out = LpOptimal(point=x, value=value, ineq_duals=(), eq_duals=tuple(y))
        for j in range(n):
            red = Fraction(cost[j]) - sum(y[i] * Fraction(a_rows[i][j]) for i in range(m))
            assert red >= 0, "dual infeasibility"
            if x[j] > 0:
                assert red == 0, "complementary slackness violated"
        assert value == sum(y[i] * Fraction(rhs[i]) for i in range(m))
        return out

    enter = res
    x = current_point()
    ray = [Fraction(0)] * n
    ray[enter] = Fraction(1)
    for i, bi in enumerate(basis):
        if bi < n:
            ray[bi] = -rows[i][enter]
    out = LpUnbounded(point=x, ray=tuple(ray))
    assert all(v >= 0 for v in ray)
    for i in range(m):
        assert sum(Fraction(a_rows[i][j]) * ray[j] for j in range(n)) == 0
    assert sum(Fraction(c) * v for c, v in zip(cost, ray)) < 0
    return out


def solve(lp: LinearProgram):
    """Solve min objective . x over an HPolyhedron of free variables.

    Free variables are split into positive and negative parts and each
    inequality gets a surplus variable; the standard-form simplex does the
    rest.  The returned certificates refer to the polyhedron rows as given
    and are verified exactly before returning.
    """
    h = lp.feasible
    d = h.dim
    c = [Fraction(x) for x in lp.objective]
    if len(c) != d:
        raise ValueError("objective length does not match dimension")
    m = len(h.inequalities)
    p = len(h.equations)
    a_rows = []
    rhs = []
    for idx, (coeffs, b) in enumerate(h.inequalities):
        row = [Fraction(x) for x in coeffs]
        srow = row + [-x for x in row] + [
            Fraction(-1) if t == idx else Fraction(0) for t in range(m)
        ]
        a_rows.append(srow)
        rhs.append(Fraction(b))
    for coeffs, f in h.equations:
        row = [Fraction(x) for x in coeffs]
        a_rows.append(row + [-x for x in row] + [Fraction(0)] * m)
        rhs.append(Fraction(f))
    cost = c + [-x for x in c] + [Fraction(0)] * m

    res = simplex_standard(a_rows, rhs, cost)
    if isinstance(res, LpInfeasible):
        y = res.eq_mults
        lam = tuple(y[:m])
        mu = tuple(y[m:])
        out = LpInfeasible(ineq_mults=lam, eq_mults=mu)
        _verify_infeasible(h, out)
        return out

    def back(xstd):
        return tuple(xstd[j] - xstd[d + j] for j in range(d))

    if isinstance(res, LpUnbounded):
        out = LpUnbounded(point=back(res.point), ray=back(res.ray))
        _verify_unbounded(lp, out)
        return out

    y = res.eq_duals
    lam = tuple(y[:m])
    mu = tuple(y[m:])
    out = LpOptimal(point=back(res.point), value=res.value, ineq_duals=lam, eq_duals=mu)
    _verify_optimal(lp, out)
    return out


def _row_value(coeffs, x):
    return sum(Fraction(a) * Fraction(v) for a, v in zip(coeffs, x))


def _check_feasible(h: HPolyhedron, x):
    for coeffs, b in h.inequalities:
        assert _row_value(coeffs, x) >= Fraction(b), "point violates an inequality"
    for coeffs, f in h.equations:
        assert _row_value(coeffs, x) == Fraction(f), "point violates an equation"


def _verify_optimal(lp: LinearProgram, out: LpOptimal):
    h = lp.feasible
    _check_feasible(h, out.point)
    assert all(l >= 0 for l in out.ineq_duals)
    for j in range(h.dim):
        lhs = sum(
            l * Fraction(coeffs[j]) for l, (coeffs, _) in zip(out.ineq_duals, h.inequalities)
        ) + sum(
            mu * Fraction(coeffs[j]) for mu, (coeffs, _) in zip(out.eq_duals, h.equations)
        )
        assert lhs == Fraction(lp.objective[j]), "duals do not reconstruct the objective"
    dual_value = sum(
        l * Fraction(b) for l, (_, b) in zip(out.ineq_duals, h.inequalities)
    ) + sum(mu * Fraction(f) for mu, (_, f) in zip(out.eq_duals, h.equations))
    assert dual_value == out.value, "strong duality gap"
    assert _row_value(lp.objective, out.point) == out.value


def _verify_unbounded(lp: LinearProgram, out: LpUnbounded):
    h = lp.feasible
    _check_feasible(h, out.point)
    for coeffs, _ in h.inequalities:
        assert _row_value(coeffs, out.ray) >= 0
    for coeffs, _ in h.equations:
        assert _row_value(coeffs, out.ray) == 0
    assert _row_value(lp.objective, out.ray) < 0


def _verify_infeasible(h: HPolyhedron, out: LpInfeasible):
    assert all(l >= 0 for l in out.ineq_mults)
    for j in range(h.dim):
        lhs = sum(
            l * Fraction(coeffs[j]) for l, (coeffs, _) in zip(out.ineq_mults, h.inequalities)
        ) + sum(
            mu * Fraction(coeffs[j]) for mu, (coeffs, _) in zip(out.eq_mults, h.equations)
        )
        assert lhs == 0, "multipliers do not cancel"
    rhs = sum(
        l * Fraction(b) for l, (_, b) in zip(out.ineq_mults, h.inequalities)
    ) + sum(mu * Fraction(f) for mu, (_, f) in zip(out.eq_mults, h.equations))
    assert rhs > 0, "multipliers do not certify infeasibility"


def optimal_face_tight_set(lp: LinearProgram):
    """Indices of inequalities tight on the whole optimal face.

    Solves the program, then enumerates the generators of the optimal face
    (the feasible set cut with objective = optimal value); an inequality is
    reported tight exactly when it is tight at every vertex of that face and
    constant along every ray.  The feasible set must be pointed, as h_to_v
    requires.  Returns (optimal outcome, frozenset of tight indices); raises
    ModuliError when the program has no optimum.
    """
    sol = solve(lp)
    if not isinstance(sol, LpOptimal):
        raise ModuliError("program has no finite optimum")
    h = lp.feasible
    face = h_to_v(
        HPolyhedron(
            dim=h.dim,
            inequalities=h.inequalities,
            equations=tuple(h.equations) + ((tuple(lp.objective), sol.value),),
        )
    )
    assert face.vertices, "optimal face lost its optimizer"

    def _dot(coeffs, point):
        return sum(Fraction(c) * Fraction(x) for c, x in zip(coeffs, point))

    tight = set()
    for k, (coeffs, b) in enumerate(h.inequalities):
        if any(_dot(coeffs, p) != Fraction(b) for p in face.vertices):
            continue
        if any(_dot(coeffs, r) != 0 for r in face.rays):
            continue
        tight.add(k)
    return sol, frozenset(tight)

"""Exact rational linear programming by primal simplex with Bland's rule.

Programs minimize a linear objective over an HPolyhedron.  The answer is an
optimum with its dual multipliers, and the duality certificate is re-verified
in exact arithmetic before it is returned.  A program with no optimum raises
ModuliError: "program is infeasible" or "program is unbounded".
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

    Returns the LpOptimal with duals y against the rows as given (eq_duals;
    ineq_duals is empty), so that cost - y . a_rows >= 0 componentwise;
    callers embedding inequalities translate them.  Raises ModuliError when
    the program is infeasible or unbounded.
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
        raise ModuliError("program is infeasible")

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

    obj2 = [Fraction(c) for c in cost] + [Fraction(0)] * m + [Fraction(0)]
    for i, bi in enumerate(basis):
        f = obj2[bi]
        if f:
            obj2 = [a - f * b for a, b in zip(obj2, rows[i])]
    if _bland(rows, obj2, basis, n) is not None:
        raise ModuliError("program is unbounded")
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    y = [Fraction(0)] * m
    for orig in keep:
        y[orig] = -obj2[n + orig] * flip[orig]
    value = sum(Fraction(c) * v for c, v in zip(cost, x))
    for j in range(n):
        red = Fraction(cost[j]) - sum(y[i] * Fraction(a_rows[i][j]) for i in range(m))
        assert red >= 0, "dual infeasibility"
        if x[j] > 0:
            assert red == 0, "complementary slackness violated"
    assert value == sum(y[i] * Fraction(rhs[i]) for i in range(m))
    return LpOptimal(point=tuple(x), value=value, ineq_duals=(), eq_duals=tuple(y))


def solve(lp: LinearProgram):
    """Solve min objective . x over an HPolyhedron of free variables.

    Free variables are split into positive and negative parts and each
    inequality gets a surplus variable; the standard-form simplex does the
    rest.  The returned duals refer to the polyhedron rows as given and are
    verified exactly before returning; ModuliError propagates from the
    simplex when there is no optimum.
    """
    h = lp.feasible
    d = h.dim
    c = [Fraction(x) for x in lp.objective]
    if len(c) != d:
        raise ValueError("objective length does not match dimension")
    m = len(h.inequalities)
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
    y = res.eq_duals
    point = tuple(res.point[j] - res.point[d + j] for j in range(d))
    out = LpOptimal(point=point, value=res.value, ineq_duals=y[:m], eq_duals=y[m:])
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


def optimal_face_tight_set(lp: LinearProgram):
    """Indices of inequalities tight on the whole optimal face.

    Solves the program, then enumerates the generators of the optimal face
    (the feasible set cut with objective = optimal value); an inequality is
    reported tight exactly when it is tight at every vertex of that face and
    constant along every ray.  The feasible set must be pointed, as h_to_v
    requires.  Returns (optimal outcome, frozenset of tight indices); the
    ModuliError of a program with no optimum propagates from solve.
    """
    sol = solve(lp)
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

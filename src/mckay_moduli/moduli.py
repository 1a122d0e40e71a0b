"""Moduli-space toric data for a stability parameter on the quiver of characters.

The central object is the polyhedron of coordinate types of nonnegative flows
routing a stability parameter theta through the quiver.  Its inner-normal fan
is the fan of the toric moduli space; locating a weight vector w in that fan
and inspecting which arrow slacks vanish on the optimal face yields the
distinguished representation attached to (theta, w).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import BadTheta, CertificateError, NegativeW, NotOptimal, TrivialGroup
from .flow import min_cost_flow
from .groups import McKayQuiver, incidence_matrices, theta_decompose
from .lp import LinearProgram, LpOptimal, optimal_face_tight_set, solve
from .polyhedra import (
    Cone,
    Fan,
    HPolyhedron,
    VPolyhedron,
    h_to_v,
    locate_cone,
    normal_fan,
    project,
    v_to_h,
)


@dataclass(frozen=True)
class GitParameter:
    """A rational stability parameter summing to zero over the vertices.

    integral is the primitive integer rescaling multiplier * theta, which all
    polyhedral computations use; the fan does not depend on positive scaling.
    """

    theta: tuple
    integral: tuple
    multiplier: Fraction


def stability_parameter(quiver: McKayQuiver, theta) -> GitParameter:
    """Validate a stability parameter and attach its primitive integer rescaling."""
    if isinstance(theta, GitParameter):
        return theta
    th = tuple(Fraction(x) for x in theta)
    if len(th) != quiver.r:
        raise BadTheta(f"parameter has length {len(th)}, expected {quiver.r}")
    if sum(th) != 0:
        raise BadTheta("parameter entries must sum to zero")
    mult = 1
    for f in th:
        mult = lcm(mult, f.denominator)
    nums = [int(f * mult) for f in th]
    g = 0
    for x in nums:
        g = gcd(g, x)
    if g > 1:
        nums = [x // g for x in nums]
        multiplier = Fraction(mult, g)
    else:
        multiplier = Fraction(mult)
    return GitParameter(theta=th, integral=tuple(nums), multiplier=multiplier)


@dataclass(frozen=True, eq=False)
class ThetaPolyhedron:
    """Both descriptions of the polyhedron of types of flows routing theta."""

    quiver: McKayQuiver
    parameter: GitParameter
    h: HPolyhedron
    v: VPolyhedron


def lifted_flow_polyhedron(quiver: McKayQuiver, integral_theta) -> HPolyhedron:
    """The flow polyhedron {u >= 0 : b * u = theta} in arrow space."""
    inc = incidence_matrices(quiver)
    na = quiver.num_arrows
    ineqs = tuple(
        (tuple(1 if t == k else 0 for t in range(na)), 0) for k in range(na)
    )
    eqs = tuple((row, th) for row, th in zip(inc.b, integral_theta))
    return HPolyhedron(dim=na, inequalities=ineqs, equations=eqs)


def _image_point(quiver: McKayQuiver, u):
    out = [Fraction(0)] * quiver.n
    for k, a in enumerate(quiver.arrows):
        if u[k]:
            out[a.label - 1] += Fraction(u[k])
    return tuple(out)


def _theta_polyhedron_lifted(quiver, param):
    lifted = lifted_flow_polyhedron(quiver, param.integral)
    vlift = h_to_v(lifted)
    inc = incidence_matrices(quiver)
    v = project(vlift, inc.d)
    return v_to_h(v), v


def _theta_polyhedron_oracle(quiver, param):
    """Grow an inner approximation by points until every tentative facet is certified.

    Each candidate facet normal is nonnegative, because the recession cone
    is the orthant, so it is the cost of an exact min-cost flow routing
    theta; either the facet is supporting (minimum equals the offset) or the
    optimal flow projects to a point beyond it, which is added.  A certified
    facet is valid on the polyhedron, so it is never solved again.
    """
    n = quiver.n
    u0 = theta_decompose(quiver, param.integral)
    pts = {_image_point(quiver, u0)}
    units = tuple(tuple(1 if t == i else 0 for t in range(n)) for i in range(n))
    certified = set()
    while True:
        inner = VPolyhedron(
            dim=n, vertices=tuple(sorted(pts)), rays=units, lineality=()
        )
        h = v_to_h(inner)
        assert not h.equations, "inner approximation should be full-dimensional"
        grew = False
        for row in h.inequalities:
            if row in certified:
                continue
            coeffs, rhs = row
            cost = [coeffs[a.label - 1] for a in quiver.arrows]
            u, _, value = min_cost_flow(quiver, param.integral, cost)
            if value > rhs:
                raise CertificateError("flow minimum lies above an inner facet")
            if value < rhs:
                pts.add(_image_point(quiver, u))
                grew = True
            else:
                certified.add(row)
        if not grew:
            return h, h_to_v(h)


def theta_polyhedron(quiver: McKayQuiver, theta, method: str = "oracle") -> ThetaPolyhedron:
    """Compute the type polyhedron of a stability parameter.

    method "oracle" (default) certifies facets with exact min-cost flows
    over the flow polyhedron and never enumerates its vertices; method
    "lifted" enumerates the flow polyhedron first and projects, which is
    exponentially larger but follows the defining construction directly.
    Both give identical canonical descriptions.
    """
    param = stability_parameter(quiver, theta)
    if method == "lifted":
        h, v = _theta_polyhedron_lifted(quiver, param)
    elif method == "oracle":
        h, v = _theta_polyhedron_oracle(quiver, param)
    else:
        raise ValueError(f"unknown method {method!r}")
    units = [tuple(1 if t == i else 0 for t in range(quiver.n)) for i in range(quiver.n)]
    assert list(v.rays) == sorted(units), "recession cone must be the nonnegative orthant"
    return ThetaPolyhedron(quiver=quiver, parameter=param, h=h, v=v)


@dataclass(frozen=True)
class ChartReport:
    """Affine chart data at one vertex of the type polyhedron.

    generators are the nonzero lattice directions q with vertex + q still in
    the polyhedron and |q|_1 <= bound; missing lists the points of the
    tangent cone lattice within the bound that are not nonnegative integer
    combinations of the generators.  An empty missing list certifies the
    chart saturated up to the bound.
    """

    vertex: tuple
    bound: int
    generators: tuple
    missing: tuple

    @property
    def saturated_up_to_bound(self) -> bool:
        return not self.missing


@dataclass(frozen=True, eq=False)
class ThetaFan:
    """Inner-normal fan of the type polyhedron, with optional chart reports."""

    polyhedron: ThetaPolyhedron
    fan: Fan
    charts: tuple | None = None


def _l1_ball(n, bound):
    if n == 0:
        yield ()
        return
    for t in range(-bound, bound + 1):
        for rest in _l1_ball(n - 1, bound - abs(t)):
            yield (t,) + rest


def _chart_report(tp: ThetaPolyhedron, fan: Fan, vidx: int, bound: int) -> ChartReport:
    quiver = tp.quiver
    g = quiver.group
    vert = tp.v.vertices[vidx]
    assert all(x.denominator == 1 for x in map(Fraction, vert))
    m = tuple(int(x) for x in vert)
    tight = sorted(fan.maximal[vidx])
    cone_rows = [tuple(tp.h.inequalities[i][0]) for i in tight]
    gens = []
    extra = []
    for q in _l1_ball(quiver.n, bound):
        if not any(q):
            continue
        if g.deg(q) != g.trivial:
            continue
        if any(sum(a * x for a, x in zip(row, q)) < 0 for row in cone_rows):
            continue
        point = tuple(mi + qi for mi, qi in zip(m, q))
        inside = all(
            sum(a * x for a, x in zip(coeffs, point)) >= rhs
            for coeffs, rhs in tp.h.inequalities
        )
        (gens if inside else extra).append(q)

    gen_set = sorted(gens)
    memo = {(0,) * quiver.n: True}

    def reachable(q):
        if q in memo:
            return memo[q]
        memo[q] = False
        for gvec in gen_set:
            diff = tuple(a - b for a, b in zip(q, gvec))
            if all(sum(a * x for a, x in zip(row, diff)) >= 0 for row in cone_rows):
                if reachable(diff):
                    memo[q] = True
                    break
        return memo[q]

    missing = tuple(q for q in sorted(extra) if not reachable(q))
    return ChartReport(
        vertex=m, bound=bound, generators=tuple(gen_set), missing=missing
    )


def moduli_fan(tp: ThetaPolyhedron, charts_bound: int | None = None) -> ThetaFan:
    """Inner-normal fan of the type polyhedron, optionally with chart reports.

    Ray indices match the inequality order of the H-description; each vertex
    marks one maximal cone.  When charts_bound is given, every maximal cone
    gets a ChartReport with generators and a bounded saturation verdict.
    """
    fan = normal_fan(tp.h, tp.v)
    charts = None
    if charts_bound is not None:
        charts = tuple(
            _chart_report(tp, fan, i, charts_bound) for i in range(len(tp.v.vertices))
        )
    return ThetaFan(polyhedron=tp, fan=fan, charts=charts)


def min_total_flow(quiver: McKayQuiver, theta) -> int:
    """Least total arrow multiplicity of a nonnegative flow routing theta.

    Requires an integral parameter; the optimum is attained at an integer
    flow because the vertex incidence matrix is totally unimodular.
    """
    th = [Fraction(x) for x in theta]
    if len(th) != quiver.r:
        raise BadTheta(f"parameter has length {len(th)}, expected {quiver.r}")
    if any(x.denominator != 1 for x in th):
        raise BadTheta("parameter must be integral")
    if sum(th) != 0:
        raise BadTheta("parameter entries must sum to zero")
    _, _, value = min_cost_flow(quiver, [int(x) for x in th], [1] * quiver.num_arrows)
    return value


def ghilb_parameter(quiver: McKayQuiver) -> GitParameter:
    """The parameter (1 - r, 1, ..., 1) whose moduli space is the orbit Hilbert scheme."""
    if quiver.r == 1:
        raise TrivialGroup("the trivial group admits no such parameter")
    return stability_parameter(quiver, (1 - quiver.r,) + (1,) * (quiver.r - 1))


@dataclass(frozen=True, eq=False)
class DualSlice:
    """Arrow-slack polyhedron of vertex potentials at a fixed weight vector w.

    The polyhedron lives in vertex space; inequality k says that arrow k has
    nonnegative slack w_label + v_head - v_tail.  pinned adds the equation
    v_0 = 0, cutting the lineality line spanned by the all-ones vector.
    """

    quiver: McKayQuiver
    w: tuple
    polyhedron: HPolyhedron
    pinned: HPolyhedron


def dual_slice(quiver: McKayQuiver, w) -> DualSlice:
    """Build the arrow-slack polyhedron for a nonnegative weight vector."""
    wq = tuple(Fraction(x) for x in w)
    if len(wq) != quiver.n:
        raise NegativeW(f"weight vector has length {len(wq)}, expected {quiver.n}")
    if any(x < 0 for x in wq):
        raise NegativeW("weight vector entries must be nonnegative")
    rows = []
    for a in quiver.arrows:
        coeffs = [0] * quiver.r
        coeffs[a.head] += 1
        coeffs[a.tail] -= 1
        rows.append((tuple(coeffs), -wq[a.label - 1]))
    pin = (tuple(1 if t == 0 else 0 for t in range(quiver.r)), 0)
    poly = HPolyhedron(dim=quiver.r, inequalities=tuple(rows))
    pinned = HPolyhedron(dim=quiver.r, inequalities=tuple(rows), equations=(pin,))
    return DualSlice(quiver=quiver, w=wq, polyhedron=poly, pinned=pinned)


@dataclass(frozen=True, eq=False)
class DistinguishedRep:
    """The representation attached to (theta, w): arrows with vanishing slack.

    b has one 0/1 entry per arrow; tight lists the arrow indices with b = 1.
    point is the optimizing potential vector with v_0 = 0 and value the
    optimal objective theta . v.  cone, when located, is the fan cone whose
    relative interior contains w.
    """

    w: tuple
    b: tuple
    tight: frozenset
    point: tuple
    value: Fraction
    mode: str
    cone: Cone | None = None


def _check_relations(quiver: McKayQuiver, b) -> None:
    g = quiver.group
    for h, rho in enumerate(quiver.vertices):
        for i in range(1, quiver.n + 1):
            hi = quiver.vertex_index[g.mul(rho, g.generator(i))]
            for j in range(i + 1, quiver.n + 1):
                hj = quiver.vertex_index[g.mul(rho, g.generator(j))]
                left = b[quiver.arrow_index(hi, j)] * b[quiver.arrow_index(h, i)]
                right = b[quiver.arrow_index(hj, i)] * b[quiver.arrow_index(h, j)]
                assert left == right, "arrow relation violated"


def distinguished_rep(
    quiver: McKayQuiver,
    theta,
    w,
    single_optimizer: bool = False,
    fan=None,
) -> DistinguishedRep:
    """Compute which arrow maps are nonzero in the representation for (theta, w).

    Minimizes theta . v over the pinned arrow-slack polyhedron.  By default
    an arrow is marked nonzero when its slack vanishes on the whole optimal
    face; with single_optimizer=True only the slacks of the one returned
    optimizer are inspected, which can mark extra arrows on degenerate fibers.
    """
    param = stability_parameter(quiver, theta)
    ds = dual_slice(quiver, w)
    lp = LinearProgram(objective=param.theta, feasible=ds.pinned)
    if single_optimizer:
        sol = solve(lp)
        if not isinstance(sol, LpOptimal):
            raise NotOptimal("potential program has no optimum")
        tight = frozenset(
            k
            for k, (coeffs, rhs) in enumerate(ds.pinned.inequalities)
            if sum(Fraction(c) * x for c, x in zip(coeffs, sol.point)) == rhs
        )
        mode = "single"
    else:
        sol, tight = optimal_face_tight_set(lp)
        mode = "face"
    b = tuple(1 if k in tight else 0 for k in range(quiver.num_arrows))
    _check_relations(quiver, b)
    if isinstance(fan, ThetaFan):
        fan = fan.fan
    cone = locate_cone(fan, ds.w) if fan is not None else None
    return DistinguishedRep(
        w=ds.w, b=b, tight=tight, point=sol.point, value=sol.value, mode=mode, cone=cone
    )

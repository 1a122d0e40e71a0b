"""Moduli-space toric data for a stability parameter on the quiver of characters.

The central object is the polyhedron of coordinate types of nonnegative flows
routing a stability parameter theta through the quiver.  Its inner-normal fan
is the fan of the toric moduli space; locating a weight vector w in that fan
and inspecting which arrow slacks vanish on the optimal face yields the
distinguished representation attached to (theta, w).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .errors import CertificateError, InputError, ModuliError
from .flow import min_cost_flow
from .groups import (
    AbelianGroupData,
    McKayQuiver,
    _reachable,
    commutation_squares,
    incidence_matrices,
    integral_theta,
    theta_decompose,
)
from .polyhedra import (
    HPolyhedron,
    VPolyhedron,
    _clear_denominators,
    _dot,
    _unit_rows,
    image_descriptions,
    normal_fan,
    v_to_h,
)


class GitParameter(namedtuple("GitParameter", "theta integral")):
    """A rational stability parameter summing to zero over the vertices.

    integral is the primitive integer vector on the ray of theta, which all
    polyhedral computations use; the fan does not depend on positive scaling.
    """

    __slots__ = ()


def stability_parameter(quiver: McKayQuiver, theta) -> GitParameter:
    """Validate a stability parameter and attach its primitive integer rescaling."""
    if isinstance(theta, GitParameter):
        return theta
    th = tuple(Fraction(x) for x in theta)
    return GitParameter(theta=th, integral=tuple(integral_theta(quiver, _clear_denominators(th))))


class ThetaPolyhedron(namedtuple("ThetaPolyhedron", "quiver h fan charts", defaults=(None,))):
    """The polyhedron of types of flows routing theta: its facets and its certified fan.

    charts holds one ChartReport per maximal cone once moduli_fan has read
    them off, and is None before.
    """

    __slots__ = ()

    @property
    def v(self) -> VPolyhedron:
        return VPolyhedron(self.quiver.n, self.fan.vertices, self.fan.rec_rays)


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
    out = [0] * quiver.n
    for k, a in enumerate(quiver.arrows):
        if u[k]:
            out[a.label - 1] += u[k]
    return tuple(out)


def _theta_polyhedron_oracle(quiver, param):
    """Grow an inner approximation by points until every tentative facet is certified.

    Each candidate facet normal is nonnegative, because the recession cone
    is the orthant, so it is the cost of an exact min-cost flow routing
    theta; either the facet is supporting (minimum equals the offset) or the
    optimal flow projects to a point beyond it, which is added.  A certified
    facet is valid on the polyhedron, so it is never solved again.  Returns
    the certified H-description and the sorted images of the solved flows.
    """
    n = quiver.n
    u0 = theta_decompose(quiver, param.integral)
    pts = {_image_point(quiver, u0)}
    units = tuple(_unit_rows(n))
    certified = set()
    while True:
        h = v_to_h(VPolyhedron(dim=n, vertices=tuple(sorted(pts)), rays=units))
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
            return h, sorted(pts)


def theta_polyhedron(quiver: McKayQuiver, theta, method: str = "oracle") -> ThetaPolyhedron:
    """Compute the type polyhedron of a stability parameter.

    method "oracle" (default) certifies facets with exact min-cost flows
    over the flow polyhedron and never enumerates its vertices; method
    "lifted" enumerates the extreme rays of the homogenized flow cone and
    maps each into type space, which is exponentially larger but follows
    the defining construction directly.  Both close on the points they hold,
    with normal_fan's certificate, and give identical canonical descriptions.
    """
    param = stability_parameter(quiver, theta)
    if method == "lifted":
        d = incidence_matrices(quiver).d
        h, pts = image_descriptions(lifted_flow_polyhedron(quiver, param.integral), d)
    elif method == "oracle":
        h, pts = _theta_polyhedron_oracle(quiver, param)
    else:
        raise ModuliError(f"unknown method {method!r}")
    units = tuple(sorted(_unit_rows(quiver.n)))
    return ThetaPolyhedron(quiver, h, normal_fan(h, VPolyhedron(quiver.n, tuple(pts), units)))


class ChartReport(namedtuple("ChartReport", "vertex bound generators missing")):
    """Affine chart data at one vertex of the type polyhedron.

    generators are the nonzero lattice directions q with vertex + q still in
    the polyhedron and |q|_1 <= bound; missing lists the points of the
    tangent cone lattice within the bound that are not nonnegative integer
    combinations of the generators.  An empty missing list certifies the
    chart saturated up to the bound.
    """

    __slots__ = ()

    @property
    def saturated_up_to_bound(self) -> bool:
        return not self.missing


def _l1_ball(n, bound):
    if n == 0:
        yield ()
        return
    for t in range(-bound, bound + 1):
        for rest in _l1_ball(n - 1, bound - abs(t)):
            yield (t,) + rest


def _invariant_ball(group: AbelianGroupData, bound: int) -> list:
    """Exponent vectors q with |q|_1 <= bound and trivial degree, zero included."""
    trivial = group.trivial
    return [q for q in _l1_ball(group.n, bound) if group.deg(q) == trivial]


def _chart_report(tp: ThetaPolyhedron, vidx: int, bound: int, table: list) -> ChartReport:
    """Chart at vertex vidx, read off table: each nonzero q of the ball with its facet values."""
    vert = tp.fan.vertices[vidx]
    if any(x.denominator != 1 for x in vert):
        raise CertificateError(f"vertex {vidx} of the type polyhedron is not integral")
    m = tuple(int(x) for x in vert)
    slack = [_dot(coeffs, m) - rhs for coeffs, rhs in tp.h.inequalities]
    cone = tp.fan.cones[vidx].indices
    gens = []
    extra = []
    for q, vals in table:
        at = tuple(vals[i] for i in cone)
        if min(at) < 0:
            continue
        inside = all(x >= -s for x, s in zip(vals, slack))
        (gens if inside else extra).append((q, at))

    gens.sort()
    memo = {(0,) * tp.quiver.n: True}

    def reachable(q, at):
        # Depth first over q -> q - g.  at holds q's values on the facets tight
        # at m: q - g is in the tangent cone exactly when no difference of
        # values is negative.  Each stacked point is one step from the one below.
        if q in memo:
            return memo[q]
        stack = [(q, at, iter(gens))]
        while stack:
            p, vals, todo = stack[-1]
            for gvec, gat in todo:
                diff = tuple(a - b for a, b in zip(vals, gat))
                if min(diff) >= 0:
                    nxt = tuple(a - b for a, b in zip(p, gvec))
                    if nxt not in memo:
                        stack.append((nxt, diff, iter(gens)))
                        break
                    if memo[nxt]:
                        memo.update((s[0], True) for s in stack)
                        return True
            else:
                memo[p] = False
                stack.pop()
        return False

    missing = tuple(q for q, at in sorted(extra) if not reachable(q, at))
    return ChartReport(
        vertex=m, bound=bound, generators=tuple(q for q, _ in gens), missing=missing
    )


def moduli_fan(tp: ThetaPolyhedron, charts_bound: int | None = None) -> ThetaPolyhedron:
    """The type polyhedron with its inner-normal fan (tp.fan), optionally with chart reports.

    Ray indices match the inequality order of the H-description; each vertex
    marks one maximal cone.  When charts_bound is given, every maximal cone
    gets a ChartReport with generators and a bounded saturation verdict, in
    the charts field of the returned copy of tp; otherwise tp comes back.
    """
    if charts_bound is None:
        return tp
    table = [
        (q, [_dot(coeffs, q) for coeffs, _ in tp.h.inequalities])
        for q in _invariant_ball(tp.quiver.group, charts_bound)
        if any(q)
    ]
    return tp._replace(
        charts=tuple(_chart_report(tp, i, charts_bound, table) for i in range(len(tp.fan.cones)))
    )


def ghilb_parameter(quiver: McKayQuiver) -> GitParameter:
    """The parameter (1 - r, 1, ..., 1) whose moduli space is the orbit Hilbert scheme."""
    if quiver.r == 1:
        raise InputError("the trivial group admits no such parameter")
    return stability_parameter(quiver, (1 - quiver.r,) + (1,) * (quiver.r - 1))


class DistinguishedRep(namedtuple("DistinguishedRep", "w b tight point value mode")):
    """The representation attached to (theta, w): arrows with vanishing slack.

    b has one 0/1 entry per arrow; tight lists the arrow indices with b = 1.
    point is the greatest optimal potential vector with v_0 = 0 and value the
    optimal objective theta . v.
    """

    __slots__ = ()


def _check_relations(quiver: McKayQuiver, b) -> None:
    for p1, p2, m1, m2 in commutation_squares(quiver):
        if b[p1] * b[p2] != b[m1] * b[m2]:
            raise CertificateError(f"arrow relation fails at vertex {quiver.arrows[p1].head}")


_Arc = namedtuple("_Arc", "tail head length")
_Network = namedtuple("_Network", "r arrows")


def _potential_and_face(quiver: McKayQuiver, cost, u, y, single_optimizer: bool):
    """Greatest V with V_0 = 0, cost_k + V_head - V_tail >= 0, and = 0 where u_k != 0.

    These are difference constraints, so V is the shortest-path distance
    from vertex 0 over arcs head -> tail of length cost_k for every arrow
    and tail -> head of length -cost_k where u_k != 0.  The flow's optimal
    potentials y reduce the length c of each arc x -> z to c + y_z - y_x >= 0,
    and the kernel's shortest-path tree from 0 on those gives V + y - y_0,
    which its certificate proves greatest.  Also returns the arrows of zero
    slack at V; unless single_optimizer, only those whose ends share a
    strongly connected piece of the arcs tight at V.
    """
    arcs = [_Arc(a.head, a.tail, c) for a, c in zip(quiver.arrows, cost)]
    arcs += [_Arc(a.tail, a.head, -c) for a, c, f in zip(quiver.arrows, cost, u) if f]
    reduced = [c + y[z] - y[x] for x, z, c in arcs]
    if any(c < 0 for c in reduced):
        raise CertificateError("the optimal face has no greatest potential")
    theta = (1 - quiver.r,) + (1,) * (quiver.r - 1)
    _, tree, _ = min_cost_flow(_Network(quiver.r, arcs), theta, reduced)
    dist = [t - tree[0] - p + y[0] for t, p in zip(tree, y)]
    piece = [None] * quiver.r
    if not single_optimizer:
        succ, pred = [[] for _ in piece], [[] for _ in piece]
        for x, z, c in arcs:
            if dist[x] + c == dist[z]:
                succ[x].append(z)
                pred[z].append(x)
        for v in range(quiver.r):
            if piece[v] is None:
                for z in _reachable(succ, v) & _reachable(pred, v):
                    piece[z] = v
    return dist, frozenset(
        k for k, a in enumerate(quiver.arrows)
        if cost[k] + dist[a.head] == dist[a.tail] and piece[a.head] == piece[a.tail]
    )


def distinguished_rep(
    quiver: McKayQuiver, theta, w, single_optimizer: bool = False
) -> DistinguishedRep:
    """Compute which arrow maps are nonzero in the representation for (theta, w).

    Minimizes theta . v over the potentials with v_0 = 0 and nonnegative
    arrow slacks w_label + v_head - v_tail.  Its LP dual is the flow routing
    theta at arrow cost w_label, so one exact min-cost flow solves both, and
    a second, on the lengths its potentials reduce, gives the greatest.  By
    default an arrow is marked nonzero when its slack vanishes on the whole
    optimal face, which by strict complementarity (Goldman and Tucker, 1956)
    means some optimal flow uses it: its slack is zero at point, the
    greatest optimal potential, and its ends share a strongly connected
    piece of the zero-slack arrows and the reversed arrows carrying flow.
    With single_optimizer=True every arrow of zero slack at point is
    marked, which can add arrows on degenerate fibers.
    """
    param = stability_parameter(quiver, theta)
    wq = tuple(Fraction(x) for x in w)
    if len(wq) != quiver.n:
        raise InputError(f"weight vector has length {len(wq)}, expected {quiver.n}")
    if any(x < 0 for x in wq):
        raise InputError("weight vector entries must be nonnegative")
    scale = lcm(*(x.denominator for x in wq))
    weights = [int(x * scale) for x in wq]
    cost = [weights[a.label - 1] for a in quiver.arrows]
    u, y, flow_value = min_cost_flow(quiver, param.integral, cost)
    # Complementary slackness: the optimal potentials are tight on u's support.
    dist, tight = _potential_and_face(quiver, cost, u, y, single_optimizer)
    if sum(t * d for t, d in zip(param.integral, dist)) != -flow_value:
        raise CertificateError("the greatest potential is not optimal")
    b = tuple(1 if k in tight else 0 for k in range(quiver.num_arrows))
    _check_relations(quiver, b)
    point = tuple(Fraction(d, scale) for d in dist)
    # theta is a positive multiple of param.integral, whose product with dist is checked above.
    ratio = next((Fraction(t, i) for t, i in zip(param.theta, param.integral) if i), 0)
    value = Fraction(-flow_value, scale) * ratio
    mode = "single" if single_optimizer else "face"
    return DistinguishedRep(w=wq, b=b, tight=tight, point=point, value=value, mode=mode)

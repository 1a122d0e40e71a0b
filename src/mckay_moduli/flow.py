"""Exact min-cost flows on the quiver by successive shortest paths.

Minimizes cost . u over the flow polyhedron {u >= 0 : b * u = theta}, where
column k of b is +1 at head(k) and -1 at tail(k), for nonnegative integer
arrow costs.  Dijkstra runs on reduced costs over the forward arrows, which
are uncapacitated, and over the reverse of every arrow carrying flow; its
distance labels accumulate into vertex potentials y, the optimal dual
(Ahuja, Magnanti and Orlin, Network Flows, 1993, section 9.7).  Everything
is plain int, and every result is returned only after its certificate has
been checked.
"""

import heapq

from .errors import BadTheta, CertificateError, NotOptimal


def check_certificate(quiver, theta, cost, u, y, value) -> None:
    """Raise CertificateError unless flow u and potentials y prove value optimal.

    Checks u >= 0 and b * u = theta (primal feasibility), reduced costs
    cost_k - (y_head - y_tail) >= 0 (dual feasibility), zero reduced cost on
    every arrow with u_k > 0 (complementary slackness) and cost . u =
    theta . y = value (no duality gap).
    """
    arrows = quiver.arrows
    if len(u) != len(arrows) or len(y) != quiver.r:
        raise CertificateError("flow certificate has the wrong shape")
    inflow = [0] * quiver.r
    for k, a in enumerate(arrows):
        if u[k] < 0:
            raise CertificateError(f"negative flow on arrow {k}")
        inflow[a.head] += u[k]
        inflow[a.tail] -= u[k]
        reduced = cost[k] - (y[a.head] - y[a.tail])
        if reduced < 0:
            raise CertificateError(f"negative reduced cost on arrow {k}")
        if u[k] and reduced:
            raise CertificateError(f"complementary slackness fails on arrow {k}")
    if inflow != list(theta):
        raise CertificateError("flow does not route theta")
    if sum(c * f for c, f in zip(cost, u)) != value:
        raise CertificateError("flow cost does not match the value")
    if sum(t * p for t, p in zip(theta, y)) != value:
        raise CertificateError("duality gap between flow and potentials")


def min_cost_flow(quiver, theta, cost):
    """Return (u, y, value): an optimal integer flow, its potentials and cost . u.

    theta is an integer vector summing to zero and cost holds one nonnegative
    integer per arrow.  Raises NotOptimal when no flow routes theta.
    """
    arrows = quiver.arrows
    if len(theta) != quiver.r or any(int(t) != t for t in theta):
        raise BadTheta("flow parameter must be integral, one entry per vertex")
    if len(cost) != len(arrows) or any(int(c) != c or c < 0 for c in cost):
        raise CertificateError("flow costs must be nonnegative integers")
    cost = [int(c) for c in cost]
    theta = [int(t) for t in theta]
    r = quiver.r
    out_arcs = [[] for _ in range(r)]
    in_arcs = [[] for _ in range(r)]
    for k, a in enumerate(arrows):
        out_arcs[a.tail].append(k)
        in_arcs[a.head].append(k)
    u = [0] * len(arrows)
    y = [0] * r
    # excess > 0: flow still to leave the vertex; < 0: flow still to arrive
    excess = [-t for t in theta]
    while any(excess):
        dist = [None] * r
        pred = [None] * r
        heap = [(0, v) for v in range(r) if excess[v] > 0]
        for _, v in heap:
            dist[v] = 0
        target = None
        while heap:
            d, x = heapq.heappop(heap)
            if d > dist[x]:
                continue
            if excess[x] < 0:
                target = x
                break
            steps = [(k, 1, arrows[k].head, cost[k]) for k in out_arcs[x]]
            steps += [(k, -1, arrows[k].tail, -cost[k]) for k in in_arcs[x] if u[k]]
            for k, sign, z, c in steps:
                nd = d + c + y[x] - y[z]
                if dist[z] is None or nd < dist[z]:
                    dist[z] = nd
                    pred[z] = (k, sign)
                    heapq.heappush(heap, (nd, z))
        if target is None:
            raise NotOptimal("no nonnegative flow routes theta")
        # Labels beyond the target are capped at its distance, which keeps
        # every residual reduced cost nonnegative.
        for v in range(r):
            y[v] += d if dist[v] is None else min(dist[v], d)
        path = []
        x = target
        while pred[x] is not None:
            k, sign = pred[x]
            path.append((k, sign))
            x = arrows[k].tail if sign > 0 else arrows[k].head
        delta = min([excess[x], -excess[target]] + [u[k] for k, s in path if s < 0])
        for k, sign in path:
            u[k] += sign * delta
        excess[x] -= delta
        excess[target] += delta
    value = sum(c * f for c, f in zip(cost, u))
    check_certificate(quiver, theta, cost, u, y, value)
    return tuple(u), tuple(y), value

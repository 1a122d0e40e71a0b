"""Exact min-cost flows on the quiver by the primal-dual method.

Minimizes cost . u over the flow polyhedron {u >= 0 : b * u = theta}, where
column k of b is +1 at head(k) and -1 at tail(k), for nonnegative integer
arrow costs (Ahuja, Magnanti and Orlin, Network Flows, 1993, section 9.8).
Each phase runs one Dijkstra to completion from every vertex with flow left
to send, on reduced costs over the forward arrows, which are uncapacitated,
and over the reverse of every arrow carrying flow.  Its distances accumulate
into vertex potentials y, the optimal dual; a vertex it does not reach gets
the largest finite distance, which keeps every residual reduced cost
nonnegative.  Every vertex with flow left to receive is then served along
one BFS forest of residual arcs of zero reduced cost.  With a single source
a solve is one phase.  Everything is plain int, and every result is
returned only after its certificate has been checked.  Only quiver.r and
each arrow's tail and head are read, so any record with those fields is a
network: distinguished_rep solves its shortest-path tree on one.
"""

import heapq

from .errors import CertificateError, InputError, ModuliError


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
    """Return (u, y, value): an optimal integer flow, its potentials and theta . y.

    theta is an integer vector summing to zero and cost holds one nonnegative
    integer per arrow.  Raises ModuliError when no flow routes theta.
    """
    arrows = quiver.arrows
    if len(theta) != quiver.r or any(int(t) != t for t in theta):
        raise InputError("flow parameter must be integral, one entry per vertex")
    if len(cost) != len(arrows) or any(int(c) != c or c < 0 for c in cost):
        raise CertificateError("flow costs must be nonnegative integers")
    cost = [int(c) for c in cost]
    theta = [int(t) for t in theta]
    r = quiver.r
    out_arcs = [[] for _ in range(r)]
    in_arcs = [[] for _ in range(r)]
    for k, a in enumerate(arrows):
        out_arcs[a.tail].append((k, a.head))
        in_arcs[a.head].append((k, a.tail))
    u = [0] * len(arrows)
    y = [0] * r
    # excess > 0: flow still to leave the vertex; < 0: flow still to arrive
    excess = [-t for t in theta]
    while any(excess):
        dist = [0 if e > 0 else None for e in excess]
        heap = [(0, v) for v in range(r) if excess[v] > 0]
        while heap:
            d, x = heapq.heappop(heap)
            if d > dist[x]:
                continue
            base = d + y[x]
            for k, z in out_arcs[x]:
                nd = base + cost[k] - y[z]
                if dist[z] is None or nd < dist[z]:
                    dist[z] = nd
                    heapq.heappush(heap, (nd, z))
            for k, z in in_arcs[x]:
                if u[k]:
                    nd = base - cost[k] - y[z]
                    if dist[z] is None or nd < dist[z]:
                        dist[z] = nd
                        heapq.heappush(heap, (nd, z))
        if all(dist[v] is None for v in range(r) if excess[v] < 0):
            raise ModuliError("no nonnegative flow routes theta")
        # Unreached labels are capped at the largest finite distance, which
        # keeps every residual reduced cost nonnegative.
        cap = max(d for d in dist if d is not None)
        for v in range(r):
            y[v] += cap if dist[v] is None else dist[v]
        # BFS forest over the residual arcs of zero reduced cost; every
        # reached vertex lies in it, along its shortest path.
        pred = [None] * r
        seen = [e > 0 for e in excess]
        order = [v for v in range(r) if seen[v]]
        for x in order:
            for k, z in out_arcs[x]:
                if not seen[z] and cost[k] + y[x] == y[z]:
                    seen[z], pred[z] = True, (k, 1, x)
                    order.append(z)
            for k, z in in_arcs[x]:
                if not seen[z] and u[k]:
                    seen[z], pred[z] = True, (k, -1, x)
                    order.append(z)
        # Serve each deficit from its root: one walk up the forest finds the
        # root and the least flow on a reverse arc, a second one augments.
        for target in order:
            if excess[target] >= 0:
                continue
            root, delta = target, -excess[target]
            while (step := pred[root]) is not None:
                k, sign, root = step
                if sign < 0 and u[k] < delta:
                    delta = u[k]
            delta = min(delta, excess[root])
            if not delta:
                continue
            excess[root] -= delta
            excess[target] += delta
            x = target
            while (step := pred[x]) is not None:
                k, sign, x = step
                u[k] += sign * delta
    value = sum(t * p for t, p in zip(theta, y))
    check_certificate(quiver, theta, cost, u, y, value)
    return tuple(u), tuple(y), value

"""Independent combinatorial oracles for flow polyhedra {u >= 0 : Bu = theta}.

The incidence columns of an arc set are linearly independent exactly when the
arcs are acyclic in the underlying undirected multigraph, so a nonnegative
flow is a vertex of the polyhedron precisely when its support is a forest.
Extreme rays of the recession cone {u >= 0 : Bu = 0} are the characteristic
vectors of elementary directed cycles.  Vertices therefore biject with
forests whose components each route theta with strictly positive flow, and
they can be counted with a rooted-tree dynamic program over vertex subsets,
with no polyhedral computation at all.  These oracles certify the double
description output on lifted flow polyhedra; flow_images_up_to enumerates
the types of all small flows by brute force.  min_cost_flow_ssp is the
successive-shortest-paths kernel that mckay_moduli.flow used before its
primal-dual phases, kept as their reference.  face_tight_arrows is the
per-vertex residual search that distinguished_rep used before it read the
face off the strongly connected pieces of its potential's tight arcs, and
greatest_potential the Bellman-Ford relaxation that found that potential
before the kernel's shortest-path tree did.
"""

import heapq
from fractions import Fraction

from mckay_moduli.errors import CertificateError, InputError, ModuliError
from mckay_moduli.flow import check_certificate
from mckay_moduli.groups import _reachable


def _flow_balance(quiver, u):
    """Net inflow at every quiver vertex for the arrow flow u."""
    bal = [Fraction(0)] * quiver.r
    for idx, a in enumerate(quiver.arrows):
        f = Fraction(u[idx])
        bal[a.head] += f
        bal[a.tail] -= f
    return bal


def is_feasible_forest_flow(quiver, theta, u) -> bool:
    """True iff u is a vertex of the flow polyhedron: feasible, forest support."""
    if any(Fraction(x) < 0 for x in u):
        return False
    if _flow_balance(quiver, u) != [Fraction(t) for t in theta]:
        return False
    parent = list(range(quiver.r))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, val in enumerate(u):
        if Fraction(val) == 0:
            continue
        a = quiver.arrows[idx]
        if a.tail == a.head:
            return False
        ru, rv = find(a.tail), find(a.head)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def is_elementary_circulation(quiver, u) -> bool:
    """True iff u is a constant positive flow around one elementary cycle."""
    support = [idx for idx, val in enumerate(u) if Fraction(val) != 0]
    if not support:
        return False
    values = {Fraction(u[idx]) for idx in support}
    if len(values) != 1 or values.pop() <= 0:
        return False
    succ = {}
    for idx in support:
        a = quiver.arrows[idx]
        if a.tail in succ:
            return False
        succ[a.tail] = a.head
    start = quiver.arrows[support[0]].tail
    seen = set()
    v = start
    while v not in seen:
        seen.add(v)
        if v not in succ:
            return False
        v = succ[v]
    return v == start and seen == set(succ)


def count_elementary_cycles(quiver) -> int:
    """Number of elementary directed cycles, counted by anchored DFS."""
    out = [[] for _ in range(quiver.r)]
    for a in quiver.arrows:
        if a.tail != a.head:
            out[a.tail].append(a.head)
    count = 0
    for start in range(quiver.r):
        stack = [(start, iter(out[start]))]
        onpath = {start}
        while stack:
            v, it = stack[-1]
            advanced = False
            for h in it:
                if h == start:
                    count += 1
                    continue
                if h < start or h in onpath:
                    continue
                stack.append((h, iter(out[h])))
                onpath.add(h)
                advanced = True
                break
            if not advanced:
                stack.pop()
                onpath.discard(v)
    return count


def count_flow_vertices(quiver, theta) -> int:
    """Exact vertex count of {u >= 0 : Bu = theta} by subset dynamic program.

    Counts forests with strictly positive determined flow.  R[S][v] is the
    number of positive-flow trees on vertex subset S rooted at v; a tree
    splits off the child subtree containing the smallest non-root element,
    and the flow on the connecting arc is the theta-sum of that subtree,
    with sign matching the arc orientation.
    """
    r = quiver.r
    if r > 16:
        raise ValueError("subset dynamic program supports at most 16 vertices")
    th = [Fraction(t) for t in theta]
    arcs_to = [[0] * r for _ in range(r)]
    for a in quiver.arrows:
        if a.tail != a.head:
            arcs_to[a.tail][a.head] += 1

    tsum = [Fraction(0)] * (1 << r)
    for s in range(1, 1 << r):
        low = (s & -s).bit_length() - 1
        tsum[s] = tsum[s & (s - 1)] + th[low]

    R = [dict() for _ in range(1 << r)]
    for v in range(r):
        R[1 << v][v] = 1
    for s in sorted(range(1, 1 << r), key=lambda m: bin(m).count("1")):
        if s & (s - 1) == 0:
            continue
        for v in range(r):
            if not (s >> v) & 1:
                continue
            rest = s & ~(1 << v)
            anchor = (rest & -rest).bit_length() - 1
            total = 0
            a = rest
            while True:
                if (a >> anchor) & 1:
                    ta = tsum[a]
                    if ta != 0:
                        rv = R[s & ~a].get(v, 0)
                        if rv:
                            acc = 0
                            for c, cnt in R[a].items():
                                # arc head lies on the side receiving the flow
                                n_arcs = arcs_to[v][c] if ta > 0 else arcs_to[c][v]
                                if n_arcs:
                                    acc += cnt * n_arcs
                            total += acc * rv
                if a == 0:
                    break
                a = (a - 1) & rest
            if total:
                R[s][v] = total

    # assemble forests: components are zero-sum trees; a vertex outside the
    # support needs theta zero and stands as a singleton block
    F = [0] * (1 << r)
    F[0] = 1
    for s in range(1, 1 << r):
        low = (s & -s).bit_length() - 1
        acc = 0
        a = s
        while True:
            if (a >> low) & 1 and tsum[a] == 0:
                if a & (a - 1) == 0:
                    trees = 1 if th[low] == 0 else 0
                else:
                    members = [i for i in range(r) if (a >> i) & 1]
                    trees = R[a].get(members[0], 0)
                if trees:
                    acc += trees * F[s & ~a]
            if a == 0:
                break
            a = (a - 1) & s
        F[s] = acc
    return F[(1 << r) - 1]


def flow_images_up_to(quiver, theta, bound: int):
    """Brute-force oracle: type vectors of all small nonnegative flows routing theta.

    Enumerates every u in N^(arrows) with |u|_1 <= bound and b * u = theta and
    collects d * u.  Exponential; intended for tiny quivers in tests.
    """
    na = quiver.num_arrows
    arrows = quiver.arrows
    out = set()
    balance = [int(x) for x in theta]
    acc = [0] * quiver.n

    def rec(k, budget):
        # Each remaining arrow use fixes at most 2 units of imbalance.
        if sum(abs(x) for x in balance) > 2 * budget:
            return
        if k == na:
            if not any(balance):
                out.add(tuple(acc))
            return
        a = arrows[k]
        for mult in range(budget + 1):
            if mult:
                balance[a.head] -= 1
                balance[a.tail] += 1
                acc[a.label - 1] += 1
            rec(k + 1, budget - mult)
        balance[a.head] += budget
        balance[a.tail] -= budget
        acc[a.label - 1] -= budget

    rec(0, bound)
    return out


def min_cost_flow_ssp(quiver, theta, cost):
    """Return (u, y, value): an optimal integer flow, its potentials and cost . u.

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
            raise ModuliError("no nonnegative flow routes theta")
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


def face_tight_arrows(quiver, cost, u, y):
    """Return (face, pieces): the arrows some min-cost flow uses, given one optimal (u, y).

    Optimal flows are the feasible flows on arrows of zero reduced cost, so
    arrow k carries flow in one exactly when its reduced cost is 0 and
    head(k) reaches tail(k) in the residual graph: zero-reduced-cost arrows
    forward, arrows carrying flow backward.  pieces counts the strongly
    connected components of that graph: two vertices share one exactly
    when they reach the same set.
    """
    arrows = quiver.arrows
    zero = [cost[k] == y[a.head] - y[a.tail] for k, a in enumerate(arrows)]
    residual = [[] for _ in range(quiver.r)]
    for k, a in enumerate(arrows):
        if zero[k]:
            residual[a.tail].append(a.head)
        if u[k]:
            residual[a.head].append(a.tail)
    reach = [_reachable(residual, v) for v in range(quiver.r)]
    face = frozenset(k for k, a in enumerate(arrows) if zero[k] and a.tail in reach[a.head])
    return face, len({frozenset(s) for s in reach})


def greatest_potential(quiver, cost, u):
    """Greatest V with V_0 = 0, cost_k + V_head - V_tail >= 0, and = 0 where u_k != 0.

    These are difference constraints, so V is the shortest-path distance
    from vertex 0 over arcs head -> tail of length cost_k for every arrow
    and tail -> head of length -cost_k where u_k != 0 (Bellman-Ford).
    """
    arcs = [(a.head, a.tail, cost[k]) for k, a in enumerate(quiver.arrows)]
    arcs += [(a.tail, a.head, -cost[k]) for k, a in enumerate(quiver.arrows) if u[k]]
    dist = [0] + [None] * (quiver.r - 1)
    for _ in range(quiver.r):
        relaxed = False
        for x, z, c in arcs:
            if dist[x] is not None and (dist[z] is None or dist[x] + c < dist[z]):
                dist[z] = dist[x] + c
                relaxed = True
        if not relaxed:
            break
    if None in dist or any(dist[x] + c < dist[z] for x, z, c in arcs):
        raise CertificateError("the optimal face has no greatest potential")
    return dist

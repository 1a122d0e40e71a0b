"""Finite abelian groups acting diagonally and their quivers of characters.

A group is presented as Z/r_1 x ... x Z/r_k together with a k x n integer
weight matrix whose column i is the character through which the group scales
the i-th coordinate.  The quiver has one vertex per character and, for each
vertex rho and each coordinate label i, one arrow from rho * rho_i to rho.
Flows and paths on the quiver all come from the min-cost-flow kernel in
flow.py: theta_decompose routes a parameter at zero cost, and the connector
between components of a closed walk is a unit-cost flow, so a shortest path.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .errors import CertificateError, InputError
from .flow import min_cost_flow
from .intlinalg import row_hnf


class AbelianGroupData(namedtuple("AbelianGroupData", "orders weights")):
    """Validated product group Z/r_1 x ... x Z/r_k with an n-column weight matrix.

    A character is a tuple of residues, one modulo each cycle order.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.weights[0]) if self.weights else 0

    @property
    def trivial(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def characters(self) -> tuple[tuple[int, ...], ...]:
        """All characters in lexicographic order; the trivial one comes first."""
        return tuple(itertools.product(*(range(m) for m in self.orders)))

    def generator(self, i: int) -> tuple[int, ...]:
        """The weight character rho_i of coordinate i (1-based)."""
        return tuple(row[i - 1] % m for row, m in zip(self.weights, self.orders))

    def mul(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def inv(self, a) -> tuple[int, ...]:
        return tuple((-x) % m for x, m in zip(a, self.orders))

    def deg(self, m) -> tuple[int, ...]:
        """Character of the monomial with exponent vector m (length n)."""
        if len(m) != self.n:
            raise InputError(f"exponent vector has length {len(m)}, expected {self.n}")
        return tuple(
            sum(w * e for w, e in zip(row, m)) % order
            for row, order in zip(self.weights, self.orders)
        )


def build_group(orders, weights) -> AbelianGroupData:
    """Validate and normalize a group presentation.

    Args:
        orders: cycle orders (r_1, ..., r_k), each a positive integer.
        weights: k rows of n integer weights; column i is the character rho_i.

    Raises:
        InputError: on empty or ragged input, or if the weight characters
            fail to generate the full character group, so the quiver below
            would be disconnected.
    """
    orders = tuple(int(m) for m in orders)
    if not orders or any(m < 1 for m in orders):
        raise InputError("orders must be positive integers")
    k = len(orders)
    rows = [tuple(int(x) for x in row) for row in weights]
    if len(rows) != k:
        raise InputError(f"expected {k} weight rows, got {len(rows)}")
    n = len(rows[0]) if rows else 0
    if n == 0 or any(len(row) != n for row in rows):
        raise InputError("weight rows must be nonempty and of equal length")
    reduced = tuple(
        tuple(rows[j][i] % orders[j] for i in range(n)) for j in range(k)
    )
    cols = [tuple(reduced[j][i] for j in range(k)) for i in range(n)]
    scaled_units = [
        tuple(orders[j] if t == j else 0 for t in range(k)) for j in range(k)
    ]
    identity = tuple(tuple(1 if t == j else 0 for t in range(k)) for j in range(k))
    if row_hnf(cols + scaled_units) != identity:
        raise InputError("weight characters do not generate the character group")
    return AbelianGroupData(orders, reduced)


class Arrow(namedtuple("Arrow", "tail head label")):
    """Arrow of label i from vertex rho * rho_i to vertex rho (indices into the vertex list)."""

    __slots__ = ()


class McKayQuiver:
    """The quiver of characters of a validated group.

    Vertices are characters in canonical order; arrows are grouped in blocks
    of n per head vertex, labels 1..n inside each block, so the arrow with
    head index h and label i has index h * n + i - 1.
    """

    def __init__(self, group: AbelianGroupData):
        self.group = group
        self.vertices = group.characters()
        self.vertex_index = {c: i for i, c in enumerate(self.vertices)}
        arrows = []
        for h, rho in enumerate(self.vertices):
            for i in range(1, group.n + 1):
                tail = self.vertex_index[group.mul(rho, group.generator(i))]
                arrows.append(Arrow(tail=tail, head=h, label=i))
        self.arrows = tuple(arrows)

    @property
    def r(self) -> int:
        return len(self.vertices)

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def num_arrows(self) -> int:
        return len(self.arrows)

    def arrow_index(self, head: int, label: int) -> int:
        return head * self.n + label - 1


def _reachable(adj, start) -> set:
    """The vertices reachable from start, where adj[v] lists the successors of v."""
    seen, stack = {start}, [start]
    while stack:
        for z in adj[stack.pop()]:
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return seen


def build_quiver(group: AbelianGroupData) -> McKayQuiver:
    """Construct the quiver of characters and check strong connectivity."""
    q = McKayQuiver(group)
    succ = [[] for _ in range(q.r)]
    for a in q.arrows:
        succ[a.tail].append(a.head)
    # Every vertex has n arrows in and n out, so reaching all from 0 suffices.
    if len(_reachable(succ, 0)) != q.r:
        raise InputError("quiver of characters is not strongly connected")
    return q


class IncidenceData(namedtuple("IncidenceData", "b c d")):
    """Vertex and label incidence matrices of the quiver, as tuples of rows.

    b has one row per vertex (+1 at the head, -1 at the tail of each arrow),
    d has one row per coordinate label, and c stacks b over d.
    """

    __slots__ = ()


def incidence_matrices(quiver: McKayQuiver) -> IncidenceData:
    r, n, na = quiver.r, quiver.n, quiver.num_arrows
    b = [[0] * na for _ in range(r)]
    d = [[0] * na for _ in range(n)]
    for k, a in enumerate(quiver.arrows):
        b[a.head][k] += 1
        b[a.tail][k] -= 1
        d[a.label - 1][k] = 1
    bt = tuple(tuple(row) for row in b)
    dt = tuple(tuple(row) for row in d)
    return IncidenceData(b=bt, c=bt + dt, d=dt)


def commutation_squares(quiver: McKayQuiver) -> list[tuple[int, int, int, int]]:
    """The commutation squares (p1, p2, m1, m2) as arrow indices, by head h then i < j.

    p1 = (h, i), p2 = (tail of p1, j), m1 = (h, j) and m2 = (tail of m1, i):
    the paths p2 p1 and m2 m1 both run from h * rho_i * rho_j to h.
    """
    n, arrows, index = quiver.n, quiver.arrows, quiver.arrow_index
    out = []
    for h in range(quiver.r):
        for i in range(1, n + 1):
            p1 = index(h, i)
            for j in range(i + 1, n + 1):
                m1 = index(h, j)
                out.append((p1, index(arrows[p1].tail, j), m1, index(arrows[m1].tail, i)))
    return out


def kernel_generators_cij(quiver: McKayQuiver) -> list[tuple[int, ...]]:
    """The commutation vectors spanning the integer kernel of the full incidence matrix.

    One vector e_p1 + e_p2 - e_m1 - e_m2 per commutation square; there are
    exactly r * n * (n - 1) / 2 of them, listed by vertex then by (i, j).
    """
    out = []
    for square in commutation_squares(quiver):
        v = [0] * quiver.num_arrows
        for k, sign in zip(square, (1, 1, -1, -1)):
            v[k] += sign
        out.append(tuple(v))
    return out


def cycle_from_type(quiver: McKayQuiver, base, mtype) -> tuple[int, ...]:
    """The net arrow vector of the closed walk at a base vertex realizing an exponent type.

    Labels with positive entries are traversed forward, negative ones
    backward; the type must have trivial degree or InputError is raised.
    """
    g = quiver.group
    mtype = tuple(int(x) for x in mtype)
    if g.deg(mtype) != g.trivial:
        raise InputError(f"type {mtype} has nontrivial degree")
    v = [0] * quiver.num_arrows
    cur = base
    for i in range(1, quiver.n + 1):
        rho_i = g.generator(i)
        inv_i = g.inv(rho_i)
        for _ in range(mtype[i - 1]):
            nxt = g.mul(cur, inv_i)
            v[quiver.arrow_index(quiver.vertex_index[nxt], i)] += 1
            cur = nxt
        for _ in range(-mtype[i - 1]):
            v[quiver.arrow_index(quiver.vertex_index[cur], i)] -= 1
            cur = g.mul(cur, rho_i)
    if cur != base:
        raise CertificateError(f"walk of type {mtype} ends at {cur}, not at {base}")
    return tuple(v)


def integral_theta(quiver: McKayQuiver, theta) -> list[int]:
    """theta as a list of ints, after checking it is integral and sums to zero.

    Raises InputError unless theta has one entry per vertex, every entry is an
    integer and the entries sum to zero.
    """
    th = [Fraction(x) for x in theta]
    if len(th) != quiver.r:
        raise InputError(f"parameter has length {len(th)}, expected {quiver.r}")
    if any(x.denominator != 1 for x in th):
        raise InputError("parameter must be integral")
    if sum(th) != 0:
        raise InputError("parameter entries must sum to zero")
    return [int(x) for x in th]


def theta_decompose(quiver: McKayQuiver, theta) -> tuple[int, ...]:
    """A nonnegative integer arrow vector u with b * u = theta.

    u is a min-cost flow at zero arrow cost, so any feasible flow; the kernel
    certifies it before returning.  Requires integer theta summing to zero;
    minimality of the result is not promised.
    """
    theta = integral_theta(quiver, theta)
    return min_cost_flow(quiver, theta, [0] * quiver.num_arrows)[0]


def closed_walk_from_kernel(quiver: McKayQuiver, u) -> list[tuple[int, int]]:
    """Decompose a kernel vector of b into a single closed walk.

    Args:
        u: integer arrow vector with b * u = 0.

    Returns:
        A list of (arrow index, sign) steps tracing one closed walk whose net
        multiplicity vector equals u.  Circuits in different components are
        linked by inserting a connector path and retracing it backward, which
        cancels out of the net vector.
    """
    u = [int(x) for x in u]
    if len(u) != quiver.num_arrows:
        raise InputError("arrow vector has the wrong length")
    net = [0] * quiver.r
    for k, mult in enumerate(u):
        a = quiver.arrows[k]
        net[a.head] += mult
        net[a.tail] -= mult
    if any(net):
        raise InputError("vector is not in the kernel of the vertex incidence matrix")

    # Directed multigraph: negative multiplicities traverse the arrow backward.
    out_edges: dict[int, list[tuple[int, int, int]]] = {}
    for k, mult in enumerate(u):
        a = quiver.arrows[k]
        src, dst, sign = (a.tail, a.head, 1) if mult > 0 else (a.head, a.tail, -1)
        for _ in range(abs(mult)):
            out_edges.setdefault(src, []).append((dst, k, sign))
    for v in out_edges:
        out_edges[v].sort()

    def euler_circuit(start: int) -> list[tuple[int, int, int]]:
        # Hierholzer with an explicit stack; consumes edges from out_edges.
        stack = [(start, None)]
        circuit = []
        while stack:
            v, via = stack[-1]
            if out_edges.get(v):
                dst, k, sign = out_edges[v].pop(0)
                stack.append((dst, (v, k, sign)))
            else:
                stack.pop()
                if via is not None:
                    circuit.append(via + (v,))
        circuit.reverse()
        return [(k, sign) for (_, k, sign, _) in circuit]

    # The support is balanced, so a circuit uses up its start's whole component.
    starts = sorted(out_edges)
    if not starts:
        return []
    base = starts[0]
    walk = euler_circuit(base)
    for start in starts[1:]:
        if not out_edges[start]:
            continue
        # A unit-cost flow of one unit from base to start is a shortest path.
        theta = [0] * quiver.r
        theta[base] -= 1
        theta[start] += 1
        path, _, _ = min_cost_flow(quiver, theta, [1] * quiver.num_arrows)
        leaving = {quiver.arrows[k].tail: k for k, x in enumerate(path) if x}
        steps = []
        cur = base
        while cur != start:
            k = leaving[cur]
            steps.append((k, 1))
            cur = quiver.arrows[k].head
        walk.extend(steps)
        walk.extend(euler_circuit(start))
        walk.extend((k, -sign) for k, sign in reversed(steps))
    return walk

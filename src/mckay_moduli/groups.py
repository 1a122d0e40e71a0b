"""Finite abelian groups acting diagonally and their quivers of characters.

A group is presented as Z/r_1 x ... x Z/r_k together with a k x n integer
weight matrix whose column i is the character through which the group scales
the i-th coordinate.  The quiver has one vertex per character and, for each
vertex rho and each coordinate label i, one arrow from rho * rho_i to rho.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

from .errors import BadShape, BadTheta, CertificateError, NonGenerating, NotInM
from .intlinalg import lattice_contains, row_hnf


@dataclass(frozen=True, order=True)
class Character:
    """A character of the group, stored as residues modulo the cycle orders."""

    residues: tuple[int, ...]


@dataclass(frozen=True)
class AbelianGroupData:
    """Validated product group Z/r_1 x ... x Z/r_k with an n-column weight matrix."""

    orders: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.orders)

    @property
    def n(self) -> int:
        return len(self.weights[0]) if self.weights else 0

    @property
    def r(self) -> int:
        out = 1
        for m in self.orders:
            out *= m
        return out

    @property
    def trivial(self) -> Character:
        return Character((0,) * self.k)

    def characters(self) -> tuple[Character, ...]:
        """All characters in lexicographic order on residue tuples.

        The trivial character always comes first.
        """
        return tuple(
            Character(t) for t in itertools.product(*(range(m) for m in self.orders))
        )

    def generator(self, i: int) -> Character:
        """The weight character rho_i of coordinate i (1-based)."""
        return Character(
            tuple(self.weights[j][i - 1] % self.orders[j] for j in range(self.k))
        )

    def mul(self, a: Character, b: Character) -> Character:
        return Character(
            tuple((x + y) % m for x, y, m in zip(a.residues, b.residues, self.orders))
        )

    def inv(self, a: Character) -> Character:
        return Character(tuple((-x) % m for x, m in zip(a.residues, self.orders)))

    def power(self, a: Character, e: int) -> Character:
        return Character(tuple((x * e) % m for x, m in zip(a.residues, self.orders)))

    def order_of(self, a: Character) -> int:
        return lcm(*(m // gcd(m, x) for x, m in zip(a.residues, self.orders))) if self.k else 1

    def deg(self, m) -> Character:
        """Character of the monomial with exponent vector m (length n)."""
        if len(m) != self.n:
            raise BadShape(f"exponent vector has length {len(m)}, expected {self.n}")
        return Character(
            tuple(
                sum(w * e for w, e in zip(row, m)) % order
                for row, order in zip(self.weights, self.orders)
            )
        )


def build_group(orders, weights) -> AbelianGroupData:
    """Validate and normalize a group presentation.

    Args:
        orders: cycle orders (r_1, ..., r_k), each a positive integer.
        weights: k rows of n integer weights; column i is the character rho_i.

    Raises:
        BadShape: on empty or ragged input.
        NonGenerating: if the weight characters fail to generate the full
            character group, so the quiver below would be disconnected.
    """
    orders = tuple(int(m) for m in orders)
    if not orders or any(m < 1 for m in orders):
        raise BadShape("orders must be positive integers")
    k = len(orders)
    rows = [tuple(int(x) for x in row) for row in weights]
    if len(rows) != k:
        raise BadShape(f"expected {k} weight rows, got {len(rows)}")
    n = len(rows[0]) if rows else 0
    if n == 0 or any(len(row) != n for row in rows):
        raise BadShape("weight rows must be nonempty and of equal length")
    reduced = tuple(
        tuple(rows[j][i] % orders[j] for i in range(n)) for j in range(k)
    )
    cols = [tuple(reduced[j][i] for j in range(k)) for i in range(n)]
    scaled_units = [
        tuple(orders[j] if t == j else 0 for t in range(k)) for j in range(k)
    ]
    identity = tuple(tuple(1 if t == j else 0 for t in range(k)) for j in range(k))
    if row_hnf(cols + scaled_units) != identity:
        raise NonGenerating("weight characters do not generate the character group")
    return AbelianGroupData(orders, reduced)


@dataclass(frozen=True)
class Arrow:
    """Arrow of label i from vertex rho * rho_i to vertex rho (indices into the vertex list)."""

    tail: int
    head: int
    label: int


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


def build_quiver(group: AbelianGroupData) -> McKayQuiver:
    """Construct the quiver of characters and check strong connectivity."""
    q = McKayQuiver(group)
    for forward in (True, False):
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for a in q.arrows:
                s, t = (a.tail, a.head) if forward else (a.head, a.tail)
                if s == v and t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) != q.r:
            raise NonGenerating("quiver of characters is not strongly connected")
    return q


@dataclass(frozen=True)
class IncidenceData:
    """Vertex and label incidence matrices of the quiver, as tuples of rows.

    b has one row per vertex (+1 at the head, -1 at the tail of each arrow),
    d has one row per coordinate label, and c stacks b over d.
    """

    b: tuple[tuple[int, ...], ...]
    c: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]


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


def kernel_generators_cij(quiver: McKayQuiver) -> list[tuple[int, ...]]:
    """The commutation vectors spanning the integer kernel of the full incidence matrix.

    For each vertex rho and each unordered pair of labels i < j the vector is
    e_i^rho + e_j^(rho rho_i) - e_j^rho - e_i^(rho rho_j); there are exactly
    r * n * (n - 1) / 2 of them, listed by vertex then by (i, j).
    """
    g = quiver.group
    out = []
    for h, rho in enumerate(quiver.vertices):
        for i in range(1, quiver.n + 1):
            for j in range(i + 1, quiver.n + 1):
                v = [0] * quiver.num_arrows
                hi = quiver.vertex_index[g.mul(rho, g.generator(i))]
                hj = quiver.vertex_index[g.mul(rho, g.generator(j))]
                v[quiver.arrow_index(h, i)] += 1
                v[quiver.arrow_index(hi, j)] += 1
                v[quiver.arrow_index(h, j)] -= 1
                v[quiver.arrow_index(hj, i)] -= 1
                out.append(tuple(v))
    return out


def binomial_pairs(vectors) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Split integer arrow vectors into (positive, negative) exponent parts.

    Each pair (p, m) satisfies vector = p - m with p, m >= 0 and disjoint
    supports; these are the exponents of the two monomials of the binomial
    attached to the vector.
    """
    out = []
    for v in vectors:
        pos = tuple(x if x > 0 else 0 for x in v)
        neg = tuple(-x if x < 0 else 0 for x in v)
        out.append((pos, neg))
    return out


@dataclass(frozen=True)
class PathVector:
    """Net arrow-multiplicity vector of a walk, with its coordinate type D*v."""

    v: tuple[int, ...]
    type: tuple[int, ...]


def _subgroup_contains(group: AbelianGroupData, from_label: int, target: Character) -> bool:
    """Is target in the subgroup generated by rho_i for i >= from_label?"""
    gens = [group.generator(i).residues for i in range(from_label, group.n + 1)]
    units = [
        tuple(group.orders[j] if t == j else 0 for t in range(group.k))
        for j in range(group.k)
    ]
    return lattice_contains(gens + units, target.residues)


def minimal_exponents(group: AbelianGroupData, target: Character) -> tuple[int, ...]:
    """Lexicographically least m in N^n with deg(m) == target."""
    m = []
    residual = target
    for i in range(1, group.n + 1):
        rho_i = group.generator(i)
        inv_i = group.inv(rho_i)
        t = 0
        while not _subgroup_contains(group, i + 1, residual):
            residual = group.mul(residual, inv_i)
            t += 1
            if t > group.order_of(rho_i):
                raise NonGenerating("no exponent vector reaches the target character")
        m.append(t)
    if residual != group.trivial:
        raise NonGenerating("no exponent vector reaches the target character")
    return tuple(m)


def directed_path(quiver: McKayQuiver, frm: Character, to: Character) -> PathVector:
    """A directed path in the quiver from one vertex to another.

    The path realizes the lexicographically least m in N^n with
    deg(m) = to^-1 * frm, traversing all label-1 arrows first, then label-2,
    and so on.  Its vector v satisfies b * v = e_to - e_frm and v >= 0.
    """
    g = quiver.group
    m = minimal_exponents(g, g.mul(g.inv(to), frm))
    v = [0] * quiver.num_arrows
    cur = frm
    for i in range(1, quiver.n + 1):
        inv_i = g.inv(g.generator(i))
        for _ in range(m[i - 1]):
            nxt = g.mul(cur, inv_i)
            v[quiver.arrow_index(quiver.vertex_index[nxt], i)] += 1
            cur = nxt
    if cur != to:
        raise CertificateError(f"path of type {m} ends at {cur}, not at {to}")
    return PathVector(v=tuple(v), type=m)


def cycle_from_type(quiver: McKayQuiver, base: Character, mtype) -> PathVector:
    """The closed walk at a base vertex realizing an integer exponent type.

    Labels with positive entries are traversed forward, negative ones
    backward; the type must have trivial degree or NotInM is raised.
    """
    g = quiver.group
    mtype = tuple(int(x) for x in mtype)
    if g.deg(mtype) != g.trivial:
        raise NotInM(f"type {mtype} has nontrivial degree")
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
    return PathVector(v=tuple(v), type=mtype)


def theta_decompose(quiver: McKayQuiver, theta) -> tuple[int, ...]:
    """A nonnegative integer arrow vector u with b * u = theta.

    Repeatedly routes one unit along a directed path from a vertex where
    theta is still negative to one where it is positive.  Requires integer
    theta summing to zero; minimality of the result is not promised.
    """
    theta = list(theta)
    if len(theta) != quiver.r:
        raise BadTheta(f"theta has length {len(theta)}, expected {quiver.r}")
    if any(x != int(x) for x in theta):
        raise BadTheta("theta must be integral")
    theta = [int(x) for x in theta]
    if sum(theta) != 0:
        raise BadTheta("theta must sum to zero")
    u = [0] * quiver.num_arrows
    while True:
        neg = next((i for i, x in enumerate(theta) if x < 0), None)
        if neg is None:
            break
        pos = next(i for i, x in enumerate(theta) if x > 0)
        path = directed_path(quiver, quiver.vertices[neg], quiver.vertices[pos])
        u = [a + b for a, b in zip(u, path.v)]
        theta[neg] += 1
        theta[pos] -= 1
    return tuple(u)


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
        raise BadShape("arrow vector has the wrong length")
    net = [0] * quiver.r
    for k, mult in enumerate(u):
        a = quiver.arrows[k]
        net[a.head] += mult
        net[a.tail] -= mult
    if any(net):
        raise BadShape("vector is not in the kernel of the vertex incidence matrix")

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

    # Node-level components of the support graph, each Eulerian.
    comp_starts = []
    unseen = set(out_edges)
    adj: dict[int, set[int]] = {}
    for src, lst in out_edges.items():
        for dst, _, _ in lst:
            adj.setdefault(src, set()).add(dst)
            adj.setdefault(dst, set()).add(src)
    while unseen:
        start = min(unseen)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj.get(v, ()):
                if w in comp:
                    continue
                comp.add(w)
                frontier.append(w)
        comp_starts.append(start)
        unseen -= comp

    if not comp_starts:
        return []
    walk = euler_circuit(comp_starts[0])
    base = quiver.vertices[comp_starts[0]]
    for start in comp_starts[1:]:
        connector = directed_path(quiver, base, quiver.vertices[start])
        steps = []
        cur = base
        g = quiver.group
        for i in range(1, quiver.n + 1):
            inv_i = g.inv(g.generator(i))
            for _ in range(connector.type[i - 1]):
                nxt = g.mul(cur, inv_i)
                steps.append((quiver.arrow_index(quiver.vertex_index[nxt], i), 1))
                cur = nxt
        walk.extend(steps)
        walk.extend(euler_circuit(start))
        walk.extend((k, -sign) for k, sign in reversed(steps))
    return walk

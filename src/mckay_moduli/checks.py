"""Executable consistency checks tying the combinatorics to the polyhedra.

Each check returns None on success and raises CertificateError with a
witness on failure; the checks are explicit raises, so python -O keeps them.
run_all packages them for the command line, and reports a CertificateError
or InputError raised inside a check as a failed row.  These are the
package's own cross-validation suite: kernel lattices against commutation
vectors, routing of stability parameters, integer cycles as sums of tree
cycles, cycle types, flow vertex integrality, and agreement of the two
type-polyhedron constructions.
"""

from __future__ import annotations

import random

from .errors import CertificateError, InputError
from .groups import (
    McKayQuiver,
    incidence_matrices,
    kernel_generators_cij,
    theta_decompose,
)
from .intlinalg import int_rank, kernel_basis, mat_vec, row_hnf
from .moduli import lifted_flow_polyhedron, lifted_theta_polyhedron, theta_polyhedron
from .polyhedra import h_to_v


def _tree_cycles(quiver: McKayQuiver, b) -> tuple[list[int], list[list[int]]]:
    """The arrows k off one breadth-first tree of forward arrows from vertex 0, and their cycles.

    The cycle z_k follows the tree path to the tail of k, then k, then the tree
    path back from its head.  It is e_k on the off-tree arrows, and the tree arrows'
    columns of b are independent, so the z_k are a basis of ker_Z b.  Raises unless b * z_k = 0.
    """
    leaving = [[] for _ in range(quiver.r)]
    for k, a in enumerate(quiver.arrows):
        leaving[a.tail].append(k)
    # path[v]: the tree path from 0 to v as an arrow vector, ends[v] = b * path[v];
    # build_quiver reached every v.
    path, ends = [None] * quiver.r, [None] * quiver.r
    path[0], ends[0] = [0] * quiver.num_arrows, [0] * len(b)
    for v in (queue := [0]):
        for k in leaving[v]:
            head = quiver.arrows[k].head
            if path[head] is None:
                path[head] = path[v][:]
                path[head][k] = 1
                ends[head] = [x + row[k] for x, row in zip(ends[v], b)]
                queue.append(head)
    off, cycles = [], []
    for k, a in enumerate(quiver.arrows):
        if path[a.head][k]:  # a tree arrow ends the tree path to its head
            continue
        if any(x + row[k] - y for x, y, row in zip(ends[a.tail], ends[a.head], b)):
            raise CertificateError(f"the tree cycle of arrow {k} is not in the kernel of b")
        z = [x - y for x, y in zip(path[a.tail], path[a.head])]
        z[k] += 1
        off.append(k)
        cycles.append(z)
    return off, cycles


def verify_kernel_lattice(quiver: McKayQuiver) -> None:
    """Commutation vectors span exactly the integer kernel of the full incidence matrix.

    In the tree-cycle coordinates of ker b, ker c is the kernel of the cycle types d * z_k.
    """
    inc = incidence_matrices(quiver)
    rank = int_rank(inc.b)
    if rank != quiver.r - 1:
        raise CertificateError(f"b has rank {rank}, not {quiver.r - 1}")
    off, cycles = _tree_cycles(quiver, inc.b)
    gens = kernel_generators_cij(quiver)
    if any(any(mat_vec(inc.c, g)) for g in gens):
        raise CertificateError("kernel lattices differ")
    types = list(zip(*(mat_vec(inc.d, z) for z in cycles)))
    if row_hnf([[g[k] for k in off] for g in gens]) != row_hnf(kernel_basis(types)):
        raise CertificateError("kernel lattices differ")


def random_parameter(quiver: McKayQuiver, rng: random.Random, spread: int = 5):
    """A random integral stability parameter summing to zero."""
    vals = [rng.randint(-spread, spread) for _ in range(quiver.r - 1)]
    return tuple(vals + [-sum(vals)])


def verify_theta_routing(quiver: McKayQuiver) -> None:
    """theta_decompose returns nonnegative integer flows routing ten random parameters."""
    rng = random.Random(0)
    inc = incidence_matrices(quiver)
    for _ in range(10):
        theta = random_parameter(quiver, rng)
        u = theta_decompose(quiver, theta)
        if not all(isinstance(x, int) and x >= 0 for x in u):
            raise CertificateError(f"flow {u} for theta {theta} is not a nonnegative integer vector")
        if tuple(mat_vec(inc.b, u)) != theta:
            raise CertificateError(f"flow {u} does not route theta {theta}")


def verify_closed_walks(quiver: McKayQuiver) -> None:
    """Every integer cycle is an integer sum of tree cycles, closed walks at vertex 0."""
    b = incidence_matrices(quiver).b
    off, cycles = _tree_cycles(quiver, b)
    support = [[(i, x) for i, x in enumerate(z) if x] for z in cycles]
    for u in kernel_basis(b):
        total = [0] * quiver.num_arrows
        for k, entries in zip(off, support):
            if u[k]:
                for i, x in entries:
                    total[i] += u[k] * x
        if total != list(u):
            raise CertificateError(f"kernel vector {u} is not a sum of tree cycles")


def verify_cycle_types(quiver: McKayQuiver) -> None:
    """The types d * z_k of the tree cycles (basis of ker_Z b) span M, the trivial-degree lattice."""
    inc = incidence_matrices(quiver)
    types = row_hnf([mat_vec(inc.d, z) for z in _tree_cycles(quiver, inc.b)[1]])
    g, k = quiver.group, len(quiver.group.orders)
    # m has trivial degree exactly when weights * m + diag(orders) * y = 0 for an integer y.
    rows = [g.weights[j] + tuple(g.orders[j] * (t == j) for t in range(k)) for j in range(k)]
    lattice = row_hnf([v[: quiver.n] for v in kernel_basis(rows)])
    if types != lattice:
        raise CertificateError(f"cycle types span {types}, not the trivial-degree lattice {lattice}")


def verify_flow_vertex_integrality(quiver: McKayQuiver) -> None:
    """Vertices of the flow polyhedron are integral for two random integral parameters."""
    rng = random.Random(2)
    for _ in range(2):
        theta = random_parameter(quiver, rng, spread=2)
        v = h_to_v(lifted_flow_polyhedron(quiver, theta))
        if v.is_empty:
            raise CertificateError(f"flow polyhedron of theta {theta} is empty")
        for vert in v.vertices:
            if any(x.denominator != 1 for x in vert):
                raise CertificateError(f"flow vertex {vert} is not integral")


def verify_construction_agreement(quiver: McKayQuiver) -> None:
    """The oracle and lifted constructions give identical canonical output."""
    theta = random_parameter(quiver, random.Random(3), spread=2)
    a = theta_polyhedron(quiver, theta)
    b = lifted_theta_polyhedron(quiver, theta)
    if a.h != b.h:
        raise CertificateError("H-descriptions differ between constructions")
    if a.v != b.v:
        raise CertificateError("V-descriptions differ between constructions")


def run_all(quiver: McKayQuiver):
    """Run every check suited to the quiver's size; returns (name, passed, detail) rows."""
    # Names are read at call time, so a rebound verify_* (a tracer, a test) is the one run.
    checks = [
        ("kernel-lattice", verify_kernel_lattice),
        ("theta-routing", verify_theta_routing),
        ("closed-walks", verify_closed_walks),
        ("cycle-types", verify_cycle_types),
    ]
    if quiver.r * quiver.n <= 16:
        checks.append(("flow-vertex-integrality", verify_flow_vertex_integrality))
        checks.append(("construction-agreement", verify_construction_agreement))
    results = []
    for name, fn in checks:
        try:
            fn(quiver)
            results.append((name, True, ""))
        except (CertificateError, InputError) as exc:
            results.append((name, False, str(exc)))
    return results

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
from .intlinalg import kernel_basis, mat_vec, row_hnf
from .moduli import lifted_flow_polyhedron, lifted_theta_polyhedron, theta_polyhedron
from .polyhedra import h_to_v


def _tree_cycles(quiver: McKayQuiver) -> tuple[list[int], list[list[int]], list[int]]:
    """The arrows k off one breadth-first tree of forward arrows from vertex 0, their cycle
    types, and the tree arrows in breadth-first order.

    The cycle z_k follows the tree path to the tail of k, then k, then the tree path back
    from its head; it is e_k on the off-tree arrows.  Its type d * z_k is labels[tail] +
    e_label - labels[head], where labels[v] counts the labels on the tree path to v.
    """
    leaving = [[] for _ in range(quiver.r)]
    for k, a in enumerate(quiver.arrows):
        leaving[a.tail].append((k, a))
    labels, tree = [None] * quiver.r, []  # closed-walks certifies the tree reaches every vertex
    labels[0] = [0] * quiver.n
    for v in (queue := [0]):
        for k, a in leaving[v]:
            if labels[a.head] is None:
                labels[a.head] = labels[v][:]
                labels[a.head][a.label - 1] += 1
                tree.append(k)
                queue.append(a.head)
    on_tree, off, types = set(tree), [], []
    for k, a in enumerate(quiver.arrows):
        if k not in on_tree:
            off.append(k)
            types.append([x - y for x, y in zip(labels[a.tail], labels[a.head])])
            types[-1][a.label - 1] += 1
    return off, types, tree


def verify_kernel_lattice(quiver: McKayQuiver) -> None:
    """Commutation vectors span exactly the integer kernel of the full incidence matrix.

    In the tree-cycle basis of ker_Z b (see closed-walks), ker_Z c is the kernel of the types.
    """
    c = incidence_matrices(quiver).c
    off, types, _ = _tree_cycles(quiver)
    gens = kernel_generators_cij(quiver)
    if any(any(mat_vec(c, g)) for g in gens):
        raise CertificateError("kernel lattices differ")
    if row_hnf([[g[k] for k in off] for g in gens]) != row_hnf(kernel_basis(list(zip(*types)))):
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
    """Every integer cycle is an integer sum of tree cycles, closed walks at vertex 0.

    Column k of b is arrow k's head less its tail, and each tree arrow, in breadth-first order,
    reaches a new vertex from a reached one, r - 1 in all.  On those vertices' rows the tree
    columns of b are unit triangular: rank b = r - 1 (the columns sum to zero), and restriction
    to the off-tree arrows is an isomorphism ker_Z b -> Z^off, whose inverse sends e_k to z_k.
    """
    arrows, b = quiver.arrows, incidence_matrices(quiver).b
    for k, (a, column) in enumerate(zip(arrows, map(list, zip(*b)), strict=True)):
        column[a.head] -= 1
        column[a.tail] += 1
        if any(column):
            raise CertificateError(f"column {k} of b is not arrow {k}'s head less its tail")
    reached = {0}
    for k in _tree_cycles(quiver)[2]:
        if arrows[k].tail not in reached or arrows[k].head in reached:
            raise CertificateError(f"tree arrow {k} does not reach a new vertex from a reached one")
        reached.add(arrows[k].head)
    if len(reached) != quiver.r:
        raise CertificateError(f"the tree reaches {len(reached)} of {quiver.r} vertices")


def verify_cycle_types(quiver: McKayQuiver) -> None:
    """The types d * z_k of the tree cycles (basis of ker_Z b) span M, the trivial-degree lattice."""
    types = row_hnf(_tree_cycles(quiver)[1])
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

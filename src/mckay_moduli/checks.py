"""Executable consistency checks tying the combinatorics to the polyhedra.

Each check returns None on success and raises CertificateError with a
witness on failure; the checks are explicit raises, so python -O keeps them.
run_all packages them for the command line, and reports a CertificateError
or InputError raised inside a check as a failed row.  These are the
package's own cross-validation suite: kernel lattices against commutation
vectors, routing of stability parameters, closed-walk decompositions, cycle
types, flow vertex integrality, and agreement of the two type-polyhedron
constructions.
"""

from __future__ import annotations

import random

from .errors import CertificateError, InputError
from .groups import (
    McKayQuiver,
    closed_walk_from_kernel,
    incidence_matrices,
    kernel_generators_cij,
    theta_decompose,
)
from .intlinalg import kernel_basis, mat_vec, row_hnf
from .moduli import lifted_flow_polyhedron, theta_polyhedron
from .polyhedra import h_to_v


def verify_kernel_lattice(quiver: McKayQuiver) -> None:
    """Commutation vectors span exactly the integer kernel of the full incidence matrix."""
    inc = incidence_matrices(quiver)
    gens = kernel_generators_cij(quiver)
    basis = kernel_basis(inc.c)
    if row_hnf(gens) != row_hnf(basis):
        raise CertificateError("kernel lattices differ")


def random_parameter(quiver: McKayQuiver, rng: random.Random, spread: int = 5):
    """A random integral stability parameter summing to zero."""
    vals = [rng.randint(-spread, spread) for _ in range(quiver.r - 1)]
    return tuple(vals + [-sum(vals)])


def verify_theta_routing(quiver: McKayQuiver, trials: int = 10, seed: int = 0) -> None:
    """theta_decompose returns nonnegative integer flows routing theta."""
    rng = random.Random(seed)
    inc = incidence_matrices(quiver)
    for _ in range(trials):
        theta = random_parameter(quiver, rng)
        u = theta_decompose(quiver, theta)
        if not all(isinstance(x, int) and x >= 0 for x in u):
            raise CertificateError(f"flow {u} for theta {theta} is not a nonnegative integer vector")
        if tuple(mat_vec(inc.b, u)) != theta:
            raise CertificateError(f"flow {u} does not route theta {theta}")


def verify_closed_walks(quiver: McKayQuiver, trials: int = 10, seed: int = 1) -> None:
    """Random combinations of an integer kernel basis of b decompose into one closed walk."""
    rng = random.Random(seed)
    basis = kernel_basis(incidence_matrices(quiver).b)
    arrows = quiver.arrows
    for _ in range(trials):
        u = [0] * quiver.num_arrows
        for vec in basis:
            c = rng.randint(-2, 2)
            if c:
                u = [a + c * x for a, x in zip(u, vec)]
        walk = closed_walk_from_kernel(quiver, u)
        net = [0] * quiver.num_arrows
        for k, sign in walk:
            net[k] += sign
        if net != list(u):
            raise CertificateError("walk does not reproduce the vector")
        if not walk:
            continue
        first = walk[0]
        cur = arrows[first[0]].tail if first[1] > 0 else arrows[first[0]].head
        start = cur
        for k, sign in walk:
            a = arrows[k]
            if cur != (a.tail if sign > 0 else a.head):
                raise CertificateError("walk breaks contiguity")
            cur = a.head if sign > 0 else a.tail
        if cur != start:
            raise CertificateError("walk does not close up")


def verify_cycle_types(quiver: McKayQuiver) -> None:
    """The types d * u of the integer cycles u (kernel of b) span M, the trivial-degree lattice."""
    inc = incidence_matrices(quiver)
    types = row_hnf([mat_vec(inc.d, u) for u in kernel_basis(inc.b)])
    g, k = quiver.group, len(quiver.group.orders)
    # m has trivial degree exactly when weights * m + diag(orders) * y = 0 for an integer y.
    rows = [g.weights[j] + tuple(g.orders[j] * (t == j) for t in range(k)) for j in range(k)]
    lattice = row_hnf([v[: quiver.n] for v in kernel_basis(rows)])
    if types != lattice:
        raise CertificateError(f"cycle types span {types}, not the trivial-degree lattice {lattice}")


def verify_flow_vertex_integrality(quiver: McKayQuiver, trials: int = 2, seed: int = 2) -> None:
    """Vertices of the flow polyhedron are integral for integral parameters."""
    rng = random.Random(seed)
    for _ in range(trials):
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
    a = theta_polyhedron(quiver, theta, method="oracle")
    b = theta_polyhedron(quiver, theta, method="lifted")
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

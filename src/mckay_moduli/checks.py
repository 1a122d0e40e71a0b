"""Executable consistency checks tying the combinatorics to the polyhedra.

Each check returns None on success and raises CertificateError with a
witness on failure; the checks are explicit raises, so python -O keeps them.
run_all packages them for the command line.  These are the package's own
cross-validation suite: kernel lattices against commutation vectors, routing
of stability parameters, closed-walk decompositions, cycle types, flow vertex
integrality, and agreement of the two type-polyhedron constructions.
"""

from __future__ import annotations

import random
from itertools import combinations

from .errors import CertificateError
from .groups import (
    McKayQuiver,
    closed_walk_from_kernel,
    cycle_from_type,
    incidence_matrices,
    kernel_generators_cij,
    theta_decompose,
)
from .intlinalg import kernel_basis, mat_vec, row_hnf
from .moduli import _invariant_ball, lifted_flow_polyhedron, theta_polyhedron
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


def verify_theta_routing(quiver: McKayQuiver, trials: int = 20, seed: int = 0) -> None:
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


def verify_closed_walks(quiver: McKayQuiver, trials: int = 20, seed: int = 1) -> None:
    """Kernel vectors of the vertex incidence matrix decompose into one closed walk.

    Odd trials (when n > 1) add two random commutation vectors, the second
    drawn from those whose vertex sets miss the first's whenever there are
    any, so that the walk's connector runs too; when no two of them are
    vertex-disjoint, they add a vertex-disjoint pair of kernel basis vectors.
    """
    rng = random.Random(seed)
    inc = incidence_matrices(quiver)
    basis = kernel_basis(inc.b)
    squares = kernel_generators_cij(quiver)
    arrows = quiver.arrows

    def vertex_sets(vectors):
        return [{v for k, x in enumerate(vec) if x for v in arrows[k][:2]} for vec in vectors]

    touched = vertex_sets(squares)
    pairs = []
    if not any(a.isdisjoint(b) for a, b in combinations(touched, 2)):
        spans = combinations(zip(basis, vertex_sets(basis)), 2)
        pairs = [(x, y) for (x, a), (y, b) in spans if a.isdisjoint(b)]
    for t in range(trials):
        if t % 2 and pairs:
            u = [a + b for a, b in zip(*rng.choice(pairs))]
        elif t % 2 and squares:
            i = rng.randrange(len(squares))
            apart = [j for j, vs in enumerate(touched) if vs.isdisjoint(touched[i])]
            j = rng.choice(apart) if apart else rng.randrange(len(squares))
            u = [a + b for a, b in zip(squares[i], squares[j])]
        else:
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


def verify_cycle_types(quiver: McKayQuiver, bound: int = 6) -> None:
    """Every bounded trivial-degree type defines a closed walk at every base vertex."""
    inc = incidence_matrices(quiver)
    for m in _invariant_ball(quiver.group, bound):
        for base in quiver.vertices:
            v = cycle_from_type(quiver, base, m)
            if any(mat_vec(inc.b, v)):
                raise CertificateError("cycle vector leaves the kernel")
            if tuple(mat_vec(inc.d, v)) != tuple(m):
                raise CertificateError("cycle type mismatch")


def verify_flow_vertex_integrality(
    quiver: McKayQuiver, trials: int = 3, seed: int = 2
) -> None:
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


def verify_construction_agreement(quiver: McKayQuiver, theta) -> None:
    """The oracle and lifted constructions give identical canonical output."""
    a = theta_polyhedron(quiver, theta, method="oracle")
    b = theta_polyhedron(quiver, theta, method="lifted")
    if a.h != b.h:
        raise CertificateError("H-descriptions differ between constructions")
    if a.v != b.v:
        raise CertificateError("V-descriptions differ between constructions")


def run_all(quiver: McKayQuiver, bound: int = 4, seed: int = 0, trials: int = 10):
    """Run every check suited to the quiver's size; returns (name, passed, detail) rows."""
    checks = [
        ("kernel-lattice", lambda: verify_kernel_lattice(quiver)),
        ("theta-routing", lambda: verify_theta_routing(quiver, trials=trials, seed=seed)),
        ("closed-walks", lambda: verify_closed_walks(quiver, trials=trials, seed=seed + 1)),
        ("cycle-types", lambda: verify_cycle_types(quiver, bound=bound)),
    ]
    if quiver.r * quiver.n <= 16:
        checks.append(
            (
                "flow-vertex-integrality",
                lambda: verify_flow_vertex_integrality(quiver, trials=2, seed=seed + 2),
            )
        )
        rng = random.Random(seed + 3)
        theta = random_parameter(quiver, rng, spread=2)
        checks.append(
            (
                "construction-agreement",
                lambda: verify_construction_agreement(quiver, theta),
            )
        )
    results = []
    for name, fn in checks:
        try:
            fn()
            results.append((name, True, ""))
        except CertificateError as exc:
            results.append((name, False, str(exc)))
    return results

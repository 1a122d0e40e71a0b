"""Executable consistency checks tying the combinatorics to the polyhedra.

Each check returns None on success and raises AssertionError with a witness
on failure; run_all packages them for the command line.  These are the
package's own cross-validation suite: kernel lattices against commutation
vectors, routing of stability parameters, closed-walk decompositions, cycle
types, flow vertex integrality, and agreement of the two type-polyhedron
constructions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .groups import (
    McKayQuiver,
    closed_walk_from_kernel,
    cycle_from_type,
    incidence_matrices,
    kernel_generators_cij,
    theta_decompose,
)
from .intlinalg import kernel_basis, mat_vec, row_hnf
from .moduli import _l1_ball, theta_polyhedron
from .polyhedra import h_to_v


def verify_kernel_lattice(quiver: McKayQuiver) -> None:
    """Commutation vectors span exactly the integer kernel of the full incidence matrix."""
    inc = incidence_matrices(quiver)
    gens = kernel_generators_cij(quiver)
    basis = kernel_basis(inc.c)
    assert row_hnf(gens) == row_hnf(basis), "kernel lattices differ"


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
        assert all(isinstance(x, int) and x >= 0 for x in u)
        assert tuple(mat_vec(inc.b, u)) == theta, (theta, u)


def verify_closed_walks(quiver: McKayQuiver, trials: int = 20, seed: int = 1) -> None:
    """Kernel vectors of the vertex incidence matrix decompose into one closed walk."""
    rng = random.Random(seed)
    inc = incidence_matrices(quiver)
    basis = kernel_basis(inc.b)
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
        assert net == list(u), "walk does not reproduce the vector"
        if not walk:
            continue
        first = walk[0]
        arrows = quiver.arrows
        cur = arrows[first[0]].tail if first[1] > 0 else arrows[first[0]].head
        start = cur
        for k, sign in walk:
            a = arrows[k]
            if sign > 0:
                assert cur == a.tail, "walk breaks contiguity"
                cur = a.head
            else:
                assert cur == a.head, "walk breaks contiguity"
                cur = a.tail
        assert cur == start, "walk does not close up"


def verify_cycle_types(quiver: McKayQuiver, bound: int = 6) -> None:
    """Every bounded trivial-degree type defines a closed walk at every base vertex."""
    g = quiver.group
    inc = incidence_matrices(quiver)
    for m in _l1_ball(quiver.n, bound):
        if g.deg(m) != g.trivial:
            continue
        for base in quiver.vertices:
            pv = cycle_from_type(quiver, base, m)
            assert pv.type == tuple(m)
            assert not any(mat_vec(inc.b, pv.v)), "cycle vector leaves the kernel"
            assert tuple(mat_vec(inc.d, pv.v)) == tuple(m), "cycle type mismatch"


def verify_flow_vertex_integrality(
    quiver: McKayQuiver, trials: int = 3, seed: int = 2
) -> None:
    """Vertices of the flow polyhedron are integral for integral parameters."""
    from .moduli import lifted_flow_polyhedron

    rng = random.Random(seed)
    for _ in range(trials):
        theta = random_parameter(quiver, rng, spread=2)
        v = h_to_v(lifted_flow_polyhedron(quiver, theta))
        assert not v.is_empty
        for vert in v.vertices:
            assert all(Fraction(x).denominator == 1 for x in vert), vert


def verify_construction_agreement(quiver: McKayQuiver, theta) -> None:
    """The oracle and lifted constructions give identical canonical output."""
    a = theta_polyhedron(quiver, theta, method="oracle")
    b = theta_polyhedron(quiver, theta, method="lifted")
    assert a.h == b.h, "H-descriptions differ between constructions"
    assert a.v == b.v, "V-descriptions differ between constructions"


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
        except AssertionError as exc:
            results.append((name, False, str(exc)))
    return results

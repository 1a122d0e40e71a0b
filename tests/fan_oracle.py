"""Reference face lattice and chart reports of a normal fan.

The package stores a fan as its maximal cones and builds the cone of a
vector w when asked (polyhedra.locate_cone).  face_cones enumerates every
cone of the fan the way the package once did: each nonempty face of the
polyhedron is an intersection of facets, identified by its (vertex set,
recession-ray set), and its inner-normal cone is spanned by the normals of
every facet containing it.  The tests check locate_cone against it.

chart_report builds one vertex's chart the way the package once did, with
every dot product taken afresh per vertex and per difference; the tests
check moduli_fan's table-driven charts against it.
"""

from mckay_moduli import CertificateError, ChartReport
from mckay_moduli.polyhedra import _dot


def face_cones(h, v) -> dict:
    """Every cone of the inner-normal fan of (h, v): a frozenset of ray indices to its sorted tuple.

    h and v describe one nonempty pointed full-dimensional polyhedron; the
    zero cone, the normal cone of the whole polyhedron, is always present.
    """
    nfac = len(h.inequalities)
    nv = len(v.vertices)
    nr = len(v.rays)
    facet_verts = [
        frozenset(j for j in range(nv) if _dot(coeffs, v.vertices[j]) == rhs)
        for coeffs, rhs in h.inequalities
    ]
    facet_ray_zero = [
        frozenset(k for k in range(nr) if _dot(h.inequalities[i][0], v.rays[k]) == 0)
        for i in range(nfac)
    ]

    whole = (frozenset(range(nv)), frozenset(range(nr)))
    faces = {whole}
    atoms = [(facet_verts[i], facet_ray_zero[i]) for i in range(nfac)]
    frontier = [a for a in atoms if a[0]]
    faces.update(frontier)
    while frontier:
        new = []
        for fv, fr in frontier:
            for av, ar in atoms:
                cand = (fv & av, fr & ar)
                if cand[0] and cand not in faces:
                    faces.add(cand)
                    new.append(cand)
        frontier = new

    cones = {frozenset(): ()}
    for fv, fr in faces:
        full = frozenset(
            i for i in range(nfac) if fv <= facet_verts[i] and fr <= facet_ray_zero[i]
        )
        cones[full] = tuple(sorted(full))
    return cones


def chart_report(tp, fan, vidx, bound, ball) -> ChartReport:
    """The chart at vertex vidx of tp, from the invariant lattice ball (zero included)."""
    vert = tp.v.vertices[vidx]
    if any(x.denominator != 1 for x in vert):
        raise CertificateError(f"vertex {vidx} of the type polyhedron is not integral")
    m = tuple(int(x) for x in vert)
    cone_rows = [fan.rays[i] for i in fan.cones[vidx]]
    gens = []
    extra = []
    for q in ball:
        if not any(q):
            continue
        if any(_dot(row, q) < 0 for row in cone_rows):
            continue
        point = tuple(mi + qi for mi, qi in zip(m, q))
        inside = all(_dot(coeffs, point) >= rhs for coeffs, rhs in tp.h.inequalities)
        (gens if inside else extra).append(q)

    gen_set = sorted(gens)
    memo = {(0,) * tp.quiver.n: True}

    def reachable(q):
        if q in memo:
            return memo[q]
        memo[q] = False
        for gvec in gen_set:
            diff = tuple(a - b for a, b in zip(q, gvec))
            if all(_dot(row, diff) >= 0 for row in cone_rows):
                if reachable(diff):
                    memo[q] = True
                    break
        return memo[q]

    missing = tuple(q for q in sorted(extra) if not reachable(q))
    return ChartReport(vertex=m, bound=bound, generators=tuple(gen_set), missing=missing)

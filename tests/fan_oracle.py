"""Reference face lattice of a normal fan, by intersection closure.

The package stores a fan as its maximal cones and builds the cone of a
vector w when asked (polyhedra.locate_cone).  face_cones enumerates every
cone of the fan the way the package once did: each nonempty face of the
polyhedron is an intersection of facets, identified by its (vertex set,
recession-ray set), and its inner-normal cone is spanned by the normals of
every facet containing it.  The tests check locate_cone against it.
"""

from mckay_moduli import Cone, vertex_facet_incidence
from mckay_moduli.polyhedra import _clear_denominators, _dot


def face_cones(h, v) -> dict:
    """Every cone of the inner-normal fan of (h, v), keyed by its frozenset of ray indices.

    h and v describe one nonempty pointed full-dimensional polyhedron; the
    zero cone, the normal cone of the whole polyhedron, is always present.
    """
    inc = vertex_facet_incidence(h, v)
    rays = [_clear_denominators(coeffs) for coeffs, _ in h.inequalities]
    nfac = len(rays)
    nv = len(v.vertices)
    nr = len(v.rays)
    facet_verts = [frozenset(j for j in range(nv) if i in inc[j]) for i in range(nfac)]
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

    cones = {frozenset(): Cone(rays=(), indices=())}
    for fv, fr in faces:
        full = frozenset(
            i for i in range(nfac) if fv <= facet_verts[i] and fr <= facet_ray_zero[i]
        )
        idx = tuple(sorted(full))
        cones[full] = Cone(rays=tuple(rays[i] for i in idx), indices=idx)
    return cones

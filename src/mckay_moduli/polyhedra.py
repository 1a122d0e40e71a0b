"""Exact rational polyhedra in both descriptions, normal fans, cone location.

Polyhedra carry either an H-description (inequalities a.x >= b plus equations)
or a V-description (vertices, rays, lineality).  Conversions run a pure
integer double description method on the homogenization, so no floating point
ever enters.  Outputs are canonically sorted, making every conversion
independent of input row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import CertificateError, MismatchedDescriptions, OutsideSupport
from .intlinalg import int_rank, kernel_basis, row_hnf

Vec = tuple[int, ...]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(vec) -> Vec:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _clear_denominators(vec) -> Vec:
    """Scale a rational vector by a positive rational into a primitive integer vector."""
    fracs = [Fraction(x) for x in vec]
    mult = 1
    for f in fracs:
        mult = mult * f.denominator // gcd(mult, f.denominator)
    return _primitive(tuple(int(f * mult) for f in fracs))


def _qtuple(vec) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in vec)


@dataclass(frozen=True)
class HPolyhedron:
    """Solution set of inequalities a.x >= b and equations e.x == f.

    Rows are (coefficient tuple, right-hand side) pairs with exact rational
    entries.  Row order is preserved as given; conversion routines emit rows
    in canonical sorted order with primitive integer entries.
    """

    dim: int
    inequalities: tuple
    equations: tuple = ()

    def __post_init__(self):
        for coeffs, _ in tuple(self.inequalities) + tuple(self.equations):
            if len(coeffs) != self.dim:
                raise MismatchedDescriptions("row length does not match dimension")


@dataclass(frozen=True)
class VPolyhedron:
    """Convex hull of vertices plus the cone of rays plus a lineality space.

    The empty polyhedron is the instance with no vertices; any nonempty
    polyhedron stores at least one point.  Rays and lineality generators are
    primitive integer vectors.
    """

    dim: int
    vertices: tuple
    rays: tuple = ()
    lineality: tuple = ()

    @property
    def is_empty(self) -> bool:
        return not self.vertices


@dataclass(frozen=True)
class Cone:
    """Polyhedral cone spanned by primitive integer rays.

    indices, when set, point into the ray list of the fan that produced the
    cone.
    """

    ambient_dim: int
    rays: tuple
    indices: tuple = ()

    @property
    def dim(self) -> int:
        return int_rank(self.rays) if self.rays else 0


def _pointed_dd(rows, d):
    """Extreme rays of the pointed cone {x in Z^d : row . x >= 0 for all rows}.

    The rows must have full rank d.  Returns primitive integer rays in the
    order produced; callers sort.  Uses the incremental double description
    method with bitmask tight sets and the combinatorial adjacency test,
    evaluated on per-row bitsets of tight rays.
    """
    work = [tuple(r) for r in rows if any(r)]
    sel: list[int] = []
    chosen: list[tuple] = []
    rank = 0
    for idx, row in enumerate(work):
        if rank == d:
            break
        cand = int_rank(chosen + [row])
        if cand > rank:
            sel.append(idx)
            chosen.append(row)
            rank = cand
    if rank < d:
        raise ValueError("cone is not pointed")

    # Initial rays solve A_sel * r_j = c_j * e_j with c_j > 0, via exact inversion.
    mat = [[Fraction(x) for x in work[i]] for i in sel]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for col in range(d):
        piv = next(i for i in range(col, d) if mat[i][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = mat[col][col]
        mat[col] = [x / scale for x in mat[col]]
        inv[col] = [x / scale for x in inv[col]]
        for i in range(d):
            if i != col and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    vecs = []
    masks = []
    all_sel_bits = 0
    for i in sel:
        all_sel_bits |= 1 << i
    for j in range(d):
        column = [inv[i][j] for i in range(d)]
        vecs.append(_clear_denominators(column))
        masks.append(all_sel_bits & ~(1 << sel[j]))

    selset = set(sel)
    for b, a in enumerate(work):
        if b in selset:
            continue
        svals = [_dot(a, v) for v in vecs]
        pos = [i for i, s in enumerate(svals) if s > 0]
        neg = [i for i, s in enumerate(svals) if s < 0]
        zer = [i for i, s in enumerate(svals) if s == 0]
        if not neg:
            for i in zer:
                masks[i] |= 1 << b
            continue
        # rays_at[row]: bitset of the current rays tight at that processed row.
        # A pair is adjacent exactly when no third ray is tight on every row
        # the pair shares, i.e. when the AND of rays_at over those rows is the pair.
        rays_at = [0] * len(work)
        for i, mask in enumerate(masks):
            bit = 1 << i
            while mask:
                low = mask & -mask
                rays_at[low.bit_length() - 1] |= bit
                mask ^= low
        all_rays = (1 << len(vecs)) - 1
        new_vecs = []
        new_masks = []
        for ip in pos:
            mp, sp = masks[ip], svals[ip]
            vp = vecs[ip]
            for iq in neg:
                common = mp & masks[iq]
                if common.bit_count() < d - 2:
                    continue
                both = all_rays
                rest = common
                while rest:
                    low = rest & -rest
                    both &= rays_at[low.bit_length() - 1]
                    if both.bit_count() == 2:
                        break
                    rest ^= low
                if both.bit_count() != 2:
                    continue
                sq = svals[iq]
                vq = vecs[iq]
                w = _primitive(tuple(sp * y - sq * x for x, y in zip(vp, vq)))
                new_vecs.append(w)
                new_masks.append(common | (1 << b))
        keep_vecs = [vecs[i] for i in pos] + [vecs[i] for i in zer] + new_vecs
        keep_masks = (
            [masks[i] for i in pos]
            + [masks[i] | (1 << b) for i in zer]
            + new_masks
        )
        vecs, masks = keep_vecs, keep_masks
    return vecs


def _unit_rows(d):
    return [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]


def cone_double_description(ineq_rows, eq_rows, dim):
    """V-description (rays, lineality) of {x : ineq . x >= 0, eq . x == 0}.

    Input rows are integer vectors of length dim.  Rays come back primitive
    and lexicographically sorted; the lineality basis is in Hermite normal
    form, so the output is canonical.
    """
    if eq_rows:
        sub = kernel_basis(eq_rows)
        if not sub:
            return [], []
    else:
        sub = _unit_rows(dim)
    d2 = len(sub)
    rows2 = [tuple(_dot(row, s) for s in sub) for row in ineq_rows]
    rows2 = [r for r in rows2 if any(r)]
    if rows2:
        lin2 = kernel_basis(rows2)
    else:
        lin2 = _unit_rows(d2)
    if lin2:
        cols = []
        chosen = list(lin2)
        rank = int_rank(chosen)
        for j in range(d2):
            unit = tuple(1 if t == j else 0 for t in range(d2))
            cand = int_rank(chosen + [unit])
            if cand > rank:
                cols.append(j)
                chosen.append(unit)
                rank = cand
        rows3 = [tuple(r[j] for j in cols) for r in rows2]
        rows3 = [r for r in rows3 if any(r)]
        d3 = len(cols)
    else:
        cols = list(range(d2))
        rows3 = rows2
        d3 = d2
    if d3 and rows3:
        rays3 = _pointed_dd(rows3, d3)
    else:
        rays3 = []

    def back(y_quotient) -> Vec:
        x2 = [0] * d2
        for t, j in enumerate(cols):
            x2[j] = y_quotient[t]
        amb = [0] * dim
        for coef, srow in zip(x2, sub):
            if coef:
                amb = [a + coef * s for a, s in zip(amb, srow)]
        return _primitive(tuple(amb))

    rays = sorted(back(y) for y in rays3)
    lin_ambient = []
    for lvec in lin2:
        amb = [0] * dim
        for coef, srow in zip(lvec, sub):
            if coef:
                amb = [a + coef * s for a, s in zip(amb, srow)]
        lin_ambient.append(tuple(amb))
    lineality = list(row_hnf(lin_ambient)) if lin_ambient else []
    return rays, lineality


def h_to_v(h: HPolyhedron) -> VPolyhedron:
    """Vertices, rays and lineality of an H-description.

    The empty polyhedron comes back as the VPolyhedron with no generators.
    """
    d = h.dim
    ineq_rows = [(0,) * d + (1,)]
    for coeffs, rhs in h.inequalities:
        ineq_rows.append(_clear_denominators(tuple(coeffs) + (-Fraction(rhs),)))
    eq_rows = [
        _clear_denominators(tuple(coeffs) + (-Fraction(rhs),))
        for coeffs, rhs in h.equations
    ]
    rays, lineality = cone_double_description(ineq_rows, eq_rows, d + 1)
    verts = []
    vrays = []
    for z in rays:
        t = z[-1]
        if t < 0:
            raise CertificateError(f"homogenizing coordinate of ray {z} is negative")
        if t > 0:
            verts.append(tuple(Fraction(x, t) for x in z[:-1]))
        else:
            vrays.append(_primitive(z[:-1]))
    lin = []
    for z in lineality:
        if z[-1] != 0:
            raise CertificateError(f"lineality generator {z} leaves the hyperplane t = 0")
        lin.append(z[:-1])
    if not verts:
        return VPolyhedron(dim=d, vertices=(), rays=(), lineality=())
    return VPolyhedron(
        dim=d,
        vertices=tuple(sorted(verts)),
        rays=tuple(sorted(vrays)),
        lineality=tuple(lin),
    )


def _reduce_mod(vec, hnf_rows):
    """Canonical representative of vec modulo the lattice spanned by HNF rows."""
    out = list(vec)
    for row in hnf_rows:
        c = next(i for i, x in enumerate(row) if x)
        q = out[c] // row[c]
        if q:
            out = [a - q * b for a, b in zip(out, row)]
    return tuple(out)


def v_to_h(v: VPolyhedron) -> HPolyhedron:
    """Irredundant H-description of a nonempty V-description.

    Facet inequalities are primitive integer rows in sorted order; implicit
    equations are separated out in Hermite normal form.  Inequality rows are
    reduced modulo the equation lattice, so the representation is canonical.
    """
    if v.is_empty:
        raise ValueError("cannot convert an empty V-description")
    d = v.dim
    gen_rows = [_clear_denominators(_qtuple(vert) + (Fraction(1),)) for vert in v.vertices]
    gen_rows += [tuple(ray) + (0,) for ray in v.rays]
    eq_rows = [tuple(l) + (0,) for l in v.lineality]
    rays, lineality = cone_double_description(gen_rows, eq_rows, d + 1)
    eq_hnf = list(row_hnf(lineality)) if lineality else []
    inequalities = []
    for z in rays:
        red = _primitive(_reduce_mod(z, eq_hnf))
        coeffs, c = red[:-1], red[-1]
        if not any(coeffs):
            if c < 0:
                raise CertificateError(f"inconsistent trivial inequality 0 >= {-c}")
            continue
        inequalities.append((coeffs, -c))
    inequalities.sort()
    equations = tuple((z[:-1], -z[-1]) for z in eq_hnf)
    return HPolyhedron(dim=d, inequalities=tuple(inequalities), equations=equations)


def project(v: VPolyhedron, rows) -> VPolyhedron:
    """Image of a V-description under an integer linear map given by rows.

    Duplicate and interior generators are pruned: the result is the canonical
    minimal V-description of the image.
    """
    m = len(rows)
    if v.is_empty:
        return VPolyhedron(dim=m, vertices=(), rays=(), lineality=())
    # Each vertex becomes integer numerators over the lcm of its denominators,
    # so the images are integer dot products; (image, lcm) made primitive is
    # canonical, and Fractions are built only for the distinct images.
    images = set()
    for vert in v.vertices:
        den = lcm(*(x.denominator for x in vert))
        nums = [x.numerator * (den // x.denominator) for x in vert]
        images.add(_primitive(tuple(_dot(row, nums) for row in rows) + (den,)))
    pts = sorted(tuple(Fraction(x, img[-1]) for x in img[:-1]) for img in images)
    rys = sorted(
        {
            pr
            for ray in v.rays
            if any(pr := _primitive(tuple(_dot(row, ray) for row in rows)))
        }
    )
    lin = [
        pl
        for l in v.lineality
        if any(pl := _primitive(tuple(_dot(row, l) for row in rows)))
    ]
    raw = VPolyhedron(
        dim=m,
        vertices=tuple(_qtuple(p) for p in pts),
        rays=tuple(rys),
        lineality=tuple(lin),
    )
    return h_to_v(v_to_h(raw))


def vertex_facet_incidence(h: HPolyhedron, v: VPolyhedron) -> list[frozenset]:
    """Per-vertex sets of inequality indices met with equality.

    Also verifies that every generator of v satisfies h, raising
    MismatchedDescriptions otherwise.
    """
    if h.dim != v.dim:
        raise MismatchedDescriptions("dimension mismatch")
    for coeffs, rhs in h.equations:
        for vert in v.vertices:
            if _dot(coeffs, vert) != rhs:
                raise MismatchedDescriptions("vertex violates an equation")
        for gen in tuple(v.rays) + tuple(v.lineality):
            if _dot(coeffs, gen) != 0:
                raise MismatchedDescriptions("ray violates an equation")
    out = []
    for vert in v.vertices:
        tight = set()
        for idx, (coeffs, rhs) in enumerate(h.inequalities):
            s = _dot(coeffs, vert) - rhs
            if s < 0:
                raise MismatchedDescriptions("vertex violates an inequality")
            if s == 0:
                tight.add(idx)
        out.append(frozenset(tight))
    for ray in v.rays:
        for coeffs, _ in h.inequalities:
            if _dot(coeffs, ray) < 0:
                raise MismatchedDescriptions("ray violates an inequality")
    for l in v.lineality:
        for coeffs, _ in h.inequalities:
            if _dot(coeffs, l) != 0:
                raise MismatchedDescriptions("lineality violates an inequality")
    return out


class Fan:
    """Inner-normal fan of a full-dimensional pointed polyhedron.

    Rays are the facet normals, indexed exactly like the inequalities of the
    source H-description.  Cones are stored as frozensets of ray indices; one
    maximal cone per vertex, marked by that vertex.
    """

    def __init__(self, rays, cones, maximal, markers, vertices, rec_rays, facet_ray_zero):
        self.rays = rays
        self.cones = cones
        self.maximal = maximal
        self.markers = markers
        self.vertices = vertices
        self.rec_rays = rec_rays
        self._facet_ray_zero = facet_ray_zero

    def cone(self, indices) -> Cone:
        return self.cones[frozenset(indices)]


def normal_fan(h: HPolyhedron, v: VPolyhedron) -> Fan:
    """Fan of inner-normal cones of the faces of a polyhedron.

    Requires matching descriptions of a nonempty pointed full-dimensional
    polyhedron (no equations, no lineality).
    """
    if v.is_empty or v.lineality:
        raise ValueError("normal fan needs a nonempty pointed polyhedron")
    if h.equations:
        raise ValueError("normal fan needs a full-dimensional polyhedron")
    inc = vertex_facet_incidence(h, v)
    rays = [_clear_denominators(coeffs) for coeffs, _ in h.inequalities]
    nfac = len(rays)
    nv = len(v.vertices)
    nr = len(v.rays)
    for tight in inc:
        if int_rank([tuple(h.inequalities[i][0]) for i in tight]) != h.dim:
            raise MismatchedDescriptions("vertex is not a basic point of the H-description")

    facet_verts = [frozenset(j for j in range(nv) if i in inc[j]) for i in range(nfac)]
    facet_ray_zero = [
        frozenset(k for k in range(nr) if _dot(h.inequalities[i][0], v.rays[k]) == 0)
        for i in range(nfac)
    ]

    # Faces are identified by (vertex set, ray set); every nonempty face is an
    # intersection of facets, and the whole polyhedron is the empty intersection.
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

    cones = {}
    for fv, fr in faces:
        full = frozenset(
            i for i in range(nfac) if fv <= facet_verts[i] and fr <= facet_ray_zero[i]
        )
        if full not in cones:
            cones[full] = Cone(
                ambient_dim=h.dim,
                rays=tuple(rays[i] for i in sorted(full)),
                indices=tuple(sorted(full)),
            )
    zero = frozenset()
    if zero not in cones:
        cones[zero] = Cone(ambient_dim=h.dim, rays=(), indices=())

    maximal = [frozenset(t) for t in inc]
    markers = {frozenset(t): vert for t, vert in zip(inc, v.vertices)}
    return Fan(
        rays=rays,
        cones=cones,
        maximal=maximal,
        markers=markers,
        vertices=v.vertices,
        rec_rays=v.rays,
        facet_ray_zero=facet_ray_zero,
    )


def locate_cone(fan: Fan, w) -> Cone:
    """The fan cone whose relative interior contains the vector w.

    This is the inner-normal cone of the face of the source polyhedron on
    which w is minimized; OutsideSupport is raised when the minimum does not
    exist.
    """
    w = _qtuple(w)
    for ray in fan.rec_rays:
        if _dot(w, ray) < 0:
            raise OutsideSupport("vector is negative on a recession direction")
    vals = [_dot(w, vert) for vert in fan.vertices]
    mn = min(vals)
    argmin = [j for j, x in enumerate(vals) if x == mn]
    zero_rays = frozenset(
        k for k in range(len(fan.rec_rays)) if _dot(w, fan.rec_rays[k]) == 0
    )
    tight = frozenset.intersection(*(fan.maximal[j] for j in argmin))
    full = frozenset(
        i for i in tight if zero_rays <= fan._facet_ray_zero[i]
    )
    return fan.cones[full]

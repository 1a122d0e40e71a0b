"""Exact rational polyhedra in both descriptions, normal fans, cone location.

Polyhedra carry either an H-description (inequalities a.x >= b plus equations)
or a V-description (vertices and rays).  Every polyhedron here is pointed, as
the type polyhedra and lifted flow polyhedra are: conversions run a pure
integer double description method on the homogenization, which must be a
pointed cone, and raise ModuliError otherwise.  No floating point ever
enters.  Vertex coordinates are plain ints when the vertex is integral
and Fractions otherwise; the two compare, hash and sort alike, so equality
and the canonical order do not depend on which is stored.  Outputs are
canonically sorted, making every conversion independent of input row order.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import CertificateError, InputError, ModuliError
from .intlinalg import independent_rows, int_rank, kernel_basis

Vec = tuple[int, ...]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(vec) -> Vec:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _homogeneous(vec) -> Vec:
    """Primitive integer (numerators..., den) with vec = numerators / den.

    Entries are ints or Fractions; den is the lcm of their denominators,
    which makes the tuple primitive.
    """
    den = lcm(*(x.denominator for x in vec))
    return tuple(x.numerator * (den // x.denominator) for x in vec) + (den,)


def _clear_denominators(vec) -> Vec:
    """Scale a rational vector by a positive rational into a primitive integer vector."""
    return _primitive(_homogeneous(vec)[:-1])


class HPolyhedron(namedtuple("HPolyhedron", "dim inequalities equations")):
    """Solution set of inequalities a.x >= b and equations e.x == f.

    Rows are (coefficient tuple, right-hand side) pairs with exact rational
    entries.  Row order is preserved as given; conversion routines emit rows
    in canonical sorted order with primitive integer entries.
    """

    __slots__ = ()

    def __new__(cls, dim, inequalities, equations=()):
        if any(len(coeffs) != dim for coeffs, _ in (*inequalities, *equations)):
            raise ModuliError("row length does not match dimension")
        return super().__new__(cls, dim, inequalities, equations)


class VPolyhedron(namedtuple("VPolyhedron", "dim vertices rays", defaults=((),))):
    """Convex hull of vertices plus the cone of rays.

    The empty polyhedron is the instance with no vertices; any nonempty
    polyhedron stores at least one point.  Vertex coordinates are ints when
    the vertex is integral and Fractions otherwise.  Rays are primitive
    integer vectors.
    """

    __slots__ = ()

    @property
    def is_empty(self) -> bool:
        return not self.vertices


def _initial_rays(mat):
    """Primitive integer columns of sign(det) * adj(mat) for a nonsingular integer matrix.

    Column j is the extreme ray of {x : mat x >= 0} off the j-th facet.  A
    fraction-free (Bareiss) Gauss-Jordan pass turns [mat | I] into
    [D I | D mat^-1] with D = +-det(mat); every division in it is exact.
    """
    d = len(mat)
    aug = [list(row) + [1 if i == j else 0 for j in range(d)] for i, row in enumerate(mat)]
    prev = 1
    for k in range(d):
        piv = next(i for i in range(k, d) if aug[i][k])
        aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k][k]
        rowk = aug[k]
        for i in range(d):
            if i != k:
                rowi = aug[i]
                f = rowi[k]
                aug[i] = [(pk * x - f * y) // prev for x, y in zip(rowi, rowk)]
        prev = pk
    sign = 1 if prev > 0 else -1
    return [_primitive([sign * aug[i][d + j] for i in range(d)]) for j in range(d)]


def _pointed_dd(rows, d):
    """Extreme rays of the pointed cone {x in Z^d : row . x >= 0 for all rows}.

    The rows must have full rank d.  Returns primitive integer rays in the
    order produced; callers sort.  Uses the incremental double description
    method (Fukuda-Prodon 1996) with bitmask tight sets and the combinatorial
    adjacency test: a pair of rays is adjacent when no third ray is tight on
    every row the pair shares.  Each (positive, negative) pair, in index
    order, is skipped unless it shares at least d - 2 tight rows; otherwise
    the test ANDs rays_at[row], the bitset of the current rays tight at each
    processed row, over the shared rows, and the pair is adjacent exactly
    when only its own two bits remain.
    """
    work = [tuple(r) for r in rows if any(r)]
    sel = independent_rows(work)
    if len(sel) < d:
        raise ModuliError("cone is not pointed")

    # The selected rows come first; the initial rays solve A_sel * r_j = c_j * e_j
    # with c_j > 0, so ray j is tight on every selected row but row j.
    work = [work[i] for i in sel] + [a for i, a in enumerate(work) if i not in sel]
    vecs = _initial_rays(work[:d])
    masks = [((1 << d) - 1) ^ (1 << j) for j in range(d)]

    for b in range(d, len(work)):
        a = work[b]
        svals = [0] * len(vecs)
        for i, c in enumerate(a):
            if c:
                svals = [s + c * v[i] for s, v in zip(svals, vecs)]
        pos = [i for i, s in enumerate(svals) if s > 0]
        neg = [i for i, s in enumerate(svals) if s < 0]
        zer = [i for i, s in enumerate(svals) if s == 0]
        if not neg:
            for i in zer:
                masks[i] |= 1 << b
            continue
        # Only the rows processed so far, the rows before b, carry bits.
        rays_at = [0] * b
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
            mp = masks[ip]
            for iq in neg:
                common = mp & masks[iq]
                if common.bit_count() < d - 2:
                    continue
                both = all_rays
                rest = common
                while rest and both.bit_count() > 2:
                    low = rest & -rest
                    both &= rays_at[low.bit_length() - 1]
                    rest ^= low
                if both.bit_count() == 2:
                    sp, sq = svals[ip], svals[iq]
                    w = _primitive([sp * y - sq * x for x, y in zip(vecs[ip], vecs[iq])])
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
    """Extreme rays of the pointed cone {x : ineq . x >= 0, eq . x == 0}.

    Input rows are integer vectors of length dim.  The inequality rows must
    span the dual of the equations' kernel, so the cone has no lineality;
    ModuliError is raised otherwise.  Rays come back primitive and
    lexicographically sorted, so the output is canonical.
    """
    if not eq_rows:
        return sorted(_pointed_dd(ineq_rows, dim))
    sub = kernel_basis(eq_rows)
    if not sub:
        return []
    rays = _pointed_dd([tuple(_dot(row, s) for s in sub) for row in ineq_rows], len(sub))
    # A kernel ray y maps to the sum of y[j] * sub[j]: coordinate i is y . cols[i].
    cols = list(zip(*sub))
    return sorted(_primitive([sum(map(mul, y, col)) for col in cols]) for y in rays)


def h_to_v(h: HPolyhedron) -> VPolyhedron:
    """Vertices and rays of an H-description.

    The inequality normals must span the space cut out by the equations, so
    that the homogenization is pointed; ModuliError is raised otherwise,
    even when the polyhedron is empty.  The empty polyhedron comes back as
    the VPolyhedron with no generators.
    """
    # The cone over h, with the row t >= 0 first.
    ineq_rows = [(0,) * h.dim + (1,)]
    ineq_rows += [_clear_denominators(tuple(a) + (-b,)) for a, b in h.inequalities]
    eq_rows = [_clear_denominators(tuple(a) + (-b,)) for a, b in h.equations]
    verts, vrays = [], []
    for z in cone_double_description(ineq_rows, eq_rows, h.dim + 1):
        t = z[-1]
        if t < 0:
            raise CertificateError(f"homogenizing coordinate of ray {z} is negative")
        if t > 0:
            # z is primitive, so the vertex z[:-1] / t is integral exactly when t == 1.
            verts.append(z[:-1] if t == 1 else tuple(Fraction(x, t) for x in z[:-1]))
        else:
            vrays.append(z[:-1])
    return VPolyhedron(h.dim, tuple(sorted(verts)), tuple(sorted(vrays)) if verts else ())


def v_to_h(v: VPolyhedron) -> HPolyhedron:
    """Irredundant H-description of a nonempty full-dimensional V-description.

    Facet inequalities are primitive integer rows in sorted order, so the
    representation is canonical; there are never equations.  A
    lower-dimensional V-description raises ModuliError, since the cone
    of its valid inequalities is not pointed.
    """
    if v.is_empty:
        raise ModuliError("cannot convert an empty V-description")
    d = v.dim
    gen_rows = [_homogeneous(vert) for vert in v.vertices]
    gen_rows += [tuple(ray) + (0,) for ray in v.rays]
    inequalities = []
    for z in cone_double_description(gen_rows, [], d + 1):
        coeffs, c = z[:-1], z[-1]
        if not any(coeffs):
            if c < 0:
                raise CertificateError(f"inconsistent trivial inequality 0 >= {-c}")
            continue
        inequalities.append((coeffs, -c))
    inequalities.sort()
    return HPolyhedron(dim=d, inequalities=tuple(inequalities))


def project(v: VPolyhedron, rows) -> VPolyhedron:
    """Image of a V-description under an integer linear map given by rows.

    Duplicate and interior generators are pruned: the result is the canonical
    minimal V-description of the image.
    """
    m = len(rows)
    if v.is_empty:
        return VPolyhedron(dim=m, vertices=(), rays=())
    pts = {tuple(_dot(row, vert) for row in rows) for vert in v.vertices}
    rys = {tuple(_dot(row, ray) for row in rows) for ray in v.rays}
    return h_to_v(v_to_h(VPolyhedron(m, tuple(pts), tuple(r for r in rys if any(r)))))


class Fan(namedtuple("Fan", "rays cones vertices rec_rays")):
    """Inner-normal fan of a full-dimensional pointed polyhedron, by its maximal cones.

    Rays are the facet normals, indexed exactly like the inequalities of the
    source H-description.  cones[j] is the maximal cone of vertices[j]: the
    sorted indices of the facets tight there.  rec_rays are the recession rays.
    """

    __slots__ = ()


def normal_fan(h: HPolyhedron, v: VPolyhedron) -> Fan:
    """Fan of inner-normal cones of a polyhedron, one maximal cone per vertex, certified.

    h is full-dimensional without equations.  Check (a): every point and
    ray of v satisfies every row.  The points whose tight rows have rank dim
    are the vertices; the others are dropped.  Check (b): every row is tight
    on vertices and rays of rank dim, so it is a facet.  Check (c): each
    edge at each vertex ends at another vertex or is a ray of v, so the
    vertices are closed under the edge graph, which is connected (Balinski
    1961); they are all the vertices, and the rays span the recession cone.
    Each check raises CertificateError.
    """
    if h.equations:
        raise ModuliError("normal fan needs a full-dimensional polyhedron")
    if h.dim != v.dim:
        raise ModuliError("dimension mismatch")
    n = h.dim
    rows = tuple(_clear_denominators(coeffs) for coeffs, _ in h.inequalities)
    at = []
    for p in v.vertices:
        slack = [_dot(coeffs, p) - rhs for coeffs, rhs in h.inequalities]
        if any(s < 0 for s in slack):
            raise CertificateError("vertex violates an inequality")
        tight = tuple(i for i, s in enumerate(slack) if not s)
        if len(tight) >= n and int_rank([rows[i] for i in tight]) == n:
            at.append((p, tight))
    if any(_dot(row, e) < 0 for e in v.rays for row in rows):
        raise CertificateError("ray violates an inequality")
    if not at:
        raise ModuliError("normal fan needs a nonempty pointed polyhedron")
    on_row = [set() for _ in rows]
    for j, (_, tight) in enumerate(at):
        for i in tight:
            on_row[i].add(j)
    for (coeffs, rhs), row, on in zip(h.inequalities, rows, on_row):
        face = [_homogeneous(at[j][0]) for j in on]
        face += [e + (0,) for e in v.rays if _dot(row, e) == 0]
        if int_rank(face) != n:
            raise CertificateError(f"row {coeffs} >= {rhs} is not a facet")
    for p, tight in at:
        for e in sorted(_pointed_dd([rows[i] for i in tight], n)):
            zero = [on_row[i] for i in tight if _dot(rows[i], e) == 0]
            ends = set.intersection(*zero) if zero else range(len(at))
            if e not in v.rays and all(at[j][0] == p for j in ends):
                raise CertificateError(f"edge {e} at vertex {p} ends at no returned vertex")
    return Fan(rows, tuple(t for _, t in at), tuple(p for p, _ in at), v.rays)


def locate_cone(fan: Fan, w) -> tuple[int, ...]:
    """Sorted indices into fan.rays of the cone whose relative interior contains w.

    This is the inner-normal cone of the face of the source polyhedron on
    which w is minimized: its rays are the facets tight at every minimizing
    vertex and zero on every recession ray where w is zero.  InputError
    is raised when the minimum does not exist.
    """
    w = tuple(Fraction(x) for x in w)
    dim = len(fan.vertices[0])
    if len(w) != dim:
        raise InputError(f"vector has length {len(w)}, expected {dim}")
    for ray in fan.rec_rays:
        if _dot(w, ray) < 0:
            raise InputError("vector is negative on a recession direction")
    vals = [_dot(w, vert) for vert in fan.vertices]
    mn = min(vals)
    tight = set.intersection(*(set(cone) for cone, x in zip(fan.cones, vals) if x == mn))
    zero = [ray for ray in fan.rec_rays if _dot(w, ray) == 0]
    return tuple(sorted(i for i in tight if not any(_dot(fan.rays[i], z) for z in zero)))

"""Reference double description: scan-all-rays adjacency, dense back-mapping.

pointed_dd_scan is the pointed-cone enumeration as first written: the
initial basis is inverted in Fractions, and every (positive, negative) pair
of rays is tested: it is adjacent when no third current ray is tight on
every row the pair shares (Fukuda-Prodon 1996, combinatorial test).  The
package's _pointed_dd inverts the basis in integers and generates the
candidates of each positive ray from per-row ray bitsets; the tests require
both to return the same rays in the same order.

cone_double_description_dense maps every quotient ray back to the ambient
space with dense vector sums over all kernel basis rows; the package's
cone_double_description adds only nonzero terms and must agree exactly.
"""

from fractions import Fraction

from mckay_moduli.intlinalg import int_rank, kernel_basis, row_hnf
from mckay_moduli.polyhedra import (
    _clear_denominators,
    _dot,
    _pointed_dd,
    _primitive,
    _unit_rows,
)


def pointed_dd_scan(rows, d):
    """Extreme rays of the pointed cone {x in Z^d : row . x >= 0 for all rows}.

    The rows must have full rank d.  Returns primitive integer rays in the
    order produced; callers sort.  Uses the incremental double description
    method with bitmask tight sets and the combinatorial adjacency test,
    scanning every current ray for every candidate pair.
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
        new_vecs = []
        new_masks = []
        nray = len(vecs)
        for ip in pos:
            mp, sp = masks[ip], svals[ip]
            vp = vecs[ip]
            for iq in neg:
                common = mp & masks[iq]
                if common.bit_count() < d - 2:
                    continue
                adjacent = True
                for t in range(nray):
                    if t != ip and t != iq and masks[t] & common == common:
                        adjacent = False
                        break
                if not adjacent:
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


def cone_double_description_dense(ineq_rows, eq_rows, dim):
    """V-description (rays, lineality) of {x : ineq . x >= 0, eq . x == 0}."""
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

    def back(y_quotient):
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

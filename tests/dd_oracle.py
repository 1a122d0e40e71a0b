"""Reference double description with the scan-all-rays adjacency test.

This is the pointed-cone enumeration as first written: a candidate pair of
rays is adjacent when no third current ray is tight on every row the pair
shares (Fukuda-Prodon 1996, combinatorial test).  The package's
_pointed_dd answers the same question with per-row ray bitsets; the tests
require both to return the same rays in the same order.
"""

from fractions import Fraction

from mckay_moduli.intlinalg import int_rank
from mckay_moduli.polyhedra import _clear_denominators, _dot, _primitive


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

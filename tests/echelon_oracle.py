"""Reference integer elimination: the HNF with a recording transform, and the greedy row selector.

row_hnf_with_transform is the Hermite normal form as first written: it
updates an m x m unimodular transform next to the rows, and the rows of the
transform that sit beside zero rows of the form span the left kernel.
greedy_basis is the double description's first row selector: one
incremental fraction-free echelon pass that keeps each row leaving a
nonzero remainder against the rows kept so far.  The package's one echelon
pass in intlinalg must reproduce both exactly: the same Hermite forms, the
same kernel bases in the same order, the same selected rows.
"""

from math import gcd

from mckay_moduli.intlinalg import ext_gcd


def row_hnf_with_transform(rows):
    """Row Hermite normal form with a recording transform.

    Returns (h, u) where u is unimodular, u * rows == h, and h is in echelon
    form with positive pivots and reduced entries above pivots.  Zero rows of
    h sit at the bottom; the matching rows of u span the left kernel lattice
    of the input.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    h = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivot_row = 0
    for col in range(n):
        piv = None
        for i in range(pivot_row, m):
            if h[i][col] == 0:
                continue
            if piv is None:
                piv = i
                continue
            a, b = h[piv][col], h[i][col]
            g, x, y = ext_gcd(a, b)
            p, q = a // g, b // g
            hp, hi = h[piv], h[i]
            up, ui = u[piv], u[i]
            h[piv] = [x * hp[k] + y * hi[k] for k in range(n)]
            h[i] = [-q * hp[k] + p * hi[k] for k in range(n)]
            u[piv] = [x * up[k] + y * ui[k] for k in range(m)]
            u[i] = [-q * up[k] + p * ui[k] for k in range(m)]
        if piv is None:
            continue
        h[pivot_row], h[piv] = h[piv], h[pivot_row]
        u[pivot_row], u[piv] = u[piv], u[pivot_row]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        p = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // p
            if q:
                hp, up = h[pivot_row], u[pivot_row]
                h[i] = [h[i][k] - q * hp[k] for k in range(n)]
                u[i] = [u[i][k] - q * up[k] for k in range(m)]
        pivot_row += 1
    return h, u


def row_hnf_reference(rows):
    """The nonzero rows of the Hermite normal form, as row_hnf returns them."""
    if not rows:
        return ()
    h, _ = row_hnf_with_transform(rows)
    return tuple(tuple(r) for r in h if any(r))


def kernel_basis_reference(rows):
    """The transform rows beside the zero rows of the HNF of rows^T."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    cols = [tuple(rows[i][j] for i in range(m)) for j in range(n)]
    h, u = row_hnf_with_transform(cols)
    return [tuple(u[i]) for i in range(n) if not any(h[i])]


def _primitive(row):
    g = 0
    for x in row:
        g = gcd(g, x)
    return [x // g for x in row] if g > 1 else list(row)


def greedy_basis(rows, base=(), limit=None):
    """Indices of the rows that each raise the rank of base plus the rows kept so far.

    One incremental fraction-free echelon pass: each row is reduced against
    the kept echelon rows and kept when a nonzero remainder is left.  Stops
    once limit rows are kept.
    """
    echelon = []
    picked = []
    for idx, row in enumerate([*base, *rows], start=-len(base)):
        if len(picked) == limit:
            break
        for c, prow in echelon:
            if row[c]:
                f, g = prow[c], row[c]
                row = [f * x - g * y for x, y in zip(row, prow)]
        c = next((i for i, x in enumerate(row) if x), None)
        if c is not None:
            echelon.append((c, _primitive(row)))
            if idx >= 0:
                picked.append(idx)
    return picked

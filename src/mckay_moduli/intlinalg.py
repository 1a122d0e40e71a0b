"""Exact integer linear algebra: Hermite normal forms, ranks, kernels, independent rows.

One echelon pass serves all four.  All routines work on sequences of
equal-length integer rows and never leave exact arithmetic.  The Hermite
normal form used here is the row-style echelon form with positive pivots and
entries above each pivot reduced into [0, pivot), which is a canonical
representative of the row lattice.
"""

from __future__ import annotations

IntRow = tuple[int, ...]


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _echelon(rows, ncols=None) -> tuple[list[list[int]], list[int]]:
    """Bring the first ncols columns (all by default) of integer rows into Hermite normal form.

    Returns (h, pivots): h holds every input row after unimodular row
    operations on whole rows, with positive pivots and the entries above each
    pivot reduced into [0, pivot), and pivots lists the pivot columns.  The
    rows past the last pivot row are zero in the first ncols columns; the
    columns past ncols only carry along the same row operations.
    """
    h = [list(r) for r in rows]
    m = len(h)
    if ncols is None:
        ncols = len(h[0]) if m else 0
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        if top == m:
            break
        piv = None
        for i in range(top, m):
            if h[i][col] == 0:
                continue
            if piv is None:
                piv = i
                continue
            hp, hi = h[piv], h[i]
            g, x, y = ext_gcd(hp[col], hi[col])
            p, q = hp[col] // g, hi[col] // g
            h[piv] = [x * a + y * b for a, b in zip(hp, hi)]
            h[i] = [p * b - q * a for a, b in zip(hp, hi)]
        if piv is None:
            continue
        h[top], h[piv] = h[piv], h[top]
        if h[top][col] < 0:
            h[top] = [-a for a in h[top]]
        prow = h[top]
        p = prow[col]
        for i in range(top):
            q = h[i][col] // p
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], prow)]
        pivots.append(col)
    return h, pivots


def row_hnf(rows) -> tuple[IntRow, ...]:
    """Canonical Hermite normal form of the lattice spanned by integer rows.

    Zero rows are dropped, so equal lattices give equal results.
    """
    h, pivots = _echelon(rows)
    return tuple(tuple(r) for r in h[: len(pivots)])


def int_rank(rows) -> int:
    """Rank of an integer matrix given as a sequence of rows."""
    return len(_echelon(rows)[1])


def kernel_basis(rows) -> list[IntRow]:
    """Basis of the integer kernel lattice {x : rows * x = 0}.

    The input is an m x n matrix as rows; the result is a list of n-vectors
    spanning all integer solutions.  The echelon pass runs on [rows^T | I]
    over the first m columns only: the identity block records its row
    operations, and its rows that end zero on the left span the left kernel
    of rows^T.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    aug = [[rows[i][j] for i in range(m)] + [int(k == j) for k in range(n)] for j in range(n)]
    h, pivots = _echelon(aug, m)
    return [tuple(r[m:]) for r in h[len(pivots) :]]


def independent_rows(rows) -> list[int]:
    """Indices of the rows that each raise the rank of the rows kept so far.

    These are the pivot columns of the echelon pass on the transpose of rows.
    """
    _, pivots = _echelon(list(zip(*rows)))
    return pivots


def mat_vec(rows, v) -> list:
    """Matrix-vector product over exact scalars, summed over the nonzero entries of v."""
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nonzero) for row in rows]

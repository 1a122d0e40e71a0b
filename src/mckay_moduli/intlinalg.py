"""Exact integer linear algebra: Hermite normal forms, ranks and kernels.

All routines work on sequences of equal-length integer rows and never leave
exact arithmetic.  The Hermite normal form used here is the row-style echelon
form with positive pivots and entries above each pivot reduced into [0, pivot),
which is a canonical representative of the row lattice.
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


def row_hnf_with_transform(rows) -> tuple[list[list[int]], list[list[int]]]:
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


def row_hnf(rows) -> tuple[IntRow, ...]:
    """Canonical Hermite normal form of the lattice spanned by integer rows.

    Zero rows are dropped, so equal lattices give equal results.
    """
    if not rows:
        return ()
    h, _ = row_hnf_with_transform(rows)
    return tuple(tuple(r) for r in h if any(r))


def int_rank(rows) -> int:
    """Rank of an integer matrix given as a sequence of rows."""
    return len(row_hnf(rows))


def kernel_basis(rows) -> list[IntRow]:
    """Basis of the integer kernel lattice {x : rows * x = 0}.

    The input is an m x n matrix as rows; the result is a list of n-vectors
    spanning all integer solutions.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    cols = [tuple(rows[i][j] for i in range(m)) for j in range(n)]
    h, u = row_hnf_with_transform(cols)
    return [tuple(u[i]) for i in range(n) if not any(h[i])]


def mat_vec(rows, v) -> list:
    """Matrix-vector product over exact scalars."""
    return [sum(a * x for a, x in zip(row, v)) for row in rows]

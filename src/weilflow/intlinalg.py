"""Exact linear algebra over the integers.

Frobenius matrices stay small (2g <= 16 under verify's cap; zeta's exterior
powers reach C(10, 5) = 252 rows under its cap) but the entries of F^n - I
and the determinants here grow without bound, so everything runs on Python
big ints: no modulus, no floats, no overflow. All functions treat matrices
as lists of row lists and never mutate their arguments.
"""

from __future__ import annotations

from operator import mul

Matrix = list[list[int]]


def det_bareiss(a: Matrix) -> int:
    """Determinant by fraction-free Gaussian elimination.

    Every division below is exact (Bareiss), so the result is the true
    integer determinant no matter how large the entries get.
    """
    m = [list(row) for row in a]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly(a: Matrix) -> list[int]:
    """Characteristic polynomial det(T*I - A), ascending coefficients, monic.

    Berkowitz's division-free recurrence (Inf. Process. Lett. 18 (1984)
    147-150) over the leading principal blocks: with A_r = [[A_{r-1}, c],
    [R, a]], char(A_r) is the lower-triangular Toeplitz matrix with first
    column (1, -a, -R c, -R A_{r-1} c, ..., -R A_{r-1}^{r-2} c) applied to
    char(A_{r-1}). Only matrix-vector products and exact integer sums.
    """
    n = len(a)
    desc = [1]  # char(A_0), descending
    for r in range(n):
        col = [a[i][r] for i in range(r)]
        toeplitz = [1, -a[r][r]]
        for k in range(r):
            if k:
                col = [sum(map(mul, a[i], col)) for i in range(r)]
            toeplitz.append(-sum(map(mul, a[r], col)))
        desc = [sum(toeplitz[i - k] * desc[k] for k in range(max(0, i - r - 1), min(i, r) + 1))
                for i in range(r + 2)]
    return desc[::-1]


def smith_normal_form(a: Matrix) -> list[int]:
    """Diagonal of the Smith normal form: d_1 | d_2 | ... , all >= 0.

    Classic elementary-operation reduction with minimal-|pivot| selection.
    The divisibility chain holds because a pivot is only accepted once it
    divides every entry of the remaining block.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank_bound = min(rows, cols)
    diag: list[int] = []
    top = 0
    while top < rank_bound:
        piv = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = m[i][j]
                if v != 0 and (piv is None or abs(v) < abs(m[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        m[top], m[i0] = m[i0], m[top]
        for row in m:
            row[top], row[j0] = row[j0], row[top]
        p = m[top][top]
        dirty = False
        for i in range(top + 1, rows):
            if m[i][top]:
                q = m[i][top] // p
                for j in range(top, cols):
                    m[i][j] -= q * m[top][j]
                dirty = dirty or m[i][top] != 0
        for j in range(top + 1, cols):
            if m[top][j]:
                q = m[top][j] // p
                for i in range(top, rows):
                    m[i][j] -= q * m[i][top]
                dirty = dirty or m[top][j] != 0
        if dirty:
            continue
        offender = None
        for i in range(top + 1, rows):
            if any(m[i][j] % p for j in range(top + 1, cols)):
                offender = i
                break
        if offender is not None:
            for j in range(top, cols):
                m[top][j] += m[offender][j]
            continue
        diag.append(abs(p))
        top += 1
    while len(diag) < rank_bound:
        diag.append(0)
    return diag

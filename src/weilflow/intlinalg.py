"""Exact linear algebra over the integers.

Frobenius matrices stay small (2g <= 16 under verify's cap; zeta's exterior
powers reach C(10, 5) = 252 rows under its cap) but the entries of F^n - I
and the determinants here grow without bound, so everything runs on Python
big ints: no floats, no overflow. Only the Smith normal form works modulo
an integer, a multiple of |det A| that the caller knows exactly (N_n for
F^n - I), so its entries stay below it. All functions treat matrices as
lists of row lists and never mutate their arguments.
"""

from __future__ import annotations

from math import gcd
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


def _bezout(a: int, b: int) -> tuple[int, int, int, int]:
    """u, v, a/g, b/g with u a + v b = g = gcd(a, b), for a >= 0 and b > 0.

    [[u, v], [-b/g, a/g]] has determinant 1. When g = a it is plain
    elimination (u = 1, v = 0), which leaves the pivot's line unchanged.
    """
    g = gcd(a, b)
    a, b = a // g, b // g
    u = 1 if a == 1 else pow(a, -1, b)
    return u, (1 - u * a) // b, a, b


def smith_normal_form(a: Matrix, modulus: int) -> list[int]:
    """Diagonal d_1 | d_2 | ... | d_n of the Smith normal form of a square
    nonsingular A, all positive, given a positive multiple D of |det A|.

    Elimination modulo D (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.4.14): D Z^n lies in the lattice A Z^n, so every step may
    reduce modulo R, which starts at D and is divided by each d_k found. The
    pivot column is cleared by 2 x 2 unimodular Bezout row steps, one per
    entry (Kannan and Bachem, SIAM J. Comput. 8 (1979) 499-507), then its
    row by column steps, until both are clear. d = gcd(pivot, R) is emitted
    once it divides the rest of the block; otherwise a row it does not
    divide is added to the pivot row and the clearing goes on.
    """
    if modulus <= 0:
        raise ValueError("modulus must be a positive multiple of |det A|, got %d" % modulus)
    r = modulus
    m = [[x % r for x in row] for row in a]
    diag: list[int] = []
    while m:
        while True:
            for i in range(1, len(m)):
                if m[i][0]:
                    u, v, a1, b1 = _bezout(m[0][0], m[i][0])
                    m[0], m[i] = ([(u * x + v * y) % r for x, y in zip(m[0], m[i])],
                                  [(a1 * y - b1 * x) % r for x, y in zip(m[0], m[i])])
            for j in range(1, len(m)):
                if m[0][j]:
                    u, v, a1, b1 = _bezout(m[0][0], m[0][j])
                    for row in m:
                        x, y = row[0], row[j]
                        row[0], row[j] = (u * x + v * y) % r, (a1 * y - b1 * x) % r
            if any(row[0] for row in m[1:]):
                continue
            d = gcd(m[0][0], r)
            offender = next((row for row in m[1:] if any(x % d for x in row)), None)
            if offender is None:
                break
            m[0] = [(x + y) % r for x, y in zip(m[0], offender)]
        diag.append(d)
        r //= d
        m = [[x % r for x in row[1:]] for row in m[1:]]
    return diag

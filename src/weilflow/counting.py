"""Point counts, closed points, and Frobenius orbit structure.

Counts over extension fields come from the exact integer determinant
N_n = det(F^n - I) (positive because the eigenvalues pair off the unit
circle), closed-point counts from the divisor-sum identity
sum_{d|n} d a_d = N_n solved degree by degree, and the group of points of
degree dividing n from the Smith normal form of F^n - I. F is the companion
matrix of char(T), so F^n - I comes from the recurrence T^(n+1) = T T^n
mod char(T), never from a matrix product. A primitive orbit of period nu is
a closed point of degree nu, so the orbit count b_nu is a_nu itself;
acceptance criterion 4 checks it against the products of the Smith divisors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CrossCheckFailure, NonIntegralInversion
from .intlinalg import det_bareiss, smith_normal_form
from .weil import FrobeniusModel


@dataclass(frozen=True)
class CountTable:
    q: int
    g: int
    n_max: int
    counts: tuple[int, ...]  # N_1 .. N_{n_max}
    closed_points: tuple[int, ...]  # a_1 .. a_{n_max}; also the orbit counts b_nu


def _powers_minus_identity(model: FrobeniusModel, n_max: int):
    """F^n - I for n = 1 .. n_max.

    Column i of F^n is T^(n+i) mod char(T) in the basis 1, T, ..., T^(2g-1).
    The walk keeps the columns of F^(n-1): each step drops the first and
    appends T times the last, reduced by char(T) = T^2g + sum_k c_{2g-k} T^k,
    which is 2g multiply-adds per n.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    coeffs = model.datum.coeffs
    size = len(coeffs) - 1
    cols = [[int(i == k) for k in range(size)] for i in range(size)]
    for _ in range(n_max):
        last = cols[-1]
        cols = cols[1:] + [[low - last[-1] * coeffs[size - k]
                            for k, low in enumerate([0] + last[:-1])]]
        yield [[x - (r == c) for c, x in enumerate(row)] for r, row in enumerate(zip(*cols))]


def build_count_table(model: FrobeniusModel, n_max: int) -> CountTable:
    """N_n and a_d for 1 <= n <= n_max, exactly.

    Every N_n must be positive, every division of the inversion
    d a_d = N_d - sum_{e|d, e<d} e a_e exact and every a_d non-negative.
    The independent routes to N_n (the trace recurrence, prod(mu^n - 1)) and
    to a_d (Mobius inversion) live in the test suite.
    """
    counts: list[int] = []
    for n, mat in enumerate(_powers_minus_identity(model, n_max), start=1):
        det = det_bareiss(mat)
        if det <= 0:
            raise CrossCheckFailure("det(F^%d - I) = %d is not positive" % (n, det))
        counts.append(det)

    closed: list[int] = []
    for d in range(1, n_max + 1):
        total = counts[d - 1] - sum(e * closed[e - 1] for e in range(1, d) if d % e == 0)
        if total % d:
            raise NonIntegralInversion(
                "divisor-sum recursion at d = %d gave d a_d = %d, not divisible by %d"
                % (d, total, d)
            )
        a = total // d
        if a < 0:
            raise NonIntegralInversion("a_%d = %d is negative" % (d, a))
        closed.append(a)

    return CountTable(
        q=model.datum.q,
        g=model.datum.g,
        n_max=n_max,
        counts=tuple(counts),
        closed_points=tuple(closed),
    )


def fixed_point_groups(model: FrobeniusModel, n_max: int) -> tuple[tuple[int, ...], ...]:
    """Structure of the fixed points of F^n for n = 1 .. n_max: the SNF
    divisors d_1 | d_2 | ... of F^n - I, all positive, at index n - 1.

    The group of F^n is the direct sum of the Z/d_i; its order
    |det(F^n - I)| = N_n comes from build_count_table.
    """
    groups = []
    for n, mat in enumerate(_powers_minus_identity(model, n_max), start=1):
        divisors = tuple(smith_normal_form(mat))
        if 0 in divisors:
            raise CrossCheckFailure("F^%d - I is singular" % n)
        groups.append(divisors)
    return tuple(groups)

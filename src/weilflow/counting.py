"""Point counts, closed points, and Frobenius orbit structure.

Counts over extension fields come from the exact integer determinant
N_n = det(F^n - I) (positive because the eigenvalues pair off the unit
circle), closed-point counts from the divisor-sum identity
sum_{d|n} d a_d = N_n solved degree by degree, and the group of points of
degree dividing n from the Smith normal form of F^n - I. A primitive orbit
of period nu is a closed point of degree nu, so the orbit count b_nu is a_nu
itself; acceptance criterion 4 checks it against the orders of the Smith
normal forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CrossCheckFailure, InsufficientCountRange, NonIntegralInversion
from .intlinalg import identity, mat_mul, mat_sub, det_bareiss, smith_normal_form
from .weil import FrobeniusModel


@dataclass(frozen=True)
class CountTable:
    q: int
    g: int
    n_max: int
    counts: tuple[int, ...]  # N_1 .. N_{n_max}
    closed_points: tuple[int, ...]  # a_1 .. a_{n_max}; also the orbit counts b_nu

    def count(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise InsufficientCountRange(
                "N_%d requested but table covers 1..%d" % (n, self.n_max)
            )
        return self.counts[n - 1]


@dataclass(frozen=True)
class FixedPointGroup:
    n: int
    order: int
    divisors: tuple[int, ...]  # SNF diagonal d_1 | d_2 | ... , all positive


def _powers_minus_identity(model: FrobeniusModel, n_max: int):
    """F^n - I for n = 1 .. n_max, one mat_mul per n."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    f = [list(row) for row in model.matrix]
    eye = identity(len(f))
    fn = eye
    for _ in range(n_max):
        fn = mat_mul(fn, f)
        yield mat_sub(fn, eye)


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


def closed_point_count(table: CountTable, d: int) -> int:
    """a_d: closed points of degree d (orbits of size d on geometric points)."""
    if not 1 <= d <= table.n_max:
        raise InsufficientCountRange(
            "a_%d requested but table covers 1..%d" % (d, table.n_max)
        )
    return table.closed_points[d - 1]


def fixed_point_groups(model: FrobeniusModel, n_max: int) -> tuple[FixedPointGroup, ...]:
    """Structure of the fixed points of F^n for n = 1 .. n_max: SNF divisors
    of F^n - I.

    Each group is a direct sum of Z/d_i with d_1 | d_2 | ...; its order is
    |det(F^n - I)| = N_n, which the test suite checks against
    build_count_table.
    """
    groups = []
    for n, mat in enumerate(_powers_minus_identity(model, n_max), start=1):
        divisors = smith_normal_form(mat)
        if any(d == 0 for d in divisors):
            raise CrossCheckFailure("F^%d - I is singular" % n)
        groups.append(FixedPointGroup(n=n, order=math.prod(divisors), divisors=tuple(divisors)))
    return tuple(groups)

"""Spectral and geometric sides of the zero-sum identity.

Three computed quantities must coincide (sides 2 and 3 read the same exact
N_d, so they are one route until the closed form gets one of its own):

  1. the truncated zero sum: Phi summed with alternating sign over the zero
     ladders of every P_j(q^{-s}), j = 0..2g, with a certified tail bound
     per sublattice from bumps.tail_majorant's contour bound. The C(2g, j)
     sublattices of one j are one integrand: alpha times the real
     Lefschetz weight L_j of the Frobenius angles
     (exterior.lefschetz_weight), so each T_j is one half ladder of a real
     function, exactly real on every input, and all 2g + 1 of them are the
     rows of one phi_ladder call on one shared grid;
  2. the resummed closed form: log q times extension point counts N_k
     weighting alpha(k log q) (with q^{gk} damping for k <= -1);
  3. the geometric side: log q times closed points weighted by degree, the
     test function sampled at k * deg * log q.

The alternating index over the full range j = 0..2g is what matches sides 2
and 3 (the k = 0 terms cancel as (1-1)^{2g}); the partial range j = 1..2g,
which drops the j = 0 ladder, is reported alongside it rather than silently
discarded.
"""

from __future__ import annotations

import bisect
import math
import sys
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .bumps import LADDER_CAP, BumpSum, TestFunction, combine_bumps, phi_ladder, tail_majorant
from .counting import CountTable, build_count_table
from .errors import (
    DimensionTooLarge,
    InputError,
    InsufficientCountRange,
    NonOrdinaryInput,
    SidesTooLarge,
    TruncationBudgetExceeded,
)
from .exterior import lefschetz_weight
from .weil import FrobeniusModel, WeilDatum, check_ordinary, frobenius_model

NU_FLOOR = 300  # minimum ladder half-length; more zeros only tighten the tail
COUNT_CAP = 64  # largest Frobenius power the counting stage will take
G_CAP = 8  # largest g that verify takes; see verify

J_RANGE_NOTE = (
    "alternating_full sums (-1)^j T_j over j = 0..2g and is the quantity that "
    "matches the closed form and the geometric side; eq1_partial drops the "
    "j = 0 ladder (it differs by T_0, which is nonzero whenever alpha meets "
    "the lattice k log q)."
)


@dataclass(frozen=True, slots=True)
class TraceResult:
    j: int
    value: float
    nu_max: int  # shared by all C(2g, j) sublattices of this j
    tail_bound: float  # summed over sublattices
    quad_error: float  # the row's doubling deltas, rungs 1..nu_max twice
    zero_count: int
    panels: int


@dataclass(frozen=True, slots=True)
class SpectralResult:
    per_j: tuple[TraceResult, ...]
    alternating_full: float  # sum over j = 0..2g of (-1)^j T_j
    eq1_partial: float  # same sum restricted to j = 1..2g
    tail_bound: float
    quad_error: float
    zero_count: int
    closed_form: Optional[float] = None


@dataclass(frozen=True, slots=True)
class GeometricCell:
    k: int
    d: int
    t: float  # k * d * log q
    points: int  # a_d
    weight: float  # d * a_d, damped by q^{g k d} for k <= -1
    alpha: float
    contribution: float  # log q * weight * alpha


@dataclass(frozen=True, slots=True)
class GeometricResult:
    cells: tuple[GeometricCell, ...]
    positive_part: float  # k >= 1 cells
    negative_part: float  # k <= -1 cells
    total: float


@dataclass(frozen=True, slots=True)
class VerificationReport:
    datum: WeilDatum
    ordinarity_is_ordinary: bool
    spectral: SpectralResult
    geometric: GeometricResult
    residuals: dict
    tolerance: float
    trunc_budget: float
    certified_budget: float  # tail + quadrature, added to the allowance
    allowance: float
    passed: bool
    wall_time_s: float
    j_range_note: str = J_RANGE_NOTE


def _lefschetz_rows(alpha: TestFunction, angles: tuple[float, ...], js) -> SimpleNamespace:
    """The rows alpha L_j, j in js, as one phi_ladder integrand on alpha's
    support: values evaluates alpha once and every L_j from one recurrence
    (exterior.lefschetz_weight), each row bitwise alpha times its own L_j."""
    return SimpleNamespace(support=alpha.support,
                           values=lambda t: alpha.values(t) * lefschetz_weight(angles, js, t))


def trace_j(model: FrobeniusModel, js, tf: TestFunction, budget: float) -> list[TraceResult]:
    """Truncated Phi sums over the zero ladders of P_j, j in js, with certificates.

    The angles +-theta_i of the conjugate pairs lie in [-beta/2, beta/2],
    beta = 2 pi / log q, and sum to 0 over all 2g roots. So the unreduced
    base theta_S of a j-subset, the sum of its signed angles, obeys
    |theta_S| <= min(j, 2g - j) beta / 2 (S or its complement), and
    rho_j = max(1, min(j, 2g - j)) / 2 bounds |theta_S| / beta for every j.

    Each of the C(2g, j) sublattices keeps the rungs theta_S + beta nu,
    |nu| <= nu_max, chosen so the tail stays below budget / (C(2g, j) *
    (2g + 1)). A dropped rung has |tau| >= beta (|nu| - rho_j), so the tail
    of one sublattice is at most the sum of the contour bound B over those
    rungs, which bumps.TailMajorant.tail bounds in closed form (_plan).
    NU_FLOOR puts a lower bound on the ladder regardless (truncation is
    monotone, so extra zeros only help). A ladder pass of more than
    bumps.LADDER_CAP points (rows x rungs x nodes), as any with B infinite,
    raises TruncationBudgetExceeded before it runs instead of truncating.

    Summed over S, the rungs nu of all sublattices are one transform: of
    alpha L_j at j/2 + i beta nu, with L_j = sum_S e^{i theta_S t} real (see
    exterior.lefschetz_weight). So T_j is one ladder row from 0, rungs
    k = 0..nu_max: rung -k is rung k conjugated, rung 0 counts once and rungs
    1..nu_max twice, real parts only, so T_j is a float. quad_error
    weighs the row's doubling deltas the same way. Both are correctly rounded
    math.fsum sums; zero_count still counts every sublattice's zeros.

    Each j is planned on its own (_plan), then the rows alpha L_j, each with
    its own sigma = j/2, run as one phi_ladder call of the longest row's
    rungs, whose one integrand gives every row at once on alpha's support;
    panels is that call's. A j outside 0..2g is a ValueError. Returns one
    TraceResult per j, in the order of js.
    """
    if not budget > 0:
        raise ValueError("truncation budget must be positive")
    g = model.datum.g
    logq = math.log(model.datum.q)
    plans = [_plan(tf, g, j, 2.0 * math.pi / logq, budget) for j in js]
    rows = _lefschetz_rows(tf, tuple(theta / logq for theta in model.angles), js)
    count = max(plan[1] for plan in plans) + 1
    v, e, panels = phi_ladder(rows, [j / 2.0 for j in js], 0.0, 2 * math.pi / logq, count)
    return [
        TraceResult(
            j=j,
            value=math.fsum([v[r, 0].real, *(2.0 * v[r, 1:n + 1].real).tolist()]),
            nu_max=n,
            tail_bound=tail_sub * m,
            quad_error=math.fsum([e[r, 0], *(2.0 * e[r, 1:n + 1]).tolist()]),
            zero_count=m * (2 * n + 1),
            panels=panels,
        )
        for r, (j, (m, n, tail_sub)) in enumerate(zip(js, plans))
    ]


def _plan(tf: TestFunction, g: int, j: int, beta: float, budget: float) -> tuple:
    """(C(2g, j), nu_max, tail per sublattice) of j, as trace_j sets them.

    nu_max is the least n >= NU_FLOOR whose tail, TailMajorant.tail(beta, n -
    rho_j) for sigma = j/2, is within budget / (C(2g, j) (2g + 1)). The tail
    falls as n grows: one evaluation at NU_FLOOR settles most j, and any
    other is one bisection of NU_FLOOR..LADDER_CAP, about 33 evaluations. A
    rung costs at least one point, so n stops at bumps.LADDER_CAP with
    TruncationBudgetExceeded. A j outside 0..2g is a ValueError.
    """
    if not 0 <= j <= 2 * g:
        raise ValueError("degree j = %d is outside 0..2g = 0..%d" % (j, 2 * g))
    m = math.comb(2 * g, j)
    rho = max(1, min(j, 2 * g - j)) / 2.0
    sub_budget = budget / (m * (2 * g + 1))
    majorant = tail_majorant(tf, j / 2.0)
    tail = majorant.tail(beta, NU_FLOOR - rho)
    if tail <= sub_budget:
        return m, NU_FLOOR, tail
    n = bisect.bisect_left(range(LADDER_CAP + 1), True, NU_FLOOR,
                           key=lambda n: majorant.tail(beta, n - rho) <= sub_budget)
    if n > LADDER_CAP:
        raise TruncationBudgetExceeded(
            "j = %d needs more than %d rungs for budget %.3g, and the cap is "
            "LADDER_CAP = %d points" % (j, LADDER_CAP, budget, LADDER_CAP))
    return m, n, majorant.tail(beta, n - rho)


def spectral_side_zero_sum(
    model: FrobeniusModel,
    tf: TestFunction,
    budget: float,
) -> SpectralResult:
    """All traces T_0..T_2g, the rows of one ladder (trace_j), and both
    alternating renderings, each one correctly rounded math.fsum of the
    signed T_j it covers."""
    per = trace_j(model, range(2 * model.datum.g + 1), tf, budget)
    signed = [(-1.0) ** t.j * t.value for t in per]
    return SpectralResult(
        per_j=tuple(per),
        alternating_full=math.fsum(signed),
        eq1_partial=math.fsum(signed[1:]),
        tail_bound=math.fsum(t.tail_bound for t in per),
        quad_error=math.fsum(t.quad_error for t in per),
        zero_count=sum(t.zero_count for t in per),
    )


def _lattice_times(lo: float, hi: float, step: float) -> range:
    """The k with lo < k * step < hi, with the float product k * step as the
    sides form it, as a range: k = 0 never contributes, and callers skip it.

    The float quotients are a few ulps off, so each end lies within two of
    floor(lo / step) and ceil(hi / step).
    """
    k_lo, k_hi = math.floor(lo / step), math.ceil(hi / step)
    for _ in range(2):
        k_lo += k_lo * step <= lo
        k_hi -= k_hi * step >= hi
    return range(k_lo, k_hi + 1)


def _support_count_range(tf: TestFunction, q: int) -> int:
    """The largest |k| != 0 with k log q inside the open support, at least 1:
    the counts N_k and closed points a_d that both sides read."""
    ks = _lattice_times(*tf.support, math.log(q))
    return max(1, abs(ks[0]), abs(ks[-1])) if ks else 1


def spectral_side_closed_form(ct: CountTable, tf: TestFunction):
    """Poisson-resummed spectral value: log q sum_k coeff_k alpha(k log q).

    coeff_k = N_k for k >= 1 and q^{gk} N_{-k} for k <= -1; k = 0 drops out
    of the alternating sum identically. Quadrature-free: alpha is evaluated
    pointwise. Returns (value, terms) with terms as (k, coeff, alpha, term).
    """
    logq = math.log(ct.q)
    lo, hi = tf.support
    terms = []
    for k in _lattice_times(lo, hi, logq):
        if k == 0:
            continue
        t = k * logq
        if abs(k) > ct.n_max:
            raise InsufficientCountRange(
                "closed form needs N_%d, table covers 1..%d" % (abs(k), ct.n_max)
            )
        coeff = float(ct.counts[abs(k) - 1])
        if k < 0:
            coeff *= float(ct.q) ** (ct.g * k)
        alpha = float(tf.values(np.array([t]))[0])
        terms.append((k, coeff, alpha, logq * coeff * alpha))
    value = math.fsum(term[3] for term in terms)
    return value, terms


def geometric_side(ct: CountTable, tf: TestFunction) -> GeometricResult:
    """Closed-point side: log q sum over degrees d and windings k != 0.

    Each cell (k, d) contributes log q * d * a_d * alpha(k d log q), damped
    by q^{g k d} for k <= -1. Cells are enumerated for every lattice time
    k d log q inside the open support; k = 0 never contributes.
    """
    logq = math.log(ct.q)
    lo, hi = tf.support
    d_needed = _support_count_range(tf, ct.q)
    if d_needed > ct.n_max:
        raise InsufficientCountRange(
            "support reaches degree %d, count table covers 1..%d"
            % (d_needed, ct.n_max)
        )
    cells = []
    for d in range(1, d_needed + 1):
        a_d = ct.closed_points[d - 1]
        step = d * logq
        for k in _lattice_times(lo, hi, step):
            if k == 0:
                continue
            t = k * step
            alpha = float(tf.values(np.array([t]))[0])
            weight = float(d * a_d)
            if k < 0:
                weight *= float(ct.q) ** (ct.g * k * d)
            cells.append(
                GeometricCell(
                    k=k, d=d, t=t, points=a_d, weight=weight, alpha=alpha,
                    contribution=logq * weight * alpha,
                )
            )
    cells.sort(key=lambda c: (c.t, c.d))
    pos = math.fsum(c.contribution for c in cells if c.k >= 1)
    neg = math.fsum(c.contribution for c in cells if c.k <= -1)
    total = math.fsum(c.contribution for c in cells)
    return GeometricResult(
        cells=tuple(cells), positive_part=pos, negative_part=neg, total=total
    )


def _refuse_past_double_range(tf: TestFunction, g: int, ct: CountTable) -> None:
    """SidesTooLarge where a float the sides form would leave the double range.

    On the support t < hi the rows form e^{sigma t} and e^{sigma t} alpha L_j,
    sigma = j/2, both at most e^r as |alpha| <= sum |A_i| / e and |L_j| <=
    C(2g, j); the other sides form float(N_k) and float(d a_d) <= float(N_d)
    for k, d <= n_max, which overflow from N_k >= 2^1024 - 2^970 on.
    """
    size = sum(abs(b.amplitude) for b in (tf.terms if isinstance(tf, BumpSum) else (tf,)))
    r = (max(j * tf.support[1] / 2.0 + math.log(math.comb(2 * g, j)) for j in range(2 * g + 1))
         + math.log(max(size, math.e)) - 1.0)
    top = max(ct.counts)
    if r > math.log(sys.float_info.max) or top >= (1 << 1024) - (1 << 970):
        raise SidesTooLarge("the sides reach e^%.6g in the zero-sum rows and %d bits in N_k, past "
                            "the double range (e^709.78, 2^1024)" % (r, top.bit_length()))


def verify(
    w: WeilDatum,
    bumps,
    tol: float = 1e-6,
    trunc_budget: float = 0.25,
    allow_non_ordinary: bool = False,
) -> VerificationReport:
    """Full three-way verification for one datum and one test function.

    Pass iff every pairwise residual between {zero sum, closed form,
    geometric side} stays within tol * (1 + |geometric|) plus the certified
    truncation-plus-quadrature budget of the zero sum. tol must be positive
    and finite; trunc_budget positive, where inf means floor-only ladders
    with their honest tail. Anything else, NaN included, is an InputError; a
    budget whose ladder outgrows bumps.LADDER_CAP is a TruncationBudgetExceeded.

    g above G_CAP (8) is refused because the certificate stops meaning
    anything, not for cost. Its quadrature part, the doubling deltas of the
    rows alpha L_j with |L_j| up to C(2g, g), outgrows the budget: on
    (1 + 2X^2)^g with one bump c = 2.5, w = 0.8 at the default budget 0.25
    the certificate is 0.126 at g = 8, 3.56 at g = 9 and 8.4e4 at g = 12,
    where a residual of 5.6 passes; their tail parts are at most 0.008.
    """
    t_start = time.perf_counter()
    if not 0 < tol < math.inf:
        raise InputError("tol must be positive and finite, got %r" % (tol,))
    if not trunc_budget > 0:
        raise InputError("trunc_budget must be positive, got %r" % (trunc_budget,))
    tf = combine_bumps(bumps)
    verdict = check_ordinary(w)
    if not verdict.is_ordinary and not allow_non_ordinary:
        raise NonOrdinaryInput(
            "p = %d divides the middle coefficient %d; pass allow_non_ordinary "
            "to verify anyway" % (w.p, verdict.middle_coefficient)
        )
    model = frobenius_model(w)
    if w.g > G_CAP:
        raise DimensionTooLarge("verify: g = %d exceeds the cap %d" % (w.g, G_CAP))

    n_max = _support_count_range(tf, w.q)
    if n_max > COUNT_CAP:
        raise InsufficientCountRange(
            "support demands counts through n = %d, cap is %d" % (n_max, COUNT_CAP)
        )
    ct = build_count_table(model, n_max)
    _refuse_past_double_range(tf, w.g, ct)

    spectral = spectral_side_zero_sum(model, tf, trunc_budget)
    closed_value, _ = spectral_side_closed_form(ct, tf)
    spectral = replace(spectral, closed_form=closed_value)
    geo = geometric_side(ct, tf)

    certified = spectral.tail_bound + spectral.quad_error
    allowance = tol * (1.0 + abs(geo.total)) + certified
    residuals = {
        "zero_sum_vs_closed_form": abs(spectral.alternating_full - closed_value),
        "closed_form_vs_geometric": abs(closed_value - geo.total),
        "zero_sum_vs_geometric": abs(spectral.alternating_full - geo.total),
    }
    passed = all(r <= allowance for r in residuals.values())
    return VerificationReport(
        datum=w,
        ordinarity_is_ordinary=verdict.is_ordinary,
        spectral=spectral,
        geometric=geo,
        residuals=residuals,
        tolerance=tol,
        trunc_budget=trunc_budget,
        certified_budget=certified,
        allowance=allowance,
        passed=passed,
        wall_time_s=time.perf_counter() - t_start,
    )

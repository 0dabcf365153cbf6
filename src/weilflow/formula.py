"""Spectral and geometric sides of the zero-sum identity.

Three independently computed quantities must coincide:

  1. the truncated zero sum: Phi summed with alternating sign over the zero
     ladders of every P_j(q^{-s}), j = 0..2g, with a certified tau^-k tail
     bound per sublattice (k = 2, or up to K_MAX where that shortens the
     ladder). Each sublattice class (exterior.ZeroClass) is one half-ladder
     row from its own base, all classes of one j rows of a single
     phi_ladder call; conjugation supplies the other half, so each T_j
     comes out exactly real on ordinary input;
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

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bumps import K_MAX, TestFunction, combine_bumps, phi_ladder, tail_majorant
from .counting import CountTable, build_count_table
from .errors import (
    FunctionalEquationViolation,
    InputError,
    InsufficientCountRange,
    NonOrdinaryInput,
    TruncationBudgetExceeded,
)
from .exterior import (
    FE_TOLERANCE, ZeroLattice, build_pj_family, functional_equation_check, zero_lattice,
)
from .weil import WeilDatum, check_ordinary, frobenius_model

NU_CAP = 10_000_000  # hard per-sublattice ladder cap; beyond it is an error
NU_FLOOR = 300  # minimum ladder half-length; more zeros only tighten the tail
COUNT_CAP = 64  # largest Frobenius power the counting stage will take

J_RANGE_NOTE = (
    "alternating_full sums (-1)^j T_j over j = 0..2g and is the quantity that "
    "matches the closed form and the geometric side; eq1_partial drops the "
    "j = 0 ladder (it differs by T_0, which is nonzero whenever alpha meets "
    "the lattice k log q)."
)


@dataclass(frozen=True, slots=True)
class TraceResult:
    j: int
    value: complex
    nu_max: int  # shared by all C(2g, j) sublattices of this j
    tail_bound: float  # summed over sublattices
    quad_error: float  # summed per-zero doubling deltas
    zero_count: int
    order: int  # k of the majorant M_k / |tau|^k that set nu_max
    majorant: float  # its M_k
    panels: int


@dataclass(frozen=True, slots=True)
class SpectralResult:
    per_j: tuple[TraceResult, ...]
    alternating_full: complex  # sum over j = 0..2g of (-1)^j T_j
    eq1_partial: complex  # same sum restricted to j = 1..2g
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
    functional_equation_deviation: float
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


def trace_j(
    lat: ZeroLattice,
    j: int,
    tf: TestFunction,
    budget: float,
) -> TraceResult:
    """Truncated Phi sum over the zero ladders of P_j, with certificates.

    Each of the C(2g, j) sublattices is cut at the same nu_max, chosen so the
    majorant tail stays below budget / (C(2g, j) * (2g + 1)). With
    |Phi(j/2 + i tau)| <= M_k / |tau|^k the tail of one sublattice past
    nu_max is at most 2 M_k (log q / 2 pi)^k / ((k - 1)(nu_max - 1/2)^(k-1)).
    Order k = 2 is tried first; when it needs more than NU_FLOOR zeros,
    k = 3, 4, ... K_MAX follow until one needs at most NU_FLOOR or the need
    stops falling, and the order needing the fewest sets nu_max. The tail
    reported is the smallest of the computed orders' tails at nu_max.
    NU_FLOOR puts a lower bound on the ladder regardless (truncation is
    monotone, so extra zeros only help). Ladders demanding more than NU_CAP
    points (infinitely many when no M_k is finite) raise instead of
    truncating silently.

    One ladder is evaluated per class of lat.classes[j], not per sublattice,
    and weighted by the class size. Every class is a row of one phi_ladder
    call at sigma = j/2: the half ladder tau = theta + beta k, k = 0..n, from
    its base theta = Im(exponent). Since Phi(conj rho) = conj Phi(rho) and a
    partner's base is the exact conjugate of its class's, the partner's rungs
    -k are this row's rungs k conjugated: rung 0 counts once, rungs 1..n
    twice, and only real parts are summed. The real class (theta = 0)
    follows the same rule, so T_j is exactly real on ordinary input. A
    self-conjugate class off the axis, theta = +-beta/2 from a root -sqrt q,
    starts its row at |theta|; rungs 0..n-1 count twice and the top rung
    once, with sign(theta) Im.
    zero_count and quad_error still count every enumerated zero. The value
    and quad_error are each one correctly rounded math.fsum over every
    enumerated zero, so they do not depend on the order the zeros are
    visited in.
    """
    if not budget > 0:
        raise ValueError("truncation budget must be positive")
    m = len(lat.exps[j])
    sigma = j / 2.0
    logq = math.log(lat.q)
    beta = lat.period
    scale = logq / (2.0 * math.pi)
    sub_budget = budget / (m * (2 * lat.g + 1))

    def tail(tm, n):
        return 2.0 * tm.m * scale**tm.order / ((tm.order - 1) * (n - 0.5) ** (tm.order - 1))

    def needed(tm):
        # the least n with tail(tm, n) <= sub_budget, inf for M_k = inf
        root = 2.0 * tm.m * scale**tm.order / ((tm.order - 1) * sub_budget)
        need = 0.5 + root ** (1.0 / (tm.order - 1))
        return math.ceil(need) if need < math.inf else math.inf

    majorants = {2: tail_majorant(tf, sigma)}
    need = {2: needed(majorants[2])}
    k = 2
    while need[k] > NU_FLOOR and k < K_MAX:
        k += 1
        majorants[k] = tail_majorant(tf, sigma, k)
        need[k] = needed(majorants[k])
        if need[k] >= need[k - 1]:
            break
    order = min(need, key=need.get)
    n = max(NU_FLOOR, need[order])
    if n > NU_CAP:
        raise TruncationBudgetExceeded(
            "j = %d needs nu_max = %s per sublattice for budget %.3g, cap is %d"
            % (j, n, budget, NU_CAP)
        )
    tail_sub = min(tail(tm, n) for tm in majorants.values())

    # each class is one half-ladder row; times[i, k] counts the zeros rung k
    # of row i stands for
    classes = lat.classes[j]
    times = np.full((len(classes), n + 1), 2)
    times[:, 0] = 1
    starts, tops = [], []
    for i, cls in enumerate(classes):
        theta = cls.exponent.imag
        if cls.partner == i and not cls.real:  # off the axis, theta = +-beta/2
            times[i, 0], times[i, n] = 2, 1
            tops.append((i, math.copysign(1.0, theta)))
            theta = abs(theta)
        starts.append(theta)
        times[i] *= cls.weight
    v, e, panels = phi_ladder(tf, sigma, np.array(starts), beta, n + 1)
    value = complex(
        math.fsum(np.repeat(v.real.ravel(), times.ravel()).tolist()),
        math.fsum(sign * v[i, n].imag for i, sign in tops for _ in range(times[i, n])),
    )
    quad_error = math.fsum(np.repeat(e.ravel(), times.ravel()).tolist())
    tail_bound = tail_sub * m
    return TraceResult(
        j=j,
        value=value,
        nu_max=n,
        tail_bound=tail_bound,
        quad_error=quad_error,
        zero_count=m * (2 * n + 1),
        order=order,
        majorant=majorants[order].m,
        panels=panels,
    )


def spectral_side_zero_sum(
    lat: ZeroLattice,
    tf: TestFunction,
    budget: float,
) -> SpectralResult:
    """All traces T_0..T_2g and both alternating renderings, each an exactly
    rounded sum."""
    per = [trace_j(lat, j, tf, budget) for j in range(2 * lat.g + 1)]
    alt_re = math.fsum((-1.0) ** t.j * t.value.real for t in per)
    alt_im = math.fsum((-1.0) ** t.j * t.value.imag for t in per)
    full = complex(alt_re, alt_im)
    partial = full - per[0].value
    return SpectralResult(
        per_j=tuple(per),
        alternating_full=full,
        eq1_partial=partial,
        tail_bound=math.fsum(t.tail_bound for t in per),
        quad_error=math.fsum(t.quad_error for t in per),
        zero_count=sum(t.zero_count for t in per),
    )


def _support_count_range(tf: TestFunction, q: int) -> int:
    lo, hi = tf.support
    reach = max(hi, -lo)
    return max(1, int(math.floor(reach / math.log(q) + 1e-12)))


def spectral_side_closed_form(ct: CountTable, tf: TestFunction):
    """Poisson-resummed spectral value: log q sum_k coeff_k alpha(k log q).

    coeff_k = N_k for k >= 1 and q^{gk} N_{-k} for k <= -1; k = 0 drops out
    of the alternating sum identically. Quadrature-free: alpha is evaluated
    pointwise. Returns (value, terms) with terms as (k, coeff, alpha, term).
    """
    logq = math.log(ct.q)
    lo, hi = tf.support
    terms = []
    k_hi = int(math.floor(hi / logq + 1e-12))
    k_lo = int(math.ceil(lo / logq - 1e-12))
    for k in range(k_lo, k_hi + 1):
        if k == 0:
            continue
        t = k * logq
        if not (lo < t < hi):
            continue
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
    d_needed = 0
    if hi > logq:
        d_needed = max(d_needed, int(math.floor(hi / logq + 1e-12)))
    if -lo > logq:
        d_needed = max(d_needed, int(math.floor(-lo / logq + 1e-12)))
    if d_needed > ct.n_max:
        raise InsufficientCountRange(
            "support reaches degree %d, count table covers 1..%d"
            % (d_needed, ct.n_max)
        )
    cells = []
    for d in range(1, d_needed + 1):
        a_d = ct.closed_points[d - 1]
        step = d * logq
        for k in range(math.floor(lo / step), math.ceil(hi / step) + 1):
            t = k * step
            if k == 0 or not lo < t < hi:
                continue
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
    with their honest tail. Anything else, NaN included, is an InputError.
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
    fam = build_pj_family(model)
    ok, deviation = functional_equation_check(fam)
    if not ok:
        raise FunctionalEquationViolation(
            "zero symmetry s -> g - s off by %.3g (tolerance %s)"
            % (deviation, np.format_float_scientific(FE_TOLERANCE, trim="-", exp_digits=1))
        )
    lat = zero_lattice(fam)

    n_max = _support_count_range(tf, w.q)
    if n_max > COUNT_CAP:
        raise InsufficientCountRange(
            "support demands counts through n = %d, cap is %d" % (n_max, COUNT_CAP)
        )
    ct = build_count_table(model, n_max)

    spectral = spectral_side_zero_sum(lat, tf, trunc_budget)
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
        functional_equation_deviation=deviation,
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

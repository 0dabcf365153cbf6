"""Exterior powers of Frobenius and the zeros of their factors.

For each j the j-th exterior power of F acts on lexicographic j-subsets of
the eigenvalue indices; its characteristic polynomial, reversed, is the
degree-C(2g, j) factor P_j(X) = prod_{|S|=j} (1 - lambda_S X) with
lambda_S = prod_{i in S} mu_i. zeta takes that charpoly for j <= g only:
lambda_{S^c} = q^g / lambda_S gives P_j for j > g exactly from P_{2g-j}.
Each inverse root contributes a vertical ladder of zeros
s_S + 2 pi i nu / log q of P_j(q^{-s}), all on Re s = j/2.

Parse has decided the Riemann hypothesis exactly (weil._weil_roots), so
|lambda_S| = q^{j/2} is a theorem: Re s_S = j/2 exactly, and Im s_S is the
summed phase of the roots in S (zeros_in_window, for `spectrum`). The
functional equation s -> g - s is the identity c_{2g-k} = q^{g-k} c_k,
checked exactly on parse too. Only `zeta` forms the products lambda_S of
all 4^g subsets, to cross-check the exact P_j (build_pj_family).

The partner q/mu of a root is its exact conjugate conj(mu), so H^1 splits
into g conjugate pairs with angles +-theta_i (FrobeniusModel.angles, over
log q). Unreduced, the base of S is j/2 + i theta_S with theta_S the sum of
the signed angles of S, and the j-th sublattices together weigh a test
function by sum_{|S|=j} e^{i theta_S t} = L_j(t), the real
lefschetz_weight. verify evaluates every alpha L_j, j = 0..2g, as the rows
of one ladder (formula.trace_j), from the g angles alone, and builds all
of them from one recurrence per ladder pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CrossCheckFailure, DimensionTooLarge
from .intlinalg import Matrix, charpoly, det_bareiss
from .weil import FrobeniusModel, companion_matrix

ZETA_G_CAP = 5  # largest g that zeta takes: about 65 s of charpoly at g = 5; see build_pj_family


def subsets(n: int, j: int) -> list[tuple[int, ...]]:
    """Lexicographic j-subsets of range(n); the fixed basis order everywhere."""
    return list(combinations(range(n), j))


def exterior_power_matrix(f: Matrix, j: int) -> Matrix:
    """Matrix of the j-th exterior power in the lexicographic subset basis.

    Entry (S, T) is the j x j minor det(f[S, T]), computed exactly. j = 0
    gives the 1 x 1 identity.
    """
    ss = subsets(len(f), j)
    out = []
    for s_rows in ss:
        row = []
        for t_cols in ss:
            sub = [[f[a][b] for b in t_cols] for a in s_rows]
            row.append(det_bareiss(sub))
        out.append(row)
    return out


@dataclass(frozen=True)
class PjFamily:
    q: int
    g: int
    polys: tuple[tuple[int, ...], ...]  # P_0 .. P_2g, ascending coefficients
    products: tuple[tuple[complex, ...], ...]  # lambda_S per j, lex order


def _subset_products(model: FrobeniusModel) -> tuple[tuple[complex, ...], ...]:
    """lambda_S = prod_{i in S} mu_i for every j-subset S, per j in lex order,
    from the roots: 4^g products."""
    n = 2 * model.datum.g
    return tuple(
        tuple(math.prod((model.roots[i] for i in s), start=complex(1.0)) for s in subsets(n, j))
        for j in range(n + 1)
    )


def _expand_products(lams) -> list[complex]:
    """Ascending coefficients of prod (1 - lam X), one factor per step."""
    poly = [complex(1.0)]
    for lam in lams:
        poly = [a - b * lam for a, b in zip(poly + [0j], [0j] + poly)]
    return poly


def _complement_poly(partner: tuple[int, ...], q: int, g: int, j: int) -> tuple[int, ...]:
    """P_j from P_{2g-j} = sum c_k X^k: lambda_S = q^g / lambda_{S^c}, so with
    N = C(2g, j) coefficient m of P_j is c_{N-m} q^{gm} / c_N, exactly."""
    top = partner[-1]
    out = []
    for m in range(len(partner)):
        c, rem = divmod(partner[-1 - m] * q ** (g * m), top)
        if rem:
            raise CrossCheckFailure(
                "P_%d coefficient %d: %d q^%d not divisible by %d"
                % (j, m, partner[-1 - m], g * m, top)
            )
        out.append(c)
    return tuple(out)


def build_pj_family(model: FrobeniusModel) -> PjFamily:
    """All P_j from exact exterior-power char polynomials, float cross-checked.

    P_j for j <= g is the reversed charpoly (Berkowitz) of the exterior power;
    P_j for j > g follows exactly from P_{2g-j} (_complement_poly). The float
    route expands prod (1 - lambda_S X) from the roots and must match every
    integer coefficient to 1e-8 relative; P_0 and P_2g are additionally pinned
    to their closed forms. g above ZETA_G_CAP is refused: charpoly takes
    about n^4 / 4 big-integer products on an n-dimensional block, and the
    blocks reach C(2g, g) rows. At g = 5 the 120-, 210- and 252-dimensional
    j = 3, 4 and 5 blocks take about 3, 19 and 43 s; g = 6 has a
    924-dimensional one.
    """
    w = model.datum
    if w.g > ZETA_G_CAP:
        raise DimensionTooLarge("zeta (build_pj_family): g = %d exceeds the cap %d" % (w.g, ZETA_G_CAP))
    products = _subset_products(model)
    f = companion_matrix(w)
    n = 2 * w.g
    polys: list[tuple[int, ...]] = []
    for j in range(n + 1):
        if j <= w.g:
            pj = tuple(reversed(charpoly(exterior_power_matrix(f, j))))
        else:
            pj = _complement_poly(polys[n - j], w.q, w.g, j)
        for k, (ci, cf) in enumerate(zip(pj, _expand_products(products[j]))):
            scale = max(1.0, abs(ci))
            if abs(cf - ci) > 1e-8 * scale:
                raise CrossCheckFailure(
                    "P_%d coefficient %d: exact %d vs float %s (off %.3g relative)"
                    % (j, k, ci, cf, abs(cf - ci) / scale)
                )
        polys.append(pj)
    if polys[0] != (1, -1):
        raise CrossCheckFailure("P_0 must be 1 - X, got %s" % (polys[0],))
    if polys[n] != (1, -(w.q**w.g)):
        raise CrossCheckFailure("P_2g must be 1 - q^g X, got %s" % (polys[n],))
    return PjFamily(q=w.q, g=w.g, polys=tuple(polys), products=products)


def lefschetz_weight(angles, j, t) -> np.ndarray:
    """L_j(t) = [y^j] prod_i (1 + 2 y cos(theta_i t) + y^2) at every t; for a
    sequence j, every L_j of it as rows.

    This is sum_{|S|=j} e^{i theta_S t} over the j-subsets of the 2g roots,
    whose angles come in pairs +-theta_i, so it is real: the trace of the
    flow on Lambda^j H^1 with the e^{t j/2} taken out. |L_j| <= C(2g, j) =
    L_j(0), and sum_j (-1)^j L_j(t) = prod_i (2 - 2 cos theta_i t), the
    leafwise Lefschetz number. Each factor is palindromic in y, so L_j =
    L_{2g-j}: one recurrence of g steps over the coefficients up to the
    largest min(j, 2g - j). A coefficient never reads a higher one, so each
    row is bitwise the same however many are asked for.
    """
    t = np.asarray(t, dtype=float)
    d = np.minimum(j, 2 * len(angles) - np.asarray(j))
    coef = np.zeros((d.max() + 1,) + t.shape)
    coef[0] = 1.0
    for theta in angles:
        step = 2.0 * np.cos(theta * t) * coef[:-1]
        coef[2:] += coef[:-2]
        coef[1:] += step
    return coef[d]


def zeros_in_window(model: FrobeniusModel, j: int, height: float) -> tuple[tuple[int, complex], ...]:
    """All zeros of P_j(q^{-s}) with |Im s| <= height, tagged by the index of
    their j-subset S of model.roots in lex order.

    Re s = j/2 exactly. Im s_S is the fsum of the phases arg mu_i over S,
    reduced once into (-pi, pi] and divided by log q, so a subset whose
    phases cancel exactly (conjugate pairs) sits at exactly 0. A zero is
    listed iff the float |Im s| returned is <= height.

    Sorted by Im s, except that each run of zeros within `radius` of the
    next is listed by subset index: zeros whose Im s agree in exact
    arithmetic (theta_a + theta_{-a} = pi, say) come out in one order
    whatever the last bits of their float sums. Each float Im s is within
    radius / 2 of its exact value. Each of the j phases is within the angle
    radius model.precision plus 2 ulps of pi (the rounding of its bracket's
    end angles), so j precision + 2j eps pi in all; the fsum, the reduction
    by 2 pi m (|m| <= j + 1, and 2 pi itself rounded) and the division by
    log q add (3j + 4) eps pi, all of it over log q in Im s; the product
    period nu and the sum add 3 eps (height + period).
    """
    logq = math.log(model.datum.q)
    period = 2 * math.pi / logq
    eps = math.ulp(1.0)
    radius = 2.0 * ((j * model.precision + (5 * j + 4) * eps * math.pi) / logq
                    + 3.0 * eps * (height + period))
    phases = [cmath.phase(mu) for mu in model.roots]
    out = []
    for idx, s in enumerate(subsets(len(phases), j)):
        arg = math.fsum(phases[i] for i in s)
        base = (arg - 2 * math.pi * math.ceil((arg - math.pi) / (2 * math.pi))) / logq
        # the float quotients are a few ulps off at most: one spare nu each side
        lo = math.ceil((-height - base) / period) - 1
        hi = math.floor((height - base) / period) + 1
        for nu in range(lo, hi + 1):
            im = base + period * nu
            if abs(im) <= height:
                out.append((im, idx))
    out.sort()
    runs, last = [], -math.inf
    for im, idx in out:
        if im - last > radius:
            runs.append([])
        runs[-1].append((idx, im))
        last = im
    return tuple((idx, complex(j / 2, im)) for run in runs for idx, im in sorted(run))

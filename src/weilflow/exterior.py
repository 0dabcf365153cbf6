"""Exterior powers of Frobenius and the associated zero lattices.

For each j the j-th exterior power of F acts on lexicographic j-subsets of
the eigenvalue indices; its characteristic polynomial, reversed, is the
degree-C(2g, j) factor P_j(X) = prod_{|S|=j} (1 - lambda_S X) with
lambda_S = prod_{i in S} mu_i. Each inverse root contributes a vertical
ladder of zeros s_S + 2 pi i nu / log q of P_j(q^{-s}), all on Re s = j/2.

Parse has decided the Riemann hypothesis exactly (weil._weil_roots), so
|lambda_S| = q^{j/2} is a theorem: the zero lattice sets Re s_S = j/2
exactly and takes only Im s_S from the products lambda_S of the roots. The
functional equation s -> g - s is the identity c_{2g-k} = q^{g-k} c_k,
checked exactly on parse too. Only `zeta` builds the exact P_j
(build_pj_family), cross-checked against the same products.

The partner q/mu of a root is its exact conjugate conj(mu), so H^1 splits
into g conjugate pairs with angles +-theta_i, theta_i = |arg mu_i| / log q
(ZeroLattice.angles). Unreduced, the base of S is j/2 + i theta_S with
theta_S the sum of the signed angles of S, and the j-th sublattices together
weigh a test function by sum_{|S|=j} e^{i theta_S t} = L_j(t), the real
lefschetz_weight. trace_j evaluates one ladder of alpha L_j per j.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CrossCheckFailure, DimensionTooLarge
from .intlinalg import Matrix, charpoly, det_bareiss
from .weil import FrobeniusModel

G_CAP = 8  # C(2g, g) is 12870 at g = 8 and grows ~4x per step after


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


@dataclass(frozen=True)
class ZeroLattice:
    q: int
    g: int
    period: float  # 2 pi / log q
    exps: tuple[tuple[complex, ...], ...]  # base exponents s_S per j, lex order
    angles: tuple[float, ...]  # theta_i = |arg mu_i| / log q, one per conjugate pair, ascending


def _subset_products(model: FrobeniusModel) -> tuple[tuple[complex, ...], ...]:
    """lambda_S = prod_{i in S} mu_i for every j-subset S, per j in lex order,
    from the roots; g above G_CAP is refused."""
    w = model.datum
    if w.g > G_CAP:
        raise DimensionTooLarge("g = %d exceeds the cap %d" % (w.g, G_CAP))
    n = 2 * w.g
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


def build_pj_family(model: FrobeniusModel) -> PjFamily:
    """All P_j from exact exterior-power char polynomials, float cross-checked.

    The float route expands prod (1 - lambda_S X) from the roots and
    must match every integer coefficient to 1e-8 relative; P_0 and P_2g are
    additionally pinned to their closed forms.
    """
    w = model.datum
    products = _subset_products(model)
    f = [list(row) for row in model.matrix]
    n = 2 * w.g
    polys: list[tuple[int, ...]] = []
    for j in range(n + 1):
        pj = tuple(reversed(charpoly(exterior_power_matrix(f, j))))
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


def zero_lattice(model: FrobeniusModel) -> ZeroLattice:
    """Base exponents s_S = j/2 + i arg(lambda_S) / log q (principal branch)
    per j, and the g angles theta_i of the conjugate pairs.

    Re s_S = j/2 exactly for every |S| = j; the full zero set of P_j(q^{-s})
    is {s_S + 2 pi i nu / log q : nu in Z}. The angles are the model's
    |arg mu_i| over log q, one per conjugate pair.
    """
    q = model.datum.q
    logq = math.log(q)
    exps = tuple(
        tuple(complex(j / 2, cmath.phase(lam) / logq) for lam in lams)
        for j, lams in enumerate(_subset_products(model))
    )
    return ZeroLattice(
        q=q, g=model.datum.g, period=2 * math.pi / logq, exps=exps,
        angles=tuple(theta / logq for theta in model.angles),
    )


def lefschetz_weight(angles, j: int, t) -> np.ndarray:
    """L_j(t) = [y^j] prod_i (1 + 2 y cos(theta_i t) + y^2) at every t.

    This is sum_{|S|=j} e^{i theta_S t} over the j-subsets of the 2g roots,
    whose angles come in pairs +-theta_i, so it is real: the trace of the
    flow on Lambda^j H^1 with the e^{t j/2} taken out. |L_j| <= C(2g, j) =
    L_j(0), and sum_j (-1)^j L_j(t) = prod_i (2 - 2 cos theta_i t), the
    leafwise Lefschetz number. Each factor is palindromic in y, so L_j =
    L_{2g-j}; one recurrence of g steps over the coefficients up to
    min(j, 2g - j).
    """
    t = np.asarray(t, dtype=float)
    d = min(j, 2 * len(angles) - j)
    coef = np.zeros((d + 1,) + t.shape)
    coef[0] = 1.0
    for theta in angles:
        step = 2.0 * np.cos(theta * t) * coef[:-1]
        coef[2:] += coef[:-2]
        coef[1:] += step
    return coef[d]


def zeros_in_window(lat: ZeroLattice, j: int, height: float) -> tuple[tuple[int, complex], ...]:
    """All zeros of P_j(q^{-s}) with |Im s| <= height, tagged by subset index.

    Sorted by (imaginary part, subset index); each zero has Re = j/2.
    """
    out = []
    for idx, s in enumerate(lat.exps[j]):
        lo = math.ceil((-height - s.imag) / lat.period - 1e-12)
        hi = math.floor((height - s.imag) / lat.period + 1e-12)
        for nu in range(lo, hi + 1):
            out.append((s.imag + lat.period * nu, idx, s.real))
    out.sort(key=lambda t: (t[0], t[1]))
    return tuple((idx, complex(re, im)) for im, idx, re in out)

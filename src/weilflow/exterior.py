"""Exterior powers of Frobenius and the associated zero lattices.

For each j the j-th exterior power of F acts on lexicographic j-subsets of
the eigenvalue indices; its characteristic polynomial, reversed, is the
degree-C(2g, j) factor P_j(X) = prod_{|S|=j} (1 - lambda_S X) with
lambda_S = prod_{i in S} mu_i. Each inverse root contributes a vertical
ladder of zeros s_S + 2 pi i nu / log q of P_j(q^{-s}), all on Re s = j/2.

Everything exact-integer is cross-checked against the float route built from
the polished roots; disagreement raises rather than warns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    CrossCheckFailure,
    DimensionTooLarge,
    FunctionalEquationViolation,
)
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


def _expand_products(lams: tuple[complex, ...]) -> list[complex]:
    poly = [complex(1.0)]
    for lam in lams:
        nxt = [complex(0.0)] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k] += c
            nxt[k + 1] -= c * lam
        poly = nxt
    return poly


def build_pj_family(model: FrobeniusModel) -> PjFamily:
    """All P_j from exact exterior-power char polynomials, float cross-checked.

    The float route expands prod (1 - lambda_S X) from the polished roots and
    must match every integer coefficient to 1e-8 relative; P_0 and P_2g are
    additionally pinned to their closed forms.
    """
    w = model.datum
    if w.g > G_CAP:
        raise DimensionTooLarge("g = %d exceeds the cap %d" % (w.g, G_CAP))
    f = [list(row) for row in model.matrix]
    n = 2 * w.g
    polys: list[tuple[int, ...]] = []
    products: list[tuple[complex, ...]] = []
    for j in range(n + 1):
        ext = exterior_power_matrix(f, j)
        cp = charpoly(ext)
        pj = tuple(reversed(cp))
        lams = tuple(
            math.prod((model.roots[i] for i in s), start=complex(1.0))
            for s in subsets(n, j)
        )
        approx = _expand_products(lams)
        for k, (ci, cf) in enumerate(zip(pj, approx)):
            scale = max(1.0, abs(ci))
            if abs(cf - ci) > 1e-8 * scale:
                raise CrossCheckFailure(
                    "P_%d coefficient %d: exact %d vs float %s (off %.3g relative)"
                    % (j, k, ci, cf, abs(cf - ci) / scale)
                )
        polys.append(pj)
        products.append(lams)
    if polys[0] != (1, -1):
        raise CrossCheckFailure("P_0 must be 1 - X, got %s" % (polys[0],))
    if polys[n] != (1, -(w.q**w.g)):
        raise CrossCheckFailure("P_2g must be 1 - q^g X, got %s" % (polys[n],))
    return PjFamily(q=w.q, g=w.g, polys=tuple(polys), products=tuple(products))


def zero_lattice(fam: PjFamily) -> ZeroLattice:
    """Base exponents s_S = log_q lambda_S (principal branch) per j.

    Re s_S = j/2 for every |S| = j; the full zero set of P_j(q^{-s}) is
    {s_S + 2 pi i nu / log q : nu in Z}.
    """
    logq = math.log(fam.q)
    exps = tuple(
        tuple(cmath.log(lam) / logq for lam in lams) for lams in fam.products
    )
    return ZeroLattice(q=fam.q, g=fam.g, period=2 * math.pi / logq, exps=exps)


def functional_equation_check(fam: PjFamily, tol: float = 1e-8):
    """Zero symmetry s -> g - s between P_j and P_{2g - j}.

    The complement bijection S -> S^c realizes the multiset identity:
    lambda_{S^c} = q^g / lambda_S, so g - s_S = s_{S^c} modulo the imaginary
    period. Returns (ok, max_deviation); deviation beyond tol means the input
    was not a genuine Weil polynomial despite passing validation.
    """
    lat = zero_lattice(fam)
    n = 2 * fam.g
    period = lat.period
    worst = 0.0
    for j in range(n + 1):
        comp_index = {s: k for k, s in enumerate(subsets(n, n - j))}
        exps_j = lat.exps[j]
        exps_c = lat.exps[n - j]
        for k, s in enumerate(subsets(n, j)):
            sc = tuple(sorted(set(range(n)) - set(s)))
            mirrored = fam.g - exps_j[k]
            target = exps_c[comp_index[sc]]
            d_re = mirrored.real - target.real
            d_im = mirrored.imag - target.imag
            d_im -= period * round(d_im / period)
            worst = max(worst, math.hypot(d_re, d_im))
    return worst <= tol, worst


def zeros_in_window(lat: ZeroLattice, j: int, height: float) -> tuple[tuple[int, complex], ...]:
    """All zeros of P_j(q^{-s}) with |Im s| <= height, tagged by subset index.

    Sorted by (imaginary part, subset index); each zero has Re = j/2 up to
    root-refinement error.
    """
    out = []
    for idx, s in enumerate(lat.exps[j]):
        lo = math.ceil((-height - s.imag) / lat.period - 1e-12)
        hi = math.floor((height - s.imag) / lat.period + 1e-12)
        for nu in range(lo, hi + 1):
            out.append((s.imag + lat.period * nu, idx, s.real))
    out.sort(key=lambda t: (t[0], t[1]))
    return tuple((idx, complex(re, im)) for im, idx, re in out)

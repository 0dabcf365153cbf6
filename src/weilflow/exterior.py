"""Exterior powers of Frobenius and the associated zero lattices.

For each j the j-th exterior power of F acts on lexicographic j-subsets of
the eigenvalue indices; its characteristic polynomial, reversed, is the
degree-C(2g, j) factor P_j(X) = prod_{|S|=j} (1 - lambda_S X) with
lambda_S = prod_{i in S} mu_i. Each inverse root contributes a vertical
ladder of zeros s_S + 2 pi i nu / log q of P_j(q^{-s}), all on Re s = j/2.

The zero lattice needs only the products lambda_S of the polished roots,
which frobenius_model has checked against the input. Only `zeta` builds the
exact P_j (build_pj_family), cross-checked against the same products.

The partner q/mu of a root is its exact conjugate conj(mu), so many
sublattices coincide or mirror each other exactly. zero_lattice groups the
j-subsets into classes by conjugation alone (see ZeroClass), and trace_j
evaluates one half-ladder row per class.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CrossCheckFailure, DimensionTooLarge, FunctionalEquationViolation
from .intlinalg import Matrix, charpoly, det_bareiss
from .weil import RH_TOLERANCE, FrobeniusModel, _expand_products, check_conjugate_closed

G_CAP = 8  # C(2g, g) is 12870 at g = 8 and grows ~4x per step after
FE_TOLERANCE = 1e-8  # largest deviation functional_equation_check accepts


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
class ZeroClass:
    """The j-subsets S whose sublattices are one and the same ladder.

    A pair {mu, conj(mu)} inside S contributes exactly q to lambda_S, so S
    reduces to c pairs and a rest R: lambda_S = q^c lambda_R and
    s_S = c + log_q lambda_R. The class of S is R as a multiset of root
    values; equal roots of a repeated factor are one value. The partner
    class is conj(R), the exact conjugates of R's values. A self-conjugate
    R holds only real roots +-sqrt q, each at most once; when -sqrt q is not among them, lambda_R is real
    positive and the class is the real class, based at s = j/2 exactly.
    """
    rest: tuple[int, ...]  # R: first index of each unpaired root value, sorted
    members: tuple[int, ...]  # lex indices of the j-subsets that reduce to R
    exponent: complex  # base exponent, Im in [-period/2, period/2]
    partner: int  # index of the conjugate class in the same j; itself if self-conjugate
    real: bool  # exponent is exactly j/2 + 0i

    @property
    def weight(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ZeroLattice:
    q: int
    g: int
    period: float  # 2 pi / log q
    exps: tuple[tuple[complex, ...], ...]  # base exponents s_S per j, lex order
    classes: tuple[tuple[ZeroClass, ...], ...]  # per j, by first member


def _subset_products(model: FrobeniusModel) -> tuple[tuple[complex, ...], ...]:
    """lambda_S = prod_{i in S} mu_i for every j-subset S, per j in lex order,
    from the polished roots; g above G_CAP is refused."""
    w = model.datum
    if w.g > G_CAP:
        raise DimensionTooLarge("g = %d exceeds the cap %d" % (w.g, G_CAP))
    n = 2 * w.g
    return tuple(
        tuple(math.prod((model.roots[i] for i in s), start=complex(1.0)) for s in subsets(n, j))
        for j in range(n + 1)
    )


def build_pj_family(model: FrobeniusModel) -> PjFamily:
    """All P_j from exact exterior-power char polynomials, float cross-checked.

    The float route expands prod (1 - lambda_S X) from the polished roots and
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


def _rest(s: tuple[int, ...], value: tuple[int, ...], conj: dict[int, int]) -> tuple[int, ...]:
    # the root values of S left over once every pair {mu, conj(mu)} is taken out
    held = Counter(value[i] for i in s)
    rest = []
    for v, k in held.items():
        left = k % 2 if conj[v] == v else k - min(k, held[conj[v]])
        rest.extend([v] * left)
    return tuple(sorted(rest))


def _zero_classes(q: int, roots: tuple[complex, ...], exps) -> tuple[tuple[ZeroClass, ...], ...]:
    """Classes of every P_j's sublattices, from exact root conjugation alone.

    Each class exponent is built from its rest R (j/2 for the real class, the
    conjugate of the partner's exponent for the second class of a conjugate
    pair), and every member's float exponent must match it modulo the period
    within (pairs RH_TOLERANCE + rounding) / log q. A pair's product
    |mu|^2 = q (1 + delta), |delta| <= RH_TOLERANCE (parse enforces it),
    moves Re s by log(1 + delta). pairs counts the c pairs, plus 1/2 per
    root of R on the real class, whose base j/2 ignores R's modulus.
    rounding = 8 (j + 2) eps (log q + pi) covers the <= 2j complex products
    (sqrt 5 u each), the two logs (a few ulps of |Re| <= j log q / 2 and
    |Im| <= pi), dividing by log q, adding c and the period reduction. A
    mismatch means the exponents do not come from the roots, and raises.
    """
    logq = math.log(q)
    period = 2 * math.pi / logq
    check_conjugate_closed(roots)
    first: dict[complex, int] = {}
    value = tuple(first.setdefault(mu, i) for i, mu in enumerate(roots))
    conj = {v: first[roots[v].conjugate()] for v in set(value)}
    n = len(roots)
    out = []
    for j in range(n + 1):
        groups: dict[tuple[int, ...], list[int]] = {}
        for k, s in enumerate(subsets(n, j)):
            groups.setdefault(_rest(s, value, conj), []).append(k)
        index = {rest: i for i, rest in enumerate(groups)}
        rounding = 8 * (j + 2) * math.ulp(1.0) * (logq + math.pi)
        classes: list[ZeroClass] = []
        for rest, members in groups.items():
            partner = index[tuple(sorted(conj[v] for v in rest))]
            real = partner == len(classes) and all(roots[v].real > 0 for v in rest)
            if real:
                base = complex(j / 2, 0.0)
            elif partner < len(classes):
                base = classes[partner].exponent.conjugate()
            else:
                lam = math.prod((roots[v] for v in rest), start=complex(1.0))
                base = (j - len(rest)) // 2 + cmath.log(lam) / logq
            pairs = j / 2 if real else (j - len(rest)) // 2
            tol = (pairs * RH_TOLERANCE + rounding) / logq
            for k in members:
                d = exps[j][k] - base
                d_im = d.imag - period * round(d.imag / period)
                if math.hypot(d.real, d_im) > tol:
                    raise CrossCheckFailure(
                        "j = %d subset %s: exponent %s is off its class exponent %s "
                        "by %.3g (tolerance %.3g)"
                        % (j, subsets(n, j)[k], exps[j][k], base,
                           math.hypot(d.real, d_im), tol)
                    )
            classes.append(ZeroClass(
                rest=rest, members=tuple(members), exponent=base,
                partner=partner, real=real,
            ))
        out.append(tuple(classes))
    return tuple(out)


def zero_lattice(model: FrobeniusModel) -> ZeroLattice:
    """Base exponents s_S = log_q lambda_S (principal branch) per j, and the
    classes of sublattices that share a ladder, from the polished roots.

    Re s_S = j/2 for every |S| = j; the full zero set of P_j(q^{-s}) is
    {s_S + 2 pi i nu / log q : nu in Z}.
    """
    q = model.datum.q
    logq = math.log(q)
    exps = tuple(
        tuple(cmath.log(lam) / logq for lam in lams) for lams in _subset_products(model)
    )
    return ZeroLattice(
        q=q, g=model.datum.g, period=2 * math.pi / logq, exps=exps,
        classes=_zero_classes(q, model.roots, exps),
    )


def functional_equation_check(lat: ZeroLattice) -> float:
    """Zero symmetry s -> g - s between P_j and P_{2g - j}.

    The complement bijection S -> S^c realizes the multiset identity:
    lambda_{S^c} = q^g / lambda_S, so g - s_S = s_{S^c} modulo the imaginary
    period. The complements of the lex-ordered j-subsets are the
    (2g - j)-subsets in reverse lex order, so S^c of the k-th j-subset is
    the k-th from the end. Returns the largest deviation; one beyond
    FE_TOLERANCE means the input was not a genuine Weil polynomial despite
    passing validation, and raises FunctionalEquationViolation.
    """
    exps = lat.exps
    n = 2 * lat.g
    worst = 0.0
    for j in range(n + 1):
        exps_c = exps[n - j]
        for k, s in enumerate(exps[j]):
            mirrored = lat.g - s
            target = exps_c[-1 - k]
            d_re = mirrored.real - target.real
            d_im = mirrored.imag - target.imag
            d_im -= lat.period * round(d_im / lat.period)
            worst = max(worst, math.hypot(d_re, d_im))
    if not worst <= FE_TOLERANCE:
        raise FunctionalEquationViolation(
            "zero symmetry s -> g - s off by %.3g (tolerance %s)"
            % (worst, np.format_float_scientific(FE_TOLERANCE, trim="-", exp_digits=1))
        )
    return worst


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

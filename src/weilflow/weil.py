"""Input model: Weil polynomials and their Frobenius companion matrices.

A datum is the coefficient list of a degree-2g Weil q-polynomial
P(X) = c_0 + c_1 X + ... + c_2g X^2g with c_0 = 1 and c_2g = q^g, q = p^f.
Read as descending coefficients of a monic polynomial in T, the same list is
the characteristic polynomial of the Frobenius matrix; its roots mu_1..mu_2g
all satisfy |mu| = sqrt(q) (checked, not assumed), so q/mu = conj(mu).
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    BadLength,
    BadNormalization,
    CrossCheckFailure,
    InputError,
    NotPrimePower,
    RiemannHypothesisViolation,
    RootRefinementFailure,
)
from .intlinalg import Matrix, det_bareiss

RH_TOLERANCE = 1e-9
REFINE_FACTOR = 1e-13  # residual target is REFINE_FACTOR * sqrt(q)
NEWTON_MAX_ITER = 80  # Newton steps a root gets to reach the residual target


@dataclass(frozen=True)
class WeilDatum:
    q: int
    p: int
    f: int
    g: int
    coeffs: tuple[int, ...]  # ascending in X; length 2g + 1
    label: str = ""

    @property
    def middle_coefficient(self) -> int:
        return self.coeffs[self.g]

    def to_document(self) -> dict:
        return {
            "q": self.q,
            "g": self.g,
            "weil_poly": list(self.coeffs),
            "label": self.label,
        }


@dataclass(frozen=True)
class OrdinarityVerdict:
    is_ordinary: bool
    middle_coefficient: int
    p_valuation: Optional[int]  # None when the middle coefficient is 0


@dataclass(frozen=True)
class FrobeniusModel:
    datum: WeilDatum
    matrix: tuple[tuple[int, ...], ...]
    roots: tuple[complex, ...]  # sorted by (principal argument, real part)
    precision: float  # worst Newton residual |p(mu)/p'(mu)| achieved


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Return (p, f) with q = p^f, or raise NotPrimePower."""
    if not isinstance(q, int) or q < 2:
        raise NotPrimePower("q must be an integer >= 2, got %r" % (q,))
    p = None
    m = q
    for cand in range(2, q + 1):
        if cand * cand > q:
            break
        if m % cand == 0:
            p = cand
            break
    if p is None:
        return q, 1  # q itself is prime
    f = 0
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise NotPrimePower("q = %d is not a prime power" % q)
    return p, f


def _as_int(value, what: str) -> int:
    if isinstance(value, bool):
        raise InputError("%s must be an integer, got a boolean" % what)
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError("%s must be an integer, got %r" % (what, value))


def parse_weil_datum(doc: dict) -> WeilDatum:
    """Parse and fully validate an input document.

    Two forms: {"q", "g", "weil_poly", "label"?} or the elliptic shorthand
    {"q", "trace"} which expands to [1, -trace, q]. Validation order:
    prime-power q, length, end normalization, then the Riemann hypothesis
    check on float roots (each |mu|^2 within RH_TOLERANCE * q of q).
    """
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    if "q" not in doc:
        raise InputError("input document lacks 'q'")
    q = _as_int(doc["q"], "q")
    p, f = prime_power_decompose(q)
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise InputError("label must be a string")

    if "trace" in doc and "weil_poly" not in doc:
        a = _as_int(doc["trace"], "trace")
        g = 1
        coeffs = (1, -a, q)
    else:
        if "weil_poly" not in doc:
            raise InputError("input document lacks 'weil_poly' (or 'trace')")
        if "g" not in doc:
            raise InputError("input document lacks 'g'")
        g = _as_int(doc["g"], "g")
        if g < 1:
            raise InputError("g must be >= 1, got %d" % g)
        raw = doc["weil_poly"]
        if not isinstance(raw, (list, tuple)):
            raise InputError("weil_poly must be a list of integers")
        coeffs = tuple(_as_int(v, "weil_poly[%d]" % i) for i, v in enumerate(raw))
        if len(coeffs) != 2 * g + 1:
            raise BadLength(
                "weil_poly has %d coefficients, expected 2g+1 = %d"
                % (len(coeffs), 2 * g + 1)
            )

    if coeffs[0] != 1:
        raise BadNormalization("constant coefficient must be 1, got %d" % coeffs[0])
    if coeffs[-1] != q**g:
        raise BadNormalization(
            "top coefficient must be q^g = %d, got %d" % (q**g, coeffs[-1])
        )

    w = WeilDatum(q=q, p=p, f=f, g=g, coeffs=coeffs, label=label)
    _check_riemann_hypothesis(w)
    return w


def _check_riemann_hypothesis(w: WeilDatum) -> None:
    # Runs on polished roots: raw eigenvalue estimates are only ~sqrt(eps)
    # accurate at repeated roots, which would fail tau_rh on valid input.
    roots, _ = _refined_roots(w.coeffs, w.q)
    for mu in roots:
        mod2 = abs(mu) ** 2
        if abs(mod2 - w.q) > RH_TOLERANCE * w.q:
            raise RiemannHypothesisViolation(
                "root %s has |mu|^2 = %.12g, off q = %d beyond %g relative"
                % (mu, mod2, w.q, RH_TOLERANCE)
            )


def check_ordinary(w: WeilDatum) -> OrdinarityVerdict:
    """Ordinary iff p does not divide the middle coefficient c_g."""
    cg = w.middle_coefficient
    if cg == 0:
        return OrdinarityVerdict(False, 0, None)
    v = 0
    m = abs(cg)
    while m % w.p == 0:
        m //= w.p
        v += 1
    return OrdinarityVerdict(v == 0, cg, v)


def companion_matrix(w: WeilDatum) -> Matrix:
    """Companion matrix F of the characteristic polynomial; det F = q^g exact."""
    n = 2 * w.g
    # char(T) = T^n + a_{n-1} T^{n-1} + ... + a_0 with a_k = coeffs[n - k]
    mat = [[0] * n for _ in range(n)]
    for i in range(1, n):
        mat[i][i - 1] = 1
    for i in range(n):
        mat[i][n - 1] = -w.coeffs[n - i]
    det = det_bareiss(mat)
    if det != w.q**w.g:
        raise CrossCheckFailure(
            "det(F) = %d but q^g = %d" % (det, w.q**w.g)
        )
    return mat


# ---------------------------------------------------------------------------
# Square-free decomposition over Q (exact), used to keep Newton polishing
# well conditioned at repeated roots.

def _fpoly_strip(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _fpoly_derivative(p: list[Fraction]) -> list[Fraction]:
    if len(p) == 1:
        return [Fraction(0)]
    return _fpoly_strip([p[k] * k for k in range(1, len(p))])


def _fpoly_divmod(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    if db == 0:
        return [x / lb for x in a], [Fraction(0)]
    quot = [Fraction(0)] * max(1, len(a) - db)
    while len(a) - 1 >= db and any(a):
        shift = len(a) - 1 - db
        factor = a[-1] / lb
        quot[shift] = factor
        for i in range(db + 1):
            a[shift + i] -= factor * b[i]
        a.pop()
        _fpoly_strip(a)
    return _fpoly_strip(quot), _fpoly_strip(a)


def _fpoly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _fpoly_strip(a[:]), _fpoly_strip(b[:])
    while len(b) > 1 or b[0] != 0:
        _, r = _fpoly_divmod(a, b)
        a, b = b, r
    return [x / a[-1] for x in a]  # monic


def _fpoly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return _fpoly_strip([x - y for x, y in zip(a, b)])


def _square_free_factors(coeffs: tuple[int, ...]) -> list[tuple[list[float], int]]:
    """Yun decomposition of the monic char polynomial (ascending in T).

    Returns [(factor_coeffs_float_ascending, multiplicity), ...] with each
    factor square-free and the product over factors^mult equal to char.
    """
    # ascending in T: reverse of the stored X-ascending list, then monic-ize
    asc = [Fraction(c) for c in reversed(coeffs)]
    asc = [c / asc[-1] for c in asc]
    d = _fpoly_derivative(asc)
    g0 = _fpoly_gcd(asc, d)
    out: list[tuple[list[float], int]] = []
    if len(g0) == 1:
        return [([float(c) for c in asc], 1)]
    w, _ = _fpoly_divmod(asc, g0)
    y, _ = _fpoly_divmod(d, g0)
    z = _fpoly_sub(y, _fpoly_derivative(w))
    i = 1
    while len(w) > 1:
        gi = _fpoly_gcd(w, z)
        if len(gi) > 1:
            out.append(([float(c) for c in gi], i))
        w, _ = _fpoly_divmod(w, gi)
        y, _ = _fpoly_divmod(z, gi)
        z = _fpoly_sub(y, _fpoly_derivative(w))
        i += 1
    return out


def _horner(coeffs_asc: list[float], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs_asc):
        acc = acc * z + c
    return acc


@lru_cache(maxsize=256)
def _refined_roots(coeffs: tuple[int, ...], q: int):
    """Newton-polished roots of the monic char polynomial, multiplicity-aware.

    Refinement runs against the square-free part containing each root (so
    repeated roots stay quadratically convergent); a root is accepted when
    |p(mu)/p'(mu)| < 1e-13 * sqrt(q). Returns (roots, worst_residual) with
    roots sorted by (principal argument, real part).
    """
    target = REFINE_FACTOR * math.sqrt(q)
    refined: list[complex] = []
    worst = 0.0
    for factor, mult in _square_free_factors(coeffs):
        deriv = [factor[k] * k for k in range(1, len(factor))]
        guesses = np.roots(list(reversed(factor))) if len(factor) > 1 else []
        for z0 in guesses:
            z = complex(z0)
            resid = None
            for _ in range(NEWTON_MAX_ITER):
                pv = _horner(factor, z)
                dv = _horner(deriv, z)
                if dv == 0:
                    break
                step = pv / dv
                if abs(step) < target:
                    resid = abs(step)
                    break
                z -= step
            if resid is None:
                raise RootRefinementFailure(
                    "Newton residual stuck above %.3g at root near %s"
                    % (target, z)
                )
            worst = max(worst, resid)
            refined.extend([z] * mult)

    degree = len(coeffs) - 1
    if len(refined) != degree:
        raise RootRefinementFailure(
            "found %d roots, expected %d" % (len(refined), degree)
        )
    refined.sort(key=lambda z: (cmath.phase(z), z.real))
    return tuple(refined), worst


def check_conjugate_closed(roots) -> None:
    """Raise CrossCheckFailure unless the root multiset is closed under exact
    conjugation, the float form of the pairing mu <-> q/mu = conj(mu)."""
    if Counter(roots) != Counter(mu.conjugate() for mu in roots):
        raise CrossCheckFailure("roots are not closed under complex conjugation: %s" % (roots,))


def compute_roots(w: WeilDatum):
    """Polished Frobenius eigenvalues: (roots, precision), roots sorted by
    (principal argument, real part), precision the worst Newton residual.
    np.roots of a real polynomial returns exact conjugate pairs and the
    Newton polish is sign-symmetric in IEEE arithmetic, so each root's
    partner q/mu is its exact conjugate, repeated roots included (checked).
    """
    _check_riemann_hypothesis(w)
    refined, worst = _refined_roots(w.coeffs, w.q)
    check_conjugate_closed(refined)
    return refined, worst


def _expand_products(lams) -> list[complex]:
    """Ascending coefficients of prod (1 - lam X), one factor per step."""
    poly = [complex(1.0)]
    for lam in lams:
        poly = [a - b * lam for a, b in zip(poly + [0j], [0j] + poly)]
    return poly


def frobenius_model(w: WeilDatum) -> FrobeniusModel:
    """Companion matrix plus polished roots, with Vieta's check of the roots.

    prod (1 - mu X), expanded from the polished roots, must match each input
    coefficient c_k = (-1)^k e_k(mu) within gamma_k C(2g, k) q^(k/2), where
    C(2g, k) q^(k/2) = e_k(|mu|) is the exact absolute majorant (|mu| = sqrt q).
    A polished root is within rho sqrt q of the true one, rho = REFINE_FACTOR
    (the accepted Newton step), so a product of k is off by at most
    ((1 + rho)^k - 1) q^(k/2). Each of the 2g expansion steps a - b lam, and
    the final subtraction of c_k, costs at most theta = (sqrt 5 + 1)(1 + u) u
    of the majorant (sqrt 5 u for a complex product, u for an addition):
    gamma_k = (1 + rho)^k - 1 + ((1 + theta)^(2g + 1) - 1)(1 + rho)^k.
    P(1) = prod (1 - mu) and c_2g = prod mu are linear in the c_k.
    """
    mat = companion_matrix(w)
    roots, precision = compute_roots(w)
    n = 2 * w.g
    u = math.ulp(1.0) / 2
    theta = (math.sqrt(5) + 1) * (1 + u) * u
    rounding = math.expm1((n + 1) * math.log1p(theta))
    for k, (c, approx) in enumerate(zip(w.coeffs, _expand_products(roots))):
        drift = k * math.log1p(REFINE_FACTOR)
        gamma = math.expm1(drift) + rounding * math.exp(drift)
        tol = gamma * math.comb(n, k) * w.q ** (k / 2)
        if abs(approx - c) > tol:
            raise CrossCheckFailure(
                "coefficient %d of prod(1 - mu X) is %s, the input has %d "
                "(off %.3g, tolerance %.3g)" % (k, approx, c, abs(approx - c), tol)
            )
    return FrobeniusModel(
        datum=w,
        matrix=tuple(tuple(row) for row in mat),
        roots=roots,
        precision=precision,
    )

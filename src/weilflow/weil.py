"""Input model: Weil polynomials and their Frobenius companion matrices.

A datum is the coefficient list of a degree-2g Weil q-polynomial
P(X) = c_0 + c_1 X + ... + c_2g X^2g with c_0 = 1 and c_2g = q^g, q = p^f.
Read as descending coefficients of a monic polynomial in T, the same list is
the characteristic polynomial of the Frobenius matrix; its roots mu_1..mu_2g
all satisfy |mu| = sqrt(q), so q/mu = conj(mu).

That is decided exactly on parse, never in floats. P is a Weil q-polynomial
iff c_{2g-k} = q^{g-k} c_k (the functional equation) and the monic integer h
with T^g h(T + q/T) = char(T) has every root real in [-2 sqrt q, 2 sqrt q]
(Kedlaya, "Search techniques for root-unitary polynomials", 2008). Sturm
counts on the square-free factors of h decide the second condition, with
the signs at +-2 sqrt q evaluated exactly as A + B sqrt q. The chains and
Yun's factors come from integer pseudo-remainders, positive multiples of
the rational remainders, so no rational arithmetic is used. A root x_i of
h is the pair mu + conj(mu) = 2 sqrt(q) cos theta_i: roots at +-2 sqrt q
are divided out exactly and give the real roots +-sqrt q (theta = 0, pi);
every other root is held in a bracket of adjacent floats where h changes
sign exactly, so theta_i comes with a proven radius and the roots
sqrt(q) e^{+-i theta_i} are built as exact conjugate pairs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import Optional

from .errors import (
    BadLength,
    BadNormalization,
    FieldTooLarge,
    InputError,
    NotPrimePower,
    RiemannHypothesisViolation,
)
from .intlinalg import Matrix


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
    """The roots of the Frobenius of datum, decided exactly. Its matrix is
    companion_matrix(datum); counting walks the powers F^n from
    datum.coeffs without forming it."""

    datum: WeilDatum
    roots: tuple[complex, ...]  # sorted by (principal argument, real part)
    angles: tuple[float, ...]  # theta_i = |arg mu_i| per conjugate pair, ascending
    precision: float  # largest proven radius of an angle bracket


# the 13 prime Miller-Rabin bases 2..41 decide primality exactly below this
# bound (Sorenson and Webster, Math. Comp. 86 (2017)); q at or above it is refused
Q_CAP = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the bases _MR_BASES, exact for n < Q_CAP."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Return (p, f) with q = p^f, or raise NotPrimePower; q >= Q_CAP raises
    FieldTooLarge. Each f >= 1 takes the exact integer f-th root of q and
    tests it with _is_prime."""
    if not isinstance(q, int) or q < 2:
        raise NotPrimePower("q must be an integer >= 2, got %r" % (q,))
    if q >= Q_CAP:
        raise FieldTooLarge("q of %d bits is at or above the cap Q_CAP = %d, past which "
                            "primality is not decided exactly" % (q.bit_length(), Q_CAP))
    for f in range(1, q.bit_length()):
        p = q if f == 1 else round(q ** (1.0 / f))  # f >= 2: within one, as q < 2^82
        p += (p + 1) ** f <= q
        p -= p ** f > q
        if p ** f == q and _is_prime(p):
            return p, f
    raise NotPrimePower("q = %d is not a prime power" % q)


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
    {"q", "trace"} (with "g" = 1 at most) which expands to [1, -trace, q];
    "trace" beside "weil_poly" or another "g" is refused. Validation order:
    prime-power q, length, end normalization, then the exact Riemann
    hypothesis decision of _weil_roots.
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

    if "trace" in doc:
        if "weil_poly" in doc:
            raise InputError("input document gives both 'trace' and 'weil_poly'; "
                             "give one of the two forms")
        g = _as_int(doc.get("g", 1), "g")
        if g != 1:
            raise InputError("'trace' is the g = 1 shorthand, but 'g' is %d" % g)
        a = _as_int(doc["trace"], "trace")
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

    _weil_roots(coeffs, q)
    return WeilDatum(q=q, p=p, f=f, g=g, coeffs=coeffs, label=label)


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
    """Companion matrix F of the characteristic polynomial; det F = c_2g = q^g."""
    n = 2 * w.g
    # char(T) = T^n + a_{n-1} T^{n-1} + ... + a_0 with a_k = coeffs[n - k]
    mat = [[0] * n for _ in range(n)]
    for i in range(1, n):
        mat[i][i - 1] = 1
    for i in range(n):
        mat[i][n - 1] = -w.coeffs[n - i]
    return mat


# ---------------------------------------------------------------------------
# Exact polynomial arithmetic: lists of ascending integer coefficients.

def _strip(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _derivative(p: list[int]) -> list[int]:
    return _strip([p[k] * k for k in range(1, len(p))] or [0])


def _primitive(p: list[int]) -> list[int]:
    """p over its content: the least positive multiple of p in integers, so
    it has the sign of p everywhere."""
    content = math.gcd(*p) or 1
    return [c // content for c in p]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quot, rem) with m a = quot b + rem and deg rem < deg b, where m is a
    power of |lc b|: the running dividend is multiplied by |lc b| only when a
    step would not divide exactly. So rem is a positive multiple of the
    rational remainder, and quot is the exact quotient when b is monic or
    divides a."""
    rem, db, lb = a[:], len(b) - 1, b[-1]
    quot = [0] * max(1, len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        if rem[shift + db] % lb:
            rem, quot = [abs(lb) * c for c in rem], [abs(lb) * c for c in quot]
        quot[shift] = rem[shift + db] // lb
        for i, c in enumerate(b):
            rem[shift + i] -= quot[shift] * c
    return _strip(quot), _strip(rem[:db] or [0])


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of a and b with a positive leading coefficient."""
    while b != [0]:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return _primitive(a if a[-1] > 0 else [-c for c in a])


def _square_free_factors(asc: list[int]) -> list[tuple[list[int], int]]:
    """Yun decomposition of a monic integer polynomial (ascending).

    Returns [(factor, multiplicity), ...] with each factor monic and
    square-free, and the product over factors^mult equal to the input. Every
    gcd divides a monic integer polynomial, so by Gauss's lemma it is monic
    in integers and every division is exact.
    """
    d = _derivative(asc)
    g0 = _gcd(asc, d)
    if len(g0) == 1:
        return [(asc, 1)]
    out: list[tuple[list[int], int]] = []
    w, y = _pseudo_divmod(asc, g0)[0], _pseudo_divmod(d, g0)[0]
    i = 1
    while len(w) > 1:
        z = _strip([s - t for s, t in zip_longest(y, _derivative(w), fillvalue=0)])
        gi = _gcd(w, z)
        if len(gi) > 1:
            out.append((gi, i))
        w, y = _pseudo_divmod(w, gi)[0], _pseudo_divmod(z, gi)[0]
        i += 1
    return out


# ---------------------------------------------------------------------------
# The exact Riemann hypothesis and the root angles.

def _check_functional_equation(coeffs: tuple[int, ...], q: int) -> None:
    g = (len(coeffs) - 1) // 2
    for k in range(g):
        if coeffs[2 * g - k] != q ** (g - k) * coeffs[k]:
            raise RiemannHypothesisViolation(
                "c_%d = %d, but the functional equation c_{2g-k} = q^{g-k} c_k "
                "needs q^%d c_%d = %d" % (2 * g - k, coeffs[2 * g - k], g - k, k,
                                          q ** (g - k) * coeffs[k])
            )


def _real_weil_polynomial(coeffs: tuple[int, ...], q: int) -> list[int]:
    """h, ascending, with T^g h(T + q/T) = char(T) once the functional
    equation holds: h = c_g + sum_{k<g} c_k D_{g-k}, where the Dickson
    polynomials D_0 = 2, D_1 = x, D_m = x D_{m-1} - q D_{m-2} satisfy
    D_m(T + q/T) = T^m + (q/T)^m."""
    g = (len(coeffs) - 1) // 2
    dickson = [[2], [0, 1]]
    for m in range(2, g + 1):
        up = [0] + dickson[m - 1]
        down = dickson[m - 2] + [0, 0]
        dickson.append([a - q * b for a, b in zip(up, down)])
    h = [0] * (g + 1)
    h[0] = coeffs[g]
    for k in range(g):
        for i, c in enumerate(dickson[g - k]):
            h[i] += coeffs[k] * c
    return h


def _sign(f: list[int], x: float) -> int:
    """Sign of f(x), exactly: x = n/d, and d^deg f(n/d) is an integer."""
    n, d = x.as_integer_ratio()
    acc, scale = f[-1], 1
    for c in reversed(f[:-1]):
        scale *= d
        acc = acc * n + c * scale
    return (acc > 0) - (acc < 0)


def _edge_sign(f: list[int], q: int, side: int) -> int:
    """Sign of f(side 2 sqrt q), exactly, as A + B sqrt q with integers A, B."""
    a = sum(c * (4 * q) ** (k // 2) for k, c in enumerate(f) if k % 2 == 0)
    b = side * sum(2 * c * (4 * q) ** (k // 2) for k, c in enumerate(f) if k % 2)
    if (a >= 0) == (b >= 0) or a == 0 or b == 0:
        return (a + b > 0) - (a + b < 0)
    if a * a == b * b * q:
        return 0
    return (a > 0) - (a < 0) if a * a > b * b * q else (b > 0) - (b < 0)


def _variations(signs) -> int:
    nonzero = [s for s in signs if s]
    return sum(s != t for s, t in zip(nonzero, nonzero[1:]))


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """f, f', then minus each remainder, each scaled by a positive integer;
    f square-free, so the chain ends at a nonzero constant."""
    chain = [f, _primitive(_derivative(f))]
    while len(chain[-1]) > 1:
        chain.append(_primitive([-c for c in _pseudo_divmod(chain[-2], chain[-1])[1]]))
    return chain


def _isolate(chain, a: float, va: int, b: float, vb: int, out: list) -> None:
    """Append (lo, hi) for each root of chain[0] in (a, b], where va and vb
    are the chain's sign variations at a and b (Sturm: va - vb roots there).
    hi and lo are adjacent floats, or equal when the root is exactly hi."""
    while va > vb:
        if va - vb == 1 and _sign(chain[0], b) == 0:
            out.append((b, b))
            return
        m = a + (b - a) / 2
        if m == a or m == b:
            out.extend([(a, b)] * (va - vb))
            return
        vm = _variations(_sign(f, m) for f in chain)
        if va > vm > vb:
            _isolate(chain, a, va, m, vm, out)
            a, va = m, vm
        elif vm == vb:
            b, vb = m, vm
        else:
            a, va = m, vm


def _angle(x: float, q: int) -> tuple[float, complex]:
    """(theta, mu) for the root x = mu + conj(mu) = 2 sqrt(q) cos theta of h:
    Re mu = x/2 exactly, Im mu = sqrt(q - (x/2)^2) rounded once, theta =
    arg mu. A bracket may reach just past +-2 sqrt q; Im mu is 0 there."""
    re = x / 2
    n, d = re.as_integer_ratio()
    im2 = q * d * d - n * n  # (q - re^2) d^2
    mu = complex(re, math.sqrt(im2 / (d * d)) if im2 > 0 else 0.0)
    return cmath.phase(mu), mu


@lru_cache(maxsize=256)
def _weil_roots(coeffs: tuple[int, ...], q: int):
    """Decide the Riemann hypothesis for coeffs exactly, then build the roots.

    Raises RiemannHypothesisViolation when the functional equation fails or
    a root of h is not real in [-2 sqrt q, 2 sqrt q]. Returns (angles,
    roots, precision): one angle per conjugate pair, ascending; the 2g
    roots sorted by (principal argument, real part), each non-real one
    next to its exact conjugate; precision the largest distance from an
    angle to the angles at its bracket's ends.
    """
    _check_functional_equation(coeffs, q)
    h = _real_weil_polynomial(coeffs, q)
    s, r = math.sqrt(q), math.isqrt(q)
    # the factors of h with roots x = 2 sqrt q (theta = 0) and x = -2 sqrt q (theta = pi)
    edges = ([([-2 * r, 1], [(0.0, s)]), ([2 * r, 1], [(math.pi, -s)])] if r * r == q
             else [([-4 * q, 0, 1], [(0.0, s), (math.pi, -s)])])
    bound = float(2 * r + 2)  # every root left has |x| < 2 sqrt q < bound
    angles, roots, precision = [], [], 0.0
    for f, mult in _square_free_factors(h):
        pairs = []  # (theta, mu, radius) per root x of f
        for edge, ends in edges:
            quot, rem = _pseudo_divmod(f, edge)  # edge is monic: exact
            if rem == [0]:
                f = quot
                pairs += [(theta, complex(re, 0.0), 0.0) for theta, re in ends]
        if len(f) > 1:
            chain = _sturm_chain(f)
            inside = (_variations(_edge_sign(p, q, -1) for p in chain)
                      - _variations(_edge_sign(p, q, 1) for p in chain))
            if inside != len(f) - 1:
                raise RiemannHypothesisViolation(
                    "%d of the %d roots of the factor %s of h = %s (ascending; "
                    "T^g h(T + q/T) = char(T)) are real in (-2 sqrt q, 2 sqrt q), "
                    "so some |mu| != sqrt q" % (inside, len(f) - 1, f, h)
                )
            brackets = []
            _isolate(chain, -bound, _variations(_sign(p, -bound) for p in chain),
                     bound, _variations(_sign(p, bound) for p in chain), brackets)
            for lo, hi in brackets:
                theta, mu = _angle(lo + (hi - lo) / 2, q)
                radius = max(abs(_angle(x, q)[0] - theta) for x in (lo, hi))
                pairs.append((theta, mu, radius))
        for theta, mu, radius in pairs:
            angles += [theta] * mult
            roots += [mu, mu.conjugate() if mu.imag else mu] * mult
            precision = max(precision, radius)
    roots.sort(key=lambda z: (cmath.phase(z), z.real))
    return tuple(sorted(angles)), tuple(roots), precision


def frobenius_model(w: WeilDatum) -> FrobeniusModel:
    """The exactly decided roots and angles of w; a datum built without
    parse_weil_datum gets the same decision here."""
    angles, roots, precision = _weil_roots(w.coeffs, w.q)
    return FrobeniusModel(
        datum=w,
        roots=roots,
        angles=angles,
        precision=precision,
    )

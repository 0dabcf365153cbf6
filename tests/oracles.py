"""Independent oracles for the test suite.

Everything here avoids the package's own numerical paths on purpose:
quadrature is composite Simpson on a dense uniform grid or mpmath's
tanh-sinh at 30 digits and more (mpmath_phi), point counts come
from the Lucas-style trace recurrence, spectral traces from elementary
symmetric functions of eigenvalue powers, the zeros' imaginary parts from
the phases of products of roots, and exact linear algebra from sympy;
Frobenius angles come from the closed-form roots of each factor of the
real Weil polynomial, in mpmath.
Frozen constants were produced by these same routines (plus an
mpmath tanh-sinh run at 30 digits) before the library internals existed.
"""

import cmath
import collections
import itertools
import math
import random

import numpy as np

# Phi(0) for the standard mollifier (c=0, w=1, A=1): Simpson at 2^22 nodes
# and mpmath.quad (tanh-sinh, dps=30) agree on 0.443993816168079437...
PHI0_STANDARD = 0.4439938161680794
# Phi(0.5 + 3i) for the standard mollifier, same two methods
PHI_HALF_3I = complex(0.197149827989994836, 0.062407164347121118)
ALPHA_AT_0 = 0.36787944117144233  # exp(-1)
ALPHA_AT_HALF = 0.26359713811572677  # exp(-4/3)


def alpha(t, bumps):
    """Mollifier sum evaluated on a numpy array, independent coding."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for c, w, a in bumps:
        s = t - c
        inside = np.abs(s) < w
        u = np.where(inside, w * w - s * s, 1.0)
        out = out + np.where(inside, a * np.exp(-w * w / u), 0.0)
    return out


def _simpson(f, bumps, n):
    """Composite Simpson of f over the hull of the bumps' supports, n even."""
    lo = min(c - w for c, w, _ in bumps)
    hi = max(c + w for c, w, _ in bumps)
    if n % 2:
        n += 1
    t = np.linspace(lo, hi, n + 1)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (hi - lo) / n
    return np.sum(weights * f(t)) * h / 3.0


def simpson_phi(s, bumps, n=1 << 20):
    """Phi(s) = integral of e^{st} alpha(t) dt by composite Simpson."""
    return complex(_simpson(lambda t: alpha(t, bumps) * np.exp(complex(s) * t), bumps, n))


def simpson_abs(sigma, bumps, n=1 << 20):
    """integral of |e^{sigma t} alpha(t)| dt by composite Simpson: the mass
    that bounds |Phi| on the line Re s = sigma."""
    return float(_simpson(lambda t: np.abs(alpha(t, bumps)) * np.exp(sigma * t), bumps, n))


FE_TOLERANCE = 1e-8  # largest zero-symmetry deviation criterion 7 accepts


def zero_symmetry_deviation(model, zeros_in_window, height=12.0):
    """Largest deviation from the zero symmetry s -> g - s between the zeros
    of P_j and P_{2g-j} that zeros_in_window lists, in floats.

    The complement bijection S -> S^c realizes the multiset identity:
    lambda_{S^c} = q^g / lambda_S, so g - s_S lies on the ladder of S^c. The
    complements of the lex-ordered j-subsets are the (2g - j)-subsets in
    reverse lex order, so S^c of the k-th j-subset is the k-th from the end.
    Each zero with |Im s| <= height is matched with the nearest zero of its
    complement's ladder in a window one period wider; a missing partner
    deviates by inf.
    """
    g = model.datum.g
    wider = height + 2 * math.pi / math.log(model.datum.q)
    worst = 0.0
    for j in range(2 * g + 1):
        ladders = collections.defaultdict(list)
        for idx, s in zeros_in_window(model, 2 * g - j, wider):
            ladders[idx].append(s)
        last = math.comb(2 * g, j) - 1
        for idx, s in zeros_in_window(model, j, height):
            near = min((abs((g - s) - t) for t in ladders[last - idx]), default=math.inf)
            worst = max(worst, near)
    return worst


def subset_product_ims(roots, q, j):
    """Im s_S = arg(prod_{i in S} mu_i) / log q, the principal phase of the
    product of the roots in S, for every lex-ordered j-subset S."""
    logq = math.log(q)
    return [cmath.phase(math.prod((roots[i] for i in s), start=complex(1.0))) / logq
            for s in itertools.combinations(range(len(roots)), j)]


def weil_angles(q, h_factors, dps=40):
    """Sorted Frobenius angles arccos(x / 2 sqrt q), as mpmath numbers at dps
    digits, over the roots x of each factor of the real Weil polynomial.

    Each factor is x + c (as [c, 1]) or x^2 + b x + c (as [c, b, 1]), roots
    by the closed forms; a repeated factor repeats its angles.
    """
    import mpmath

    with mpmath.workdps(dps):
        angles = []
        for f in h_factors:
            if len(f) == 2:
                xs = [mpmath.mpf(-f[0])]
            else:
                c, b, _ = f
                disc = mpmath.sqrt(b * b - 4 * c)
                xs = [(-b - disc) / 2, (-b + disc) / 2]
            angles += [mpmath.acos(x / (2 * mpmath.sqrt(q))) for x in xs]
        return sorted(angles)


def trace_counts(a, q, n_max):
    """N_n for an elliptic Weil polynomial 1 - aX + qX^2, exact integers.

    t_n = mu^n + conj(mu)^n satisfies t_{n+1} = a t_n - q t_{n-1} with
    t_0 = 2, t_1 = a, and N_n = q^n + 1 - t_n. No matrices, no floats.
    """
    t_prev, t_cur = 2, a
    out = []
    for n in range(1, n_max + 1):
        if n > 1:
            t_prev, t_cur = t_cur, a * t_cur - q * t_prev
        out.append(q ** n + 1 - t_cur)
    return out


def product_counts(traces, q, n_max):
    """N_n of a product of elliptic factors over the same field."""
    per = [trace_counts(a, q, n_max) for a in traces]
    return [math.prod(col) for col in zip(*per)]


def mobius(n):
    out, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def closed_points(counts):
    """Degree-d point counts from N_n by Mobius inversion; exact division."""
    out = []
    for d in range(1, len(counts) + 1):
        total = sum(mobius(d // e) * counts[e - 1] for e in range(1, d + 1) if d % e == 0)
        assert total % d == 0
        out.append(total // d)
    return out


def elementary_symmetric(values, j):
    """e_j of a list of complex numbers via the product expansion."""
    coeffs = [1.0 + 0.0j]
    for v in values:
        nxt = [0.0 + 0.0j] * (len(coeffs) + 1)
        nxt[0] = coeffs[0]
        for i in range(1, len(coeffs)):
            nxt[i] = coeffs[i] + v * coeffs[i - 1]
        nxt[len(coeffs)] = v * coeffs[-1]
        coeffs = nxt
    return coeffs[j] if j < len(coeffs) else 0.0 + 0.0j


def symmetric_trace(roots, q, j, bumps):
    """T_j by resummation: log q * sum_k e_j(mu_1^k..mu_2g^k) alpha(k log q).

    Independent of zero ladders and of the package's counting code; k = 0
    contributes binomial(2g, j) * alpha(0).
    """
    logq = math.log(q)
    lo = min(c - w for c, w, _ in bumps)
    hi = max(c + w for c, w, _ in bumps)
    k_lo = math.floor(lo / logq) - 1
    k_hi = math.ceil(hi / logq) + 1
    total = 0.0 + 0.0j
    for k in range(k_lo, k_hi + 1):
        t = k * logq
        a_val = float(alpha(np.array([t]), bumps)[0])
        if a_val == 0.0:
            continue
        powered = [mu ** k for mu in roots]
        total += elementary_symmetric(powered, j) * a_val
    return logq * total


def real_weil_box(g, q):
    """The tails (h_1, .., h_g) of the monic h(x) = x^g + h_1 x^{g-1} + ... +
    h_g whose roots could all lie in [-2 sqrt q, 2 sqrt q]: |h_k| <= C(g, k)
    (2 sqrt q)^k, in lexicographic order."""
    bounds = [math.isqrt(math.comb(g, k) ** 2 * (4 * q) ** k) for k in range(1, g + 1)]
    return list(itertools.product(*(range(-b, b + 1) for b in bounds)))


def weil_poly_from_h(g, q, tail):
    """The char polynomial T^g h(T + q/T) of h = x^g + h_1 x^{g-1} + ... +
    h_g, read backwards: the Weil polynomial, ascending."""
    char = [0] * (2 * g + 1)  # ascending in T
    for k, hk in enumerate((1, *tail)):  # h_k T^g (T + q/T)^{g-k} = h_k T^k (T^2 + q)^{g-k}
        for i in range(g - k + 1):
            char[k + 2 * i] += hk * math.comb(g - k, i) * q ** (g - k - i)
    return char[::-1]


def _sympy_accepts(g, q, tail):
    """Whether every root of h = x^g + h_1 x^{g-1} + ... + h_g is real and
    lies in [-2 sqrt q, 2 sqrt q]: equivalently all g roots of F(y) = (-1)^g
    h(sqrt y) h(-sqrt y), counted with multiplicity, are real and lie in [0,
    4q], which sympy's real-root isolation decides exactly on rational
    bounds."""
    from sympy import Poly, symbols

    h = (1, *tail)  # descending in x; h(x) h(-x) in y = x^2, descending
    even = [sum(h[i] * h[2 * m - i] * (-1) ** (g - i) for i in range(max(0, 2 * m - g), min(g, 2 * m) + 1))
            for m in range(g + 1)]
    return sum(mult for _, mult in Poly(even, symbols("y")).intervals(inf=0, sup=4 * q)) == g


def weil_polynomials(g, q):
    """Every Weil q-polynomial of degree 2g, ascending, in the order of
    real_weil_box.

    weil_poly_from_h(h) is one iff _sympy_accepts(h). A float screen (roots
    of h more than 1e-3 off the real segment, far past the perturbation of a
    root of multiplicity 3 or less) only skips the exact decision: a valid
    polynomial it dropped would show as one that weilflow accepts and this
    list lacks.
    """
    box = real_weil_box(g, q)
    companion = np.zeros((len(box), g, g))
    companion[:, 0, :] = -np.array(box, dtype=float)
    companion[:, np.arange(1, g), np.arange(g - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    near = np.all((np.abs(roots.imag) <= 1e-3) & (np.abs(roots.real) <= 2 * math.sqrt(q) + 1e-3), axis=1)
    return [weil_poly_from_h(g, q, tail) for tail in itertools.compress(box, near)
            if _sympy_accepts(g, q, tail)]


RANDOM_FIELDS = (5, 7, 49, 101, 10_007)


def random_real_weil_tails(count, seed):
    """count seeded tails (g, q, (h_1, .., h_g)): the coefficients of
    prod (x - x_i) over g uniform reals x_i in [-2 sqrt q, 2 sqrt q], each
    rounded to an integer, with g in 2..8 and q in RANDOM_FIELDS. Rounding
    moves some roots off the segment or off the real line, so only some
    draws give Weil polynomials, and few of those are products."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g, q = rng.randint(2, 8), rng.choice(RANDOM_FIELDS)
        h = [1.0]  # descending
        for _ in range(g):
            x = rng.uniform(-2 * math.sqrt(q), 2 * math.sqrt(q))
            h = [a - x * b for a, b in zip(h + [0.0], [0.0] + h)]
        out.append((g, q, tuple(round(c) for c in h[1:])))
    return out


def sympy_weil_angles(g, q, tail, dps=40):
    """Sorted Frobenius angles arccos(x / 2 sqrt q) of h = x^g + h_1 x^{g-1}
    + ... + h_g, as mpmath numbers at dps digits, when _sympy_accepts(h);
    None otherwise. Each root x is the midpoint of a sympy isolating
    interval of width at most 10^-dps, repeated by its multiplicity."""
    import mpmath
    from sympy import Poly, Rational, symbols

    if not _sympy_accepts(g, q, tail):
        return None
    roots = Poly((1, *tail), symbols("x")).intervals(eps=Rational(1, 10 ** dps))
    with mpmath.workdps(dps):
        mids = [(mpmath.mpf(lo.p) / lo.q + mpmath.mpf(hi.p) / hi.q) / 2 for (lo, hi), _ in roots]
        # the closed segment: a root at +-2 sqrt q may sit a rounding past it
        cosines = [max(-1, min(1, x / (2 * mpmath.sqrt(q)))) for x in mids]
        return sorted(mpmath.acos(c) for c, (_, mult) in zip(cosines, roots) for _ in range(mult))


def sympy_charpoly_ascending(rows):
    """Characteristic polynomial coefficients, ascending, monic at top."""
    from sympy import Matrix, symbols

    lam = symbols("lam")
    poly = Matrix(rows).charpoly(lam)
    desc = [int(c) for c in poly.all_coeffs()]
    return list(reversed(desc))


def sympy_snf_divisors(rows):
    """Nonzero elementary divisors (positive, divisibility order) via sympy."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    m = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(int(m[i, i])) for i in range(min(m.shape))]
    nonzero = sorted(d for d in diag if d != 0)
    return nonzero


def sympy_det(rows):
    from sympy import Matrix

    return int(Matrix(rows).det())


def mpmath_phi(bumps, sigma, tau, dps=30):
    """Phi(sigma + i tau) of a sum of bumps (c, w, a) by mpmath quadrature.

    Each bump is integrated in x = (t - c)/w: a w e^{sc} times the integral
    of e^{s w x - 1/(1 - x^2)}. Up to omega = |tau| w = 300 the path is [-1,
    1] in about omega/3 pieces, with sqrt(omega)/2.3 more digits for the
    cancellation (|Phi| falls like e^{-sqrt omega}). Past that it is the
    trapezoid -1 -> -1 + e^{i pi/3}/2 -> 1 + e^{2 pi i/3}/2 -> 1, mirrored
    for tau < 0: the integrand is analytic off x = +-1 and decays into both
    ends inside that sector, so the value is the same, and there it neither
    cancels nor oscillates much.
    """
    import mpmath

    with mpmath.workdps(dps + int(math.sqrt(min(abs(tau) * max(w for _, w, _ in bumps), 300.0)) / 2.3)):
        s = mpmath.mpc(sigma, tau)
        total = mpmath.mpc(0)
        for c, w, a in bumps:
            c, w, a = mpmath.mpf(c), mpmath.mpf(w), mpmath.mpf(a)
            omega = abs(tau) * w

            def f(x):
                return mpmath.exp(s * w * x - 1 / (1 - x * x))

            if omega <= 300:
                path = mpmath.linspace(-1, 1, max(4, int(omega / 3)) + 1)
            else:
                lift = mpmath.mpc(0, 1 if tau > 0 else -1) * mpmath.sqrt(3) / 4
                path = [-1, mpmath.mpf(-3) / 4 + lift, mpmath.mpf(3) / 4 + lift, 1]
            total += a * w * mpmath.exp(s * c) * mpmath.quad(f, path)
        return complex(total)

"""Independent oracles for the test suite.

Everything here avoids the package's own numerical paths on purpose:
quadrature is composite Simpson on a dense uniform grid, point counts come
from the Lucas-style trace recurrence, spectral traces from elementary
symmetric functions of eigenvalue powers, and exact linear algebra from
sympy. Frozen constants were produced by these same routines (plus an
mpmath tanh-sinh run at 30 digits) before the library internals existed.
"""

import cmath
import math

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


def simpson_phi(s, bumps, n=1 << 20):
    """Phi(s) = integral of e^{st} alpha(t) dt by composite Simpson."""
    lo = min(c - w for c, w, _ in bumps)
    hi = max(c + w for c, w, _ in bumps)
    if n % 2:
        n += 1
    t = np.linspace(lo, hi, n + 1)
    y = alpha(t, bumps) * np.exp(complex(s) * t)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (hi - lo) / n
    return complex(np.sum(weights * y) * h / 3.0)


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


def grid_variation_h1(sigma, bumps, n=1 << 18):
    """Total variation of h' for h = e^{sigma t} alpha, on a uniform grid.

    h' = e^{sigma t} (alpha' + sigma alpha) is coded here from the chain rule,
    not from the package's jets. A partition sum of |h'(t_{i+1}) - h'(t_i)|
    is never above the true variation, which is integral |h''| dt, so this
    is a lower bound that closes in on it as n grows (the gap at each
    extremum of h' shrinks as the square of the grid step).
    """
    lo = min(c - w for c, w, _ in bumps)
    hi = max(c + w for c, w, _ in bumps)
    t = np.linspace(lo, hi, n + 1)
    h1 = np.zeros_like(t)
    for c, w, a in bumps:
        s = t - c
        inside = np.abs(s) < w
        gap = np.where(inside, w * w - s * s, 1.0)
        h = np.where(inside, a * np.exp(sigma * t - w * w / gap), 0.0)
        h1 = h1 + h * (sigma - 2.0 * w * w * s / (gap * gap))
    return float(np.sum(np.abs(np.diff(h1))))

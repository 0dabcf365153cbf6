"""Smooth compactly supported test functions and their transforms.

The basic building block is the scaled mollifier
alpha(t) = A exp(-w^2 / (w^2 - (t - c)^2)) on |t - c| < w, zero outside,
which is C-infinity with all derivatives vanishing at the support boundary.
Finite sums of bumps are first-class: everything downstream only needs
pointwise jets (alpha, alpha', alpha''), the support hull, and a mass scale.

Phi(s) = integral e^{t s} alpha(t) dt is entire in s. phi_ladder computes it
along an arithmetic progression of imaginary parts in one shared composite
Gauss-Legendre panelization (order 64, panels doubled until successive passes
agree to 1e-12 relative, with an envelope floor so near-zero values terminate);
phi is a ladder of one point. This quadrature is the only approximation: the
tail majorant M2 is a closed form, exact up to a stated rounding allowance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import InputError, QuadratureNonConvergence

# integral of exp(-1/(1-t^2)) over [-1,1]; used only as a tolerance scale
MOLLIFIER_MASS = 0.4439938161680794

GL_ORDER = 64
_MAX_NODES = 1 << 21  # bail out of doubling past ~2M evaluation points

# exp underflows to 0 below ~-745; cut earlier so derivative prefactors
# (which blow up polynomially at the edge) never meet a denormal exp
_EXP_CUTOFF = -700.0


@dataclass(frozen=True)
class BumpFunction:
    center: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.width > 0):
            raise InputError("bump width must be positive, got %r" % (self.width,))
        if not math.isfinite(self.center) or not math.isfinite(self.amplitude):
            raise InputError("bump parameters must be finite")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.width, self.center + self.width)

    @property
    def mass_scale(self) -> float:
        """Upper-bound scale for integral of |alpha|; not a certified value."""
        return abs(self.amplitude) * self.width * MOLLIFIER_MASS

    def values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        s = t - self.center
        w2 = self.width * self.width
        denom = w2 - s * s
        out = np.zeros(t.shape)
        mask = denom > 0
        u = np.full(t.shape, -np.inf)
        u[mask] = -w2 / denom[mask]
        live = u > _EXP_CUTOFF
        out[live] = self.amplitude * np.exp(u[live])
        return out

    def jet(self, t: np.ndarray):
        """(alpha, alpha', alpha'') arrays; exact closed forms.

        With u = -w^2/(w^2 - s^2): alpha = A e^u, alpha' = alpha u',
        alpha'' = alpha (u'' + u'^2); all three vanish smoothly at the edge.
        """
        t = np.asarray(t, dtype=float)
        s = t - self.center
        w2 = self.width * self.width
        denom = w2 - s * s
        a = np.zeros(t.shape)
        a1 = np.zeros(t.shape)
        a2 = np.zeros(t.shape)
        mask = denom > 0
        sd = s[mask]
        dd = denom[mask]
        u = -w2 / dd
        live = u > _EXP_CUTOFF
        sd, dd, u = sd[live], dd[live], u[live]
        e = self.amplitude * np.exp(u)
        up = -2.0 * w2 * sd / (dd * dd)
        upp = -2.0 * w2 * (w2 + 3.0 * sd * sd) / (dd * dd * dd)
        idx = np.flatnonzero(mask)[live]
        a[idx] = e
        a1[idx] = e * up
        a2[idx] = e * (upp + up * up)
        return a, a1, a2

    def __call__(self, t: float) -> float:
        return float(self.values(np.array([t]))[0])


@dataclass(frozen=True)
class BumpSum:
    terms: tuple[BumpFunction, ...]

    def __post_init__(self):
        if not self.terms:
            raise InputError("empty bump combination")

    @property
    def support(self) -> tuple[float, float]:
        return (
            min(b.support[0] for b in self.terms),
            max(b.support[1] for b in self.terms),
        )

    @property
    def mass_scale(self) -> float:
        return sum(b.mass_scale for b in self.terms)

    def values(self, t: np.ndarray) -> np.ndarray:
        out = self.terms[0].values(t)
        for b in self.terms[1:]:
            out = out + b.values(t)
        return out

    def jet(self, t: np.ndarray):
        a, a1, a2 = self.terms[0].jet(t)
        for b in self.terms[1:]:
            u, u1, u2 = b.jet(t)
            a, a1, a2 = a + u, a1 + u1, a2 + u2
        return a, a1, a2

    def __call__(self, t: float) -> float:
        return float(self.values(np.array([t]))[0])


TestFunction = Union[BumpFunction, BumpSum]


def combine_bumps(bumps) -> TestFunction:
    """Normalize a bump / sequence of bumps into one test function."""
    if isinstance(bumps, (BumpFunction, BumpSum)):
        return bumps
    terms = tuple(bumps)
    if len(terms) == 1:
        return terms[0]
    return BumpSum(terms=terms)


@dataclass(frozen=True)
class PhiResult:
    value: complex
    error: float  # |last doubling delta|
    panels: int
    order: int = GL_ORDER


@dataclass(frozen=True)
class TailMajorant:
    sigma: float
    m2: float  # certified bound for integral |(e^{sigma t} alpha)''| dt
    error: float  # rounding allowance, already included in m2


@lru_cache(maxsize=8)
def _gl(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _grid(lo: float, hi: float, panels: int, order: int = GL_ORDER):
    x, w = _gl(order)
    half = (hi - lo) / panels / 2.0
    centers = lo + (2.0 * np.arange(panels) + 1.0) * half
    t = (centers[:, None] + half * x[None, :]).ravel()
    wt = np.broadcast_to(w * half, (panels, order)).reshape(-1).copy()
    return t, wt


def _envelope(tf: TestFunction, sigma: float) -> float:
    lo, hi = tf.support
    return tf.mass_scale * math.exp(max(sigma * lo, sigma * hi))


def phi(tf: TestFunction, s: complex, rtol: float = 1e-12) -> PhiResult:
    """Phi(s) = integral e^{t s} alpha(t) dt with an error estimate.

    A phi_ladder of one point, under the same convergence contract.
    """
    s = complex(s)
    values, errors, panels = phi_ladder(tf, s.real, s.imag, 0.0, 1, rtol)
    return PhiResult(value=complex(values[0]), error=float(errors[0]), panels=panels)


def _oscillation_panels(span: float, freq: float) -> int:
    # 8 wavelengths per 64-node panel: 8 nodes per wavelength to start with;
    # the doubling check still validates the resolution
    return int(math.ceil(span * freq / (2.0 * math.pi * 8.0))) if freq > 0 else 0


def _ladder_pass(tf: TestFunction, sigma: float, f0: float, step: float,
                 count: int, panels: int, lo: float, hi: float) -> np.ndarray:
    """One quadrature pass of F(f) = integral e^{sigma t} alpha(t) e^{i f t} dt
    for f = f0, f0+step, ..., via phase recurrence re-anchored every 512 steps.
    """
    t, wt = _grid(lo, hi, panels)
    base = wt * tf.values(t) * np.exp(sigma * t)
    rot = np.exp(1j * step * t)
    out = np.empty(count, dtype=complex)
    cur = base * np.exp(1j * f0 * t)
    for k in range(count):
        if k and k % 512 == 0:
            cur = base * np.exp(1j * (f0 + step * k) * t)
        out[k] = cur.sum()
        cur *= rot
    return out


def phi_ladder(tf: TestFunction, sigma: float, f0: float, step: float,
               count: int, rtol: float = 1e-12):
    """Phi along s = sigma + i(f0 + step k), k = 0..count-1, with per-point
    error estimates from the final panel doubling.

    Returns (values, errors, panels). Same convergence contract as phi().
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = tf.support
    env = _envelope(tf, sigma) + 1e-300
    fmax = max(abs(f0), abs(f0 + step * (count - 1)))
    panels = max(8, _oscillation_panels(hi - lo, fmax))
    if panels * GL_ORDER > _MAX_NODES:
        raise QuadratureNonConvergence(
            "ladder of %d points needs %d panels up front, past the node cap"
            % (count, panels)
        )
    prev = _ladder_pass(tf, sigma, f0, step, count, panels, lo, hi)
    while True:
        panels *= 2
        if panels * GL_ORDER > _MAX_NODES:
            raise QuadratureNonConvergence(
                "ladder of %d points still moving at %d panels"
                % (count, panels // 2)
            )
        cur = _ladder_pass(tf, sigma, f0, step, count, panels, lo, hi)
        err = np.abs(cur - prev)
        scale = max(float(np.max(np.abs(cur))), env)
        if float(err.max()) <= rtol * scale:
            return cur, err, panels
        prev = cur


def _h2_sign_changes(k: float) -> np.ndarray:
    """Points x = (t - c)/w in (-1, 1) including every sign change of h''.

    For one bump h'' = e^{sigma t} alpha N / D^4, D = w^2 - (t - c)^2, and over
    w^6 N = k^2 P^4 - 4 k x P^2 - 2 (1 + 3x^2) P + 4x^2, P = 1 - x^2, k = sigma w.
    Candidates are the real parts of all roots of N in (-1, 1); one whose
    bracket (midpoints to its neighbours) shows a sign change is bisected.
    """
    def n(y):
        p = (1.0 - y) * (1.0 + y)
        return k * k * p**4 - 4.0 * k * y * p * p - 2.0 * (1.0 + 3.0 * y * y) * p + 4.0 * y * y
    kk = k * k
    coef = np.array([kk, 0, -4 * kk, -4 * k, 6 * kk + 6, 8 * k, -4 * kk, -4 * k, kk - 2])
    # terms below rounding on |x| <= 1 only add huge roots, and can overflow the companion
    roots = np.roots(np.where(np.abs(coef) > 1e-16 * np.abs(coef).max(), coef, 0.0))
    x = sorted({float(r) for r in roots.real if -1.0 < r < 1.0})
    ends = [-1.0] + [0.5 * (a + b) for a, b in zip(x, x[1:])] + [1.0]
    for i, (lo, hi) in enumerate(zip(ends, ends[1:])):
        if n(lo) * n(hi) < 0.0:
            lo_negative = n(lo) < 0.0
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (mid, hi) if (n(mid) < 0.0) == lo_negative else (lo, mid)
            x[i] = mid
    return np.array(x)


def tail_majorant(tf: TestFunction, sigma: float) -> TailMajorant:
    """Certified M2(sigma) with |Phi(sigma + i tau)| <= M2 / tau^2.

    Two integrations by parts of e^{t(sigma + i tau)} alpha(t) put the whole
    tau decay on integral |h''| dt, h = e^{sigma t} alpha: the total variation
    of h'. For one bump that is sum |h'(z_{i+1}) - h'(z_i)| over the support
    ends (h' = 0) and the sign changes of h'' between them; no quadrature. A
    BumpSum gets the sum of its terms' M2 (triangle inequality): exact for
    disjoint supports, a valid looser bound where supports overlap.

    m2 includes a rounding allowance, reported as error. Each h'(z) =
    A e^{sigma t + u} (u' + sigma) is within 16 eps (1 + |sigma| (|c| + w) +
    |u|) |A| e^{sigma t + u} (|u'| + |sigma|) and enters two differences;
    forming and summing the n + 1 differences adds (n + 2) eps relative. An
    ulp's error in z_i costs only second order, as h'' vanishes there.
    """
    m2 = allowance = 0.0
    for b in tf.terms if isinstance(tf, BumpSum) else (tf,):
        x = _h2_sign_changes(sigma * b.width)
        p = (1.0 - x) * (1.0 + x)
        u, up = -1.0 / p, -2.0 * x / (b.width * p * p)
        e = b.amplitude * np.exp(sigma * (b.center + b.width * x) + u)
        tv = float(np.sum(np.abs(np.diff(np.concatenate(([0.0], e * (up + sigma), [0.0]))))))
        exponent = 1.0 + abs(sigma) * (abs(b.center) + b.width) + np.abs(u)
        rounding = float(np.sum(exponent * np.abs(e) * (np.abs(up) + abs(sigma))))
        err = math.ulp(1.0) * (32.0 * rounding + (x.size + 2) * tv)
        m2, allowance = m2 + (tv + err), allowance + err
    return TailMajorant(sigma=sigma, m2=m2, error=allowance)

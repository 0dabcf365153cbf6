"""Smooth compactly supported test functions and their transforms.

The basic building block is the scaled mollifier
alpha(t) = A exp(-w^2 / (w^2 - (t - c)^2)) on |t - c| < w, zero outside,
which is C-infinity with all derivatives vanishing at the support boundary.
Finite sums of bumps are first-class: everything downstream only needs
pointwise values, the support hull, and a mass scale.

Phi(s) = integral e^{t s} alpha(t) dt is entire in s. phi_ladder computes it
along arithmetic progressions of imaginary parts, one row per start and all
rows on one shared composite Gauss-Legendre panelization (order 64, panels
doubled until successive passes agree to RTOL = 1e-12 relative in every
row, with an envelope floor so near-zero values terminate). Each pass is a
cache-blocked matrix product of node weights against rung phases; phi is a
ladder of one point. This quadrature is the only approximation: the tail
majorants M_k, k = 2..K_MAX, with |Phi(sigma + i tau)| <= M_k / |tau|^k are
closed forms, exact up to a stated rounding allowance.
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
RTOL = 1e-12  # relative agreement of successive doubling passes
_MAX_NODES = 1 << 21  # bail out of doubling past ~2M evaluation points
K_MAX = 8  # highest tail majorant order; see tail_majorant

# exp underflows to 0 below ~-745 and turns denormal below ~-708; values()
# cuts earlier and returns an exact 0 there
_EXP_CUTOFF = -700.0


@dataclass(frozen=True, slots=True)
class BumpFunction:
    center: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not 0 < self.width < math.inf:
            raise InputError("bump width must be positive and finite, got %r" % (self.width,))
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


@dataclass(frozen=True, slots=True)
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


TestFunction = Union[BumpFunction, BumpSum]


def combine_bumps(bumps) -> TestFunction:
    """Normalize a bump / sequence of bumps into one test function."""
    if isinstance(bumps, (BumpFunction, BumpSum)):
        return bumps
    terms = tuple(bumps)
    if len(terms) == 1:
        return terms[0]
    return BumpSum(terms=terms)


@dataclass(frozen=True, slots=True)
class PhiResult:
    value: complex
    error: float  # |last doubling delta|
    panels: int


@dataclass(frozen=True, slots=True)
class TailMajorant:
    sigma: float
    order: int  # k: the bound decays as |tau|^-k
    m: float  # certified bound for integral |(e^{sigma t} alpha)^{(k)}| dt
    error: float  # rounding allowance, already included in m


@lru_cache(maxsize=1)
def _gl():
    return np.polynomial.legendre.leggauss(GL_ORDER)


def _grid(lo: float, hi: float, panels: int):
    x, w = _gl()
    half = (hi - lo) / panels / 2.0
    centers = lo + (2.0 * np.arange(panels) + 1.0) * half
    t = (centers[:, None] + half * x[None, :]).ravel()
    wt = np.broadcast_to(w * half, (panels, GL_ORDER)).reshape(-1).copy()
    return t, wt


def _envelope(tf: TestFunction, sigma: float) -> float:
    lo, hi = tf.support
    return tf.mass_scale * math.exp(max(sigma * lo, sigma * hi))


def phi(tf: TestFunction, s: complex) -> PhiResult:
    """Phi(s) = integral e^{t s} alpha(t) dt with an error estimate.

    A phi_ladder of one point, under the same convergence contract.
    """
    s = complex(s)
    values, errors, panels = phi_ladder(tf, s.real, s.imag, 0.0, 1)
    return PhiResult(value=complex(values[0]), error=float(errors[0]), panels=panels)


def _oscillation_panels(span: float, freq: float) -> int:
    # 8 wavelengths per 64-node panel: 8 nodes per wavelength to start with;
    # the doubling check still validates the resolution
    return int(math.ceil(span * freq / (2.0 * math.pi * 8.0))) if freq > 0 else 0


_BLOCK_BYTES = 1 << 18  # cap on one slice of E: 256 KiB stays in L2
_BLOCK = 16  # rungs per matrix product
_ANCHOR = 512  # rungs between exact exp re-anchors of the phase


def _ladder_pass(tf: TestFunction, sigma: float, f0: np.ndarray, step: float,
                 count: int, panels: int, lo: float, hi: float) -> np.ndarray:
    """One quadrature pass of F(f) = integral e^{sigma t} alpha(t) e^{i f t} dt
    for f = f0_r + step k, k = 0..count-1, every row r on one shared grid.

    Blocked as a matrix product (Goto and van de Geijn's GEMM blocking): the
    nodes go in slices of at most _BLOCK_BYTES / (16 B) for B = _BLOCK rungs.
    Per slice, E[b, n] = z_n^b, z = e^{i step t}, is built by recurrence, and
    A[r, n] = w_n h(t_n) e^{i f t_n} at a block's first rung gives the block
    as A @ E^T; A then moves on by z^B, with an exact exp re-anchor every
    _ANCHOR rungs. Each slice's E and A stay in cache across its blocks.
    """
    t, wt = _grid(lo, hi, panels)
    base = wt * tf.values(t) * np.exp(sigma * t)
    block = min(count, _BLOCK)
    width = _BLOCK_BYTES // (16 * block)
    anchor = block * (_ANCHOR // block)
    out = np.zeros((f0.size, count), dtype=complex)
    for n in range(0, t.size, width):
        tn, hn = t[n:n + width], base[n:n + width]
        e = np.empty((block, tn.size), dtype=complex)
        e[0] = 1.0
        np.cumprod(np.broadcast_to(np.exp(1j * step * tn), (block - 1, tn.size)),
                   axis=0, out=e[1:])
        advance = np.exp(1j * (step * block) * tn)
        for k in range(0, count, block):
            if k % anchor == 0:
                a = hn * np.exp(1j * np.multiply.outer(f0 + step * k, tn))
            else:
                a *= advance
            b = min(block, count - k)
            out[:, k:k + b] += a @ e[:b].T
    return out


def phi_ladder(tf: TestFunction, sigma: float, f0, step: float, count: int):
    """Phi along s = sigma + i(f0 + step k), k = 0..count-1, with per-point
    error estimates from the final panel doubling.

    f0 is one start or a 1-D array of row starts. All rows share one
    Gauss-Legendre grid, its panels set by the largest |f| of any row, and
    doubling stops once every row agrees with the previous pass to RTOL
    against its own scale (max |Phi| over the row, floored by the envelope).
    Returns (values, errors, panels): values and the per-point doubling
    deltas have shape (count,) for a scalar f0 and (rows, count) for an
    array. Same convergence contract as phi().
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    starts = np.asarray(f0, dtype=float)
    rows = starts.reshape(-1)
    lo, hi = tf.support
    env = _envelope(tf, sigma) + 1e-300
    fmax = float(np.max(np.maximum(np.abs(rows), np.abs(rows + step * (count - 1)))))
    panels = max(8, _oscillation_panels(hi - lo, fmax))
    if panels * GL_ORDER > _MAX_NODES:
        raise QuadratureNonConvergence(
            "ladder of %d x %d points needs %d panels up front, past the node cap"
            % (rows.size, count, panels)
        )
    prev = _ladder_pass(tf, sigma, rows, step, count, panels, lo, hi)
    while True:
        panels *= 2
        if panels * GL_ORDER > _MAX_NODES:
            raise QuadratureNonConvergence(
                "ladder of %d x %d points still moving at %d panels"
                % (rows.size, count, panels // 2)
            )
        cur = _ladder_pass(tf, sigma, rows, step, count, panels, lo, hi)
        err = np.abs(cur - prev)
        scale = np.maximum(np.abs(cur).max(axis=1), env)
        if np.all(err.max(axis=1) <= RTOL * scale):
            shape = starts.shape + (count,)
            return cur.reshape(shape), err.reshape(shape), panels
        prev = cur


def _poly_sum(*terms: np.ndarray) -> np.ndarray:
    out = np.zeros(tuple(max(t.shape[d] for t in terms) for d in (0, 1)), dtype=np.int64)
    for t in terms:
        out[:t.shape[0], :t.shape[1]] += t
    return out


def _times(a: np.ndarray, p: int = 0, k: int = 0) -> np.ndarray:
    # multiply a polynomial [P power, kappa power] by P^p kappa^k
    return np.pad(a, ((p, 0), (k, 0)))


def _one_minus_p(a: np.ndarray) -> np.ndarray:
    return _poly_sum(a, -_times(a, 1))


def _d_dp(a: np.ndarray) -> np.ndarray:
    return a[1:] * np.arange(1, a.shape[0])[:, None]


@lru_cache(maxsize=None)
def _numerator_table(i: int) -> tuple[np.ndarray, np.ndarray]:
    """N_i as A(P) + x B(P), A and B integer arrays [b, j] multiplying P^b kappa^j.

    h^{(i)} = A e^{sigma t + u} N_i(x) / (w^i P^{2i}) for one bump, with
    x = (t - c)/w, P = 1 - x^2, u = -1/P and kappa = sigma w. N_0 = 1 and
    N_{i+1} = P^2 N_i' + 4 i x P N_i + (kappa P^2 - 2x) N_i, so N_i has
    degree 4i in x and i in kappa. With x^2 = 1 - P and dP/dx = -2x,
    (A + xB)' = B - 2(1 - P)B' - 2x A' and x(A + xB) = (1 - P)B + xA. In
    this form N_i evaluates stably near the support ends, where P is small.
    """
    if i == 0:
        return np.ones((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
    a, b = _numerator_table(i - 1)
    deriv = (_poly_sum(b, -2 * _one_minus_p(_d_dp(b))), -2 * _d_dp(a))
    x_times = (_one_minus_p(b), a)
    out = []
    for d, xn, n in zip(deriv, x_times, (a, b)):
        part = _poly_sum(_times(d, 2), 4 * (i - 1) * _times(xn, 1), _times(n, 2, 1), -2 * xn)
        out.append(part[:1 + np.flatnonzero(part.any(axis=1)).max(initial=0)])
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_table(i: int) -> np.ndarray:
    """N_i in powers of x: entry [m, j] multiplies x^m kappa^j."""
    out = np.zeros((4 * i + 1, i + 1), dtype=np.int64)
    for shift, part in enumerate(_numerator_table(i)):
        for (b, j), c in np.ndenumerate(part):
            for r in range(b + 1):  # P^b = sum_r C(b, r) (-x^2)^r
                out[2 * r + shift, j] += c * math.comb(b, r) * (-1) ** r
    return out


def _in_kappa(table: np.ndarray, kappa: float) -> np.ndarray:
    """Float coefficients sum_j table[:, j] kappa^j, in descending powers as
    np.roots and _horner take them; _in_kappa(|table|, |kappa|) gives their
    absolute-value majorants."""
    powers = [1.0]
    for _ in range(table.shape[1] - 1):
        powers.append(powers[-1] * kappa)
    return (table * powers).sum(axis=1)[::-1]


def _horner(coef: list, p):
    out = coef[0]
    for c in coef[1:]:
        out = out * p + c
    return out


def _numerator(i: int, kappa: float):
    """x -> (N_i(x), Ntilde_i(|x|)) for a float or an array: N_i by Horner in
    P = 1 - x^2, and the majorant of its terms (every P^b >= 0 on the support)."""
    (a, a_size), (b, b_size) = (
        (_in_kappa(t, kappa).tolist(), _in_kappa(np.abs(t), abs(kappa)).tolist())
        for t in _numerator_table(i)
    )

    def evaluate(x):
        p = (1.0 - x) * (1.0 + x)
        value = _horner(a, p) + x * _horner(b, p)
        return value, _horner(a_size, p) + abs(x) * _horner(b_size, p)
    return evaluate


def _bisect(f, lo: float, hi: float) -> float:
    """Bisect a bracket holding a sign change of f down to adjacent floats or
    a width of 2^-100 (an x error costs the majorant only to second order;
    the floor stops the ~1000 steps a root at exactly x = 0 would take
    through the subnormals); returns the last midpoint."""
    lo_negative = f(lo) < 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi and hi - lo > 2.0**-100:
        lo, hi = (mid, hi) if (f(mid) < 0.0) == lo_negative else (lo, mid)
    return mid


# x = tanh(theta), |theta| <= 8: spacing 0.02 near x = 0, and towards the
# ends P = 1 - x^2 = sech^2(theta) falls by 4 % a step, down to P = 4.5e-7
_TANH_GRID = np.tanh(np.linspace(-8.0, 8.0, 801))


def _sign_changes(order: int, k: float) -> np.ndarray:
    """Points x = (t - c)/w in (-1, 1) including every sign change of
    h^{(order)}, that is of N_order, for one bump with k = sigma w.

    Candidates are the real parts of all roots of N_order in (-1, 1); one
    whose bracket (midpoints to its neighbours) shows a sign change is
    bisected. Order 2 evaluates N_2 in its closed form. Above order 2 the
    tanh grid joins the candidates: np.roots loses sign changes of the
    degree-4k N_k once sigma w passes ~60 (k = 7) or ~100 (k = 6), where
    they crowd towards x = 1 at ratios ~1.3 in P.
    """
    coef = _in_kappa(_monomial_table(order), k)
    # terms below rounding on |x| <= 1 only add huge roots, and can overflow the companion
    roots = np.roots(np.where(np.abs(coef) > 1e-16 * np.abs(coef).max(), coef, 0.0))
    x = np.array(sorted({float(r) for r in roots.real if -1.0 < r < 1.0}) or [0.0])
    if order == 2:
        def f(y):  # N_2 = k^2 P^4 - 4 k x P^2 - 2 (1 + 3x^2) P + 4x^2
            p = (1.0 - y) * (1.0 + y)
            return k * k * p**4 - 4.0 * k * y * p * p - 2.0 * (1.0 + 3.0 * y * y) * p + 4.0 * y * y
    else:
        x = np.sort(np.concatenate((x, _TANH_GRID)))
        evaluate = _numerator(order, k)

        def f(y):
            return evaluate(y)[0]
    ends = np.concatenate(([-1.0], 0.5 * (x[1:] + x[:-1]), [1.0]))
    at_ends = f(ends)
    for i in np.flatnonzero(at_ends[:-1] * at_ends[1:] < 0.0):
        x[i] = _bisect(f, float(ends[i]), float(ends[i + 1]))
    return x


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def tail_majorant(tf: TestFunction, sigma: float, order: int = 2) -> TailMajorant:
    """Certified M_k(sigma), k = order, with |Phi(sigma + i tau)| <= M_k / |tau|^k.

    k integrations by parts of e^{t(sigma + i tau)} alpha(t) put the whole
    tau decay on integral |h^{(k)}| dt, h = e^{sigma t} alpha: the total
    variation of h^{(k-1)}. For one bump that is sum |h^{(k-1)}(z_{i+1}) -
    h^{(k-1)}(z_i)| over the support ends (where h^{(k-1)} = 0) and the sign
    changes of h^{(k)} = A e^{sigma t + u} N_k(x) / (w^k P^{2k}) between them
    (see _numerator_table); no quadrature. A BumpSum gets the sum of its
    terms' M_k (triangle inequality): exact for disjoint supports, a valid
    looser bound where supports overlap. Orders 2..K_MAX are supported: the
    test suite holds them to a sympy grid oracle for w in [0.05, 4], sigma in
    [0, 8] and sigma w up to 600.

    m includes a rounding allowance, reported as error. Each e = A e^{sigma t
    + u} is within 16 eps (1 + |sigma| (|c| + w) + |u|) relative. At order 2,
    h' = e (u' + sigma) adds nothing beyond that against e (|u'| + |sigma|).
    Above it, N_{k-1}(x), by Horner in P (degree <= 2k - 2, P within 3 eps)
    on coefficients each within 2k eps, is within 12k eps of the majorant
    Ntilde_{k-1}(|x|) (all terms with absolute values), and w^{k-1} P^{2k-2}
    is within 8k eps relative, so 20k eps Ntilde / (w^{k-1} P^{2k-2}) more
    per value. Each value enters two
    differences; forming and summing the n + 1 differences adds (n + 2) eps
    relative. An ulp's error in z_i costs only second order, as h^{(k)}
    vanishes there. Where w^{k-1} P^{2k-2} underflows (a tiny w) or e jet
    overflows, m is +inf, a valid bound, never NaN.
    """
    if not 2 <= order <= K_MAX:
        raise ValueError("tail majorant order must lie in 2..%d, got %r" % (K_MAX, order))
    m = allowance = 0.0
    for b in tf.terms if isinstance(tf, BumpSum) else (tf,):
        x = _sign_changes(order, sigma * b.width)
        p = (1.0 - x) * (1.0 + x)
        u = -1.0 / p
        e = b.amplitude * np.exp(sigma * (b.center + b.width * x) + u)
        exponent = 1.0 + abs(sigma) * (abs(b.center) + b.width) + np.abs(u)
        if order == 2:
            up = -2.0 * x / (b.width * p * p)
            jet, size, slack = up + sigma, np.abs(up) + abs(sigma), 16.0 * exponent
        else:
            value, size = _numerator(order - 1, sigma * b.width)(x)
            scale = np.full(x.shape, b.width ** (order - 1))
            for _ in range(2 * order - 2):
                scale = scale * p
            jet, size = value / scale, size / scale
            slack = 16.0 * exponent + 20.0 * order
        tv = float(np.sum(np.abs(np.diff(np.concatenate(([0.0], e * jet, [0.0]))))))
        rounding = float(np.sum(slack * np.abs(e) * size))
        err = math.ulp(1.0) * (2.0 * rounding + (x.size + 2) * tv)
        m, allowance = m + (tv + err), allowance + err
    if not math.isfinite(m):
        m = allowance = math.inf
    return TailMajorant(sigma=sigma, order=order, m=m, error=allowance)

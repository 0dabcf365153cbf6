"""Smooth compactly supported test functions and their transforms.

The basic building block is the scaled mollifier
alpha(t) = A exp(-w^2 / (w^2 - (t - c)^2)) on |t - c| < w, zero outside,
which is C-infinity with all derivatives vanishing at the support boundary.
Finite sums of bumps are first-class: everything downstream only needs
pointwise values and the support hull.

Phi(s) = integral e^{t s} alpha(t) dt is entire in s. phi_ladder computes it
along arithmetic progressions of imaginary parts for rows of integrands,
each with its own sigma, all on one shared composite Gauss-Legendre
panelization (order 64, panels doubled until successive passes agree in
every row to RTOL = 1e-12 of the row's floor, the pass's own quadrature of
integral |e^{sigma t} h(t)| dt, which bounds |Phi| on the whole line, plus
the pass's phase rounding). Each pass is a cache-blocked matrix product of
the rows' node weights against rung phases built once for all rows; phi is a
ladder of one row and one rung. This quadrature is the only approximation:
tail_majorant's bound B >= |Phi(sigma + i tau)| is a closed form from a
steepest-descent contour, exact up to a stated rounding allowance and about
2x above |Phi| once |tau| w >= 10 (away from Phi's zeros in tau), and so is
the bound on the sum of B over a ladder's rungs past n. Both need only math.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import InputError, TruncationBudgetExceeded

GL_ORDER = 64
RTOL = 1e-12  # relative agreement of successive doubling passes
LADDER_CAP = 1 << 31  # evaluation points of one ladder pass: rows x rungs x nodes
_MAX_NODES = 1 << 21  # nodes of one pass, which its arrays hold

_LOG_SQRT_PI = 0.5 * math.log(math.pi)

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
        if not all(map(math.isfinite, self.support)):
            raise InputError("bump support %r is not finite" % (self.support,))

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.width, self.center + self.width)

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
    """The contour bound B on |Phi| along Re s = sigma (see tail_majorant).

    terms holds, for each bump with A != 0, the parts (log |A|, sigma c,
    log(1 + e^{|sigma w|})) of log C, C = |A| e^{sigma c} (1 + e^{|sigma w|}),
    and w. Both methods add up their logs per bump and round up by
    tail_majorant's allowance; they give +inf past overflow, never NaN.
    """
    sigma: float
    terms: tuple[tuple[tuple[float, float, float], float], ...]

    def bound(self, tau: float) -> float:
        """B(tau) >= |Phi(sigma + i tau)|: the sum over terms of C w sqrt(pi)
        z^{-3/2} e^{-z} (1 + 3/8z), z = sqrt(|tau| w)."""
        out = []
        for log_c, w in self.terms:
            z = math.sqrt(abs(tau)) * math.sqrt(w)
            if z == 0.0:
                return math.inf
            out.append(_exp_up((*log_c, math.log(w), _LOG_SQRT_PI, -1.5 * math.log(z), -z,
                                math.log1p(0.375 / z))))
        return math.fsum(out)

    def tail(self, beta: float, start: float) -> float:
        """A bound on the sum of B over the rungs nu > n and nu < -n of a ladder
        whose rung nu has |tau| >= beta (|nu| - rho), with start = n - rho > 0:
        the sum over terms of C (4 sqrt(pi) / beta) z^{-1/2} e^{-z}, z =
        sqrt(w beta start)."""
        out = []
        for log_c, w in self.terms:
            z = math.sqrt(w) * math.sqrt(beta) * math.sqrt(start)
            if z == 0.0:
                return math.inf
            out.append(_exp_up((*log_c, math.log(4.0 / beta), _LOG_SQRT_PI, -0.5 * math.log(z), -z)))
        return math.fsum(out)


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


def phi(tf: TestFunction, s: complex) -> PhiResult:
    """Phi(s) = integral e^{t s} alpha(t) dt with an error estimate.

    A phi_ladder of one row and one rung, under the same convergence contract.
    """
    s = complex(s)
    values, errors, panels = phi_ladder((tf,), (s.real,), s.imag, 0.0, 1)
    return PhiResult(value=complex(values[0, 0]), error=float(errors[0, 0]), panels=panels)


def _oscillation_panels(span: float, freq: float) -> int:
    # 8 wavelengths per 64-node panel: 8 nodes per wavelength to start with;
    # the doubling check still validates the resolution
    return int(math.ceil(span * freq / (2.0 * math.pi * 8.0))) if freq > 0 else 0


_BLOCK_BYTES = 1 << 18  # cap on one slice of E: 256 KiB stays in L2
_BLOCK = 16  # rungs per matrix product
_ANCHOR = 512  # rungs between exact exp re-anchors of the phase


def _ladder_pass(rows: tuple, sigmas: tuple, f0: float, step: float,
                 count: int, panels: int, lo: float, hi: float) -> tuple:
    """One quadrature pass of F_r(f) = integral e^{sigma_r t} h_r(t) e^{i f t} dt
    for f = f0 + step k, k = 0..count-1, every row r on one shared grid, of
    shape (rows, count), and each row's floor: the same quadrature of
    integral |e^{sigma_r t} h_r(t)| dt.

    Blocked as a matrix product (Goto and van de Geijn's GEMM blocking): the
    nodes go in slices of at most _BLOCK_BYTES / (16 B) for B = _BLOCK rungs.
    Per slice, E[b, n] = z_n^b, z = e^{i step t}, is built by recurrence, and
    A[r, n] = w_n e^{sigma_r t_n} h_r(t_n) e^{i f t_n} at a block's first rung
    gives the block as A @ E^T; A then moves on by z^B, with an exact exp
    re-anchor every _ANCHOR rungs. E, the advance and the re-anchor phases
    are built once per slice for all rows, and stay in cache across blocks.
    A row tuple with its own values(t) gives all its rows at once.
    """
    t, wt = _grid(lo, hi, panels)
    values = rows.values(t) if hasattr(rows, "values") else [h.values(t) for h in rows]
    base = np.array([wt * v * np.exp(s * t) for v, s in zip(values, sigmas)])
    block = min(count, _BLOCK)
    width = _BLOCK_BYTES // (16 * block)
    anchor = block * (_ANCHOR // block)
    out = np.zeros((len(rows), count), dtype=complex)
    for n in range(0, t.size, width):
        tn, hn = t[n:n + width], base[:, n:n + width]
        e = np.empty((block, tn.size), dtype=complex)
        e[0] = 1.0
        np.cumprod(np.broadcast_to(np.exp(1j * step * tn), (block - 1, tn.size)),
                   axis=0, out=e[1:])
        advance = np.exp(1j * (step * block) * tn)
        for k in range(0, count, block):
            if k % anchor == 0:
                a = hn * np.exp(1j * (f0 + step * k) * tn)
            else:
                a *= advance
            b = min(block, count - k)
            out[:, k:k + b] += a @ e[:b].T
    return out, np.abs(base).sum(axis=1)


def phi_ladder(rows, sigmas, f0: float, step: float, count: int):
    """Phi of each row along s = sigma_r + i(f0 + step k), k = 0..count-1,
    with per-point error estimates from the final panel doubling.

    rows is a sequence of integrands (a support and values(t)), each with
    its own sigma from the matching sequence sigmas, and each evaluated at
    all count rungs. A sequence with its own values(t) gives every row's
    values at once, and its rows are read for their supports only
    (formula's Lefschetz rows). All rows share one Gauss-Legendre grid over
    the hull [lo, hi] of their supports, its first panels set by the
    largest |f|, f_max. Panels double until every row agrees with the
    previous pass to RTOL times its floor F, the pass's quadrature of
    integral |e^{sigma t} h(t)| dt (>= |Phi| on the whole line), plus what
    rounding leaves: a pass rounds each phase f t to eps |f t| and its
    recurrence adds a few dozen eps, at most eps F (2 f_max max(|lo|, |hi|)
    + 64), and subnormal node weights round to multiples of 2^-1074, at
    most nodes * 2^-1074. So a row of rungs far below its floor stops with
    the rest, and a row of zeros (A = 0) at once. A pass of over LADDER_CAP
    points (rows x rungs x nodes) or _MAX_NODES nodes raises
    TruncationBudgetExceeded before it runs, and so does a first pass whose
    successor would (a pass returns only against the one before it, so the
    first pass is checked at twice its nodes).
    Returns (values, errors, panels): values and the per-point doubling
    deltas have shape (rows, count).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo = min(h.support[0] for h in rows)
    hi = max(h.support[1] for h in rows)
    fmax = max(abs(f0), abs(f0 + step * (count - 1)))
    panels, prev = max(8, _oscillation_panels(hi - lo, fmax)), None
    slack = RTOL + 2.0 * math.ulp(1.0) * (2.0 * fmax * max(abs(lo), abs(hi)) + 64.0)
    while ((nodes := panels * GL_ORDER * (2 if prev is None else 1)) <= _MAX_NODES
           and len(rows) * count * nodes <= LADDER_CAP):
        cur, floor = _ladder_pass(rows, sigmas, f0, step, count, panels, lo, hi)
        if prev is not None:
            err = np.abs(cur - prev)
            if np.all(err.max(axis=1) <= slack * floor + nodes * math.ulp(0.0)):
                return cur, err, panels
        prev, panels = cur, 2 * panels
    raise TruncationBudgetExceeded(
        "ladder of %d rows x %d rungs: a pass of %d nodes (cap %d) takes %d points (LADDER_CAP %d)"
        % (len(rows), count, nodes, _MAX_NODES, len(rows) * count * nodes, LADDER_CAP))


def _exp_up(parts) -> float:
    """e^{sum of parts}, its exponent raised by the allowance of tail_majorant:
    0.0 where a part is -inf, +inf past overflow or where +inf meets -inf."""
    total = sum(parts)
    if total == -math.inf:
        return 0.0
    total += 64.0 * math.ulp(1.0) * (1.0 + sum(abs(p) for p in parts))
    if math.isnan(total):
        return math.inf
    try:
        return math.exp(total)
    except OverflowError:
        return math.inf


def tail_majorant(tf: TestFunction, sigma: float) -> TailMajorant:
    """The constants of the bound B >= |Phi(sigma + i tau)| and of its ladder tail.

    For one bump, x = (t - c)/w, kappa = sigma w and omega = |tau| w give Phi =
    A w e^{(sigma + i tau) c} integral_{-1}^{1} e^{(kappa + i omega) x - 1/(1 - x^2)}
    dx. The integrand is analytic off x = +-1 and vanishes as x meets them
    from above, so the path moves to the triangle -1 -> i -> 1 (i -> -i for
    tau < 0; S. G. Johnson, arXiv:1508.04376). On its side x = 1 + r
    e^{3 pi i/4}, 0 <= r <= sqrt 2, |1 + x| <= 2 and arg(1 + x) lies in [0,
    pi/4], so Re 1/(1 - x^2) >= 1/(2 sqrt 2 r), and the integrand is at most
    e^{kappa Re x} e^{-omega r/sqrt 2 - 1/(2 sqrt 2 r)}; the side through -1
    is its mirror image. With integral_0^inf e^{-a r - b/r} dr = 2 sqrt(b/a)
    K_1(2 sqrt(ab)) and e^{kappa Re x} <= 1 on one side and e^{|kappa|} on
    the other,

      |Phi| <= |A| w e^{sigma c} (1 + e^{|kappa|}) sqrt(2/omega) K_1(sqrt omega),

    about 2x above |Phi| for omega >= 10, away from Phi's zeros in tau, and
    up to ~180x at omega = 0.3 with kappa = 4. K_1(z) <= sqrt(pi/2z) e^{-z}
    (1 + 3/8z) (DLMF 10.40(ii): the remainder after two terms has the sign
    of the first one dropped) gives TailMajorant.bound. The bound falls with
    omega, so the rungs past n of a ladder with |tau| >= beta (|nu| - rho)
    sum to at most twice its integral from n, and integral K_1 = K_0 with
    K_0(z) <= sqrt(pi/2z) e^{-z} gives TailMajorant.tail. A BumpSum gets
    the sum of its terms' bounds (triangle inequality): a valid bound
    wherever supports overlap.

    Rounding allowance: each part of an exponent is within 4 eps of its
    value relative plus 4 eps absolute (logs of rounded arguments, the
    products sigma c and sigma w, z from square roots; z never overflows
    before e^{-z} is 0); adding up to 8 parts costs
    8 eps times the sum of their sizes, and exp and the fsum over terms an
    eps relative each. The exponent is raised by 64 eps (1 + sum of |parts|),
    which covers all of it.
    """
    terms = []
    for b in tf.terms if isinstance(tf, BumpSum) else (tf,):
        if b.amplitude != 0.0:
            kappa = abs(sigma * b.width)
            log_c = (math.log(abs(b.amplitude)), sigma * b.center, kappa + math.log1p(math.exp(-kappa)))
            terms.append((log_c, b.width))
    return TailMajorant(sigma=sigma, terms=tuple(terms))

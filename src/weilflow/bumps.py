"""Smooth compactly supported test functions and their transforms.

The basic building block is the scaled mollifier
alpha(t) = A exp(-w^2 / (w^2 - (t - c)^2)) on |t - c| < w, zero outside,
which is C-infinity with all derivatives vanishing at the support boundary.
Finite sums of bumps are first-class: everything downstream only needs
pointwise values, the support hull, and a mass scale.

Phi(s) = integral e^{t s} alpha(t) dt is entire in s. phi_ladder computes it
along arithmetic progressions of imaginary parts for rows of integrands,
each with its own sigma, all on one shared composite Gauss-Legendre
panelization (order 64, panels doubled until successive passes agree to RTOL
= 1e-12 relative in every row, with each row's envelope as a floor so
near-zero values terminate). Each pass is a cache-blocked matrix product of
the rows' node weights against rung phases built once for all rows; phi is a
ladder of one row and one rung. This quadrature is the only approximation:
the tail majorants M_k, k = 2..K_MAX, with |Phi(sigma + i tau)| <= M_k /
|tau|^k are closed forms, exact up to a stated rounding allowance. Every
order takes one route, tail_majorant: the variation of h^{(k-1)}, read at
the support ends and the sign changes of h^{(k)}. The numerators N_k of
h^{(k)} come from one integer recursion in powers of x and kappa = sigma w
(_monomial_table); _numerator_table is its change of basis to powers of P =
1 - x^2. Those sign changes, and N_{k-1} there, depend on a bump only
through (k, sigma w): _shape keeps them in an lru_cache of 256 entries keyed
by (k, sigma w + 0.0), and tail_majorant places them on each bump. A hit
hands back the very floats a miss computes, and the placement combines them
in one fixed order, so M_k is bitwise the same either way.
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
                 count: int, panels: int, lo: float, hi: float) -> np.ndarray:
    """One quadrature pass of F_r(f) = integral e^{sigma_r t} h_r(t) e^{i f t} dt
    for f = f0 + step k, k = 0..count-1, every row r on one shared grid.

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
    return out


def phi_ladder(rows, sigmas, f0: float, step: float, count: int):
    """Phi of each row along s = sigma_r + i(f0 + step k), k = 0..count-1,
    with per-point error estimates from the final panel doubling.

    rows is a sequence of integrands, each with its own sigma from the
    matching sequence sigmas, and each evaluated at all count rungs. Rows
    that share work come as a tuple with its own values(t), which returns
    every row's values at once, each as that row's values(t) would
    (formula's Lefschetz rows). All rows share one Gauss-Legendre grid over
    the hull of their supports, its first panels set by the largest |f|.
    Panels double until every row agrees with the previous pass to RTOL
    against its own scale (max |Phi| over the row, floored by the row's
    envelope); a pass past _MAX_NODES nodes raises QuadratureNonConvergence.
    Returns (values, errors, panels): values and the per-point doubling
    deltas have shape (rows, count).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo = min(h.support[0] for h in rows)
    hi = max(h.support[1] for h in rows)
    env = np.array([_envelope(h, s) for h, s in zip(rows, sigmas)]) + 1e-300
    fmax = max(abs(f0), abs(f0 + step * (count - 1)))
    panels, prev = max(8, _oscillation_panels(hi - lo, fmax)), None
    while panels * GL_ORDER <= _MAX_NODES:
        cur = _ladder_pass(rows, sigmas, f0, step, count, panels, lo, hi)
        if prev is not None:
            err = np.abs(cur - prev)
            scale = np.maximum(np.abs(cur).max(axis=1), env)
            if np.all(err.max(axis=1) <= RTOL * scale):
                return cur, err, panels
        prev, panels = cur, 2 * panels
    raise QuadratureNonConvergence(
        "ladder of %d x %d points not settled below the node cap: %d panels "
        "would take %d nodes, cap %d" % (len(rows), count, panels, panels * GL_ORDER, _MAX_NODES)
    )


@lru_cache(maxsize=None)
def _monomial_table(i: int) -> np.ndarray:
    """N_i in powers of x: entry [m, j] multiplies x^m kappa^j.

    h^{(i)} = A e^{sigma t + u} N_i(x) / (w^i P^{2i}) for one bump, with
    x = (t - c)/w, P = 1 - x^2, u = -1/P and kappa = sigma w. N_0 = 1 and
    N_{i+1} = P^2 N_i' + 4 i x P N_i + (kappa P^2 - 2x) N_i, run here on the
    integer arrays, so N_i has degree 4i in x and i in kappa.
    """
    if i == 0:
        return np.ones((1, 1), dtype=np.int64)
    n = _monomial_table(i - 1)
    dn = n[1:] * np.arange(1, n.shape[0])[:, None]
    out = np.zeros((4 * i + 1, i + 1), dtype=np.int64)
    # (table, power of x, power of kappa, factor): P^2 = 1 - 2x^2 + x^4
    for part, m, j, c in ((dn, 0, 0, 1), (dn, 2, 0, -2), (dn, 4, 0, 1),
                          (n, 1, 0, 4 * (i - 1) - 2), (n, 3, 0, -4 * (i - 1)),
                          (n, 0, 1, 1), (n, 2, 1, -2), (n, 4, 1, 1)):
        out[m:m + part.shape[0], j:j + part.shape[1]] += c * part
    return out


@lru_cache(maxsize=None)
def _numerator_table(i: int) -> tuple[np.ndarray, np.ndarray]:
    """N_i as A(P) + x B(P), A and B integer arrays [b, j] multiplying P^b kappa^j.

    The change of basis x^2 = 1 - P of _monomial_table: x^{2r} and x^{2r+1}
    give (1 - P)^r = sum_b C(r, b) (-P)^b in A and in B, and rows of P powers
    above the highest nonzero one are dropped. In this form N_i evaluates
    stably near the support ends, where P is small.
    """
    mono, out = _monomial_table(i), []
    for part in (mono[0::2], mono[1::2]):
        table = np.zeros((max(1, part.shape[0]), part.shape[1]), dtype=np.int64)
        for r, row in enumerate(part):
            for b in range(r + 1):
                table[b] += (-1) ** b * math.comb(r, b) * row
        out.append(table[:1 + np.flatnonzero(table.any(axis=1)).max(initial=0)])
    return tuple(out)


def _in_kappa(table: np.ndarray, kappa: float) -> np.ndarray:
    """Float coefficients sum_j table[:, j] kappa^j, in descending powers as
    np.roots and _in_p take them; _in_kappa(|table|, |kappa|) gives their
    absolute-value majorants."""
    powers = [1.0]
    for _ in range(table.shape[1] - 1):
        powers.append(powers[-1] * kappa)
    return (table * powers).sum(axis=1)[::-1]


def _in_p(a: np.ndarray, b: np.ndarray):
    """x -> a(P) + x b(P), P = 1 - x^2, by Horner, for a float or an array.
    Plain float loops: the Illinois refinement calls it ~11 times per
    bracket, and _shape at each sign change."""
    (a0, *a_rest), (b0, *b_rest) = a.tolist(), b.tolist()

    def evaluate(x):
        p = (1.0 - x) * (1.0 + x)
        va, vb = a0, b0
        for c in a_rest:
            va = va * p + c
        for c in b_rest:
            vb = vb * p + c
        return va + x * vb
    return evaluate


def _numerator(i: int, kappa: float):
    """x -> N_i(x), by Horner in P = 1 - x^2."""
    return _in_p(*(_in_kappa(t, kappa) for t in _numerator_table(i)))


def _term_majorant(i: int, kappa: float):
    """x -> Ntilde_i(|x|): N_i with every term by its absolute value (every
    P^b >= 0 on the support)."""
    evaluate = _in_p(*(_in_kappa(np.abs(t), abs(kappa)) for t in _numerator_table(i)))
    return lambda x: evaluate(abs(x))


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Refine a bracket holding a sign change of f, with f_lo = f(lo) and
    f_hi = f(hi) of opposite signs, by the Illinois method (Dowell and
    Jarratt, BIT 11, 1971): false position, halving the value kept at an end
    that stays twice in a row. Each step keeps the bracket; a step that
    would not land strictly inside it bisects instead. Stops at adjacent
    floats or a width of 2^-100 (an x error costs the majorant only to second
    order; the floor stops the ~1000 steps a root at exactly x = 0 would take
    through the subnormals) and returns the last midpoint, or at once at a
    point where f is exactly 0, which is a root."""
    lo_negative, side = f_lo < 0.0, 0
    while hi - lo > 2.0**-100:
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == lo_negative:
            lo, f_lo = x, fx
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = x, fx
            if side > 0:
                f_lo *= 0.5
            side = 1
    return 0.5 * (lo + hi)


# x = tanh(theta), |theta| <= 8: spacing 0.02 near x = 0, and towards the
# ends P = 1 - x^2 = sech^2(theta) falls by 4 % a step, down to P = 4.5e-7
_TANH_GRID = np.tanh(np.linspace(-8.0, 8.0, 801))


def _sign_changes(order: int, k: float) -> np.ndarray:
    """The sign changes x = (t - c)/w in (-1, 1) of h^{(order)}, that is of
    N_order, for one bump with k = sigma w; sorted.

    Candidates are the real parts of all roots of N_order in (-1, 1) and the
    tanh grid: np.roots loses sign changes of the degree-4k N_k once sigma w
    passes ~60 (k = 7) or ~100 (k = 6), where they crowd towards x = 1 at
    ratios ~1.3 in P. A bracket (midpoints to a candidate's neighbours)
    whose ends differ in sign is refined by _illinois, on values of N_order
    only, starting from the values at the ends that found it. An
    end where N_order is exactly 0 is a root itself: at sigma = 0, N_k is
    odd for odd k, and the midpoint of the two candidates at x = 0 lands on
    its root there.
    """
    coef = _in_kappa(_monomial_table(order), k)
    # terms below rounding on |x| <= 1 only add huge roots, and can overflow the companion
    roots = np.roots(np.where(np.abs(coef) > 1e-16 * np.abs(coef).max(), coef, 0.0))
    x = np.sort(np.concatenate((roots.real[(-1.0 < roots.real) & (roots.real < 1.0)], _TANH_GRID)))
    f = _numerator(order, k)
    ends = np.concatenate(([-1.0], 0.5 * (x[1:] + x[:-1]), [1.0]))
    at_ends = f(ends)
    changes = {_illinois(f, *ends[i:i + 2].tolist(), *at_ends[i:i + 2].tolist())
               for i in np.flatnonzero(at_ends[:-1] * at_ends[1:] < 0.0)}
    return np.array(sorted(changes.union(ends[at_ends == 0.0].tolist())))


@lru_cache(maxsize=256)
def _shape(order: int, kappa: float) -> tuple:
    """The part of M_order that depends on the bump only through kappa =
    sigma w: per sign change x of N_order (_sign_changes), the tuple (x, P,
    u, N_{order-1}(x), Ntilde_{order-1}(|x|)), P = 1 - x^2, u = -1/P.

    Keyed by (order, kappa) with kappa = sigma w + 0.0, so that -0.0 and 0.0
    share an entry. 256 entries hold a whole g <= 8 verify: at most 17 sigmas
    times 7 orders per bump width.
    """
    jet_at, size_at = _numerator(order - 1, kappa), _term_majorant(order - 1, kappa)
    out = []
    for x in _sign_changes(order, kappa).tolist():
        p = (1.0 - x) * (1.0 + x)
        out.append((x, p, -1.0 / p, jet_at(x), size_at(x)))
    return tuple(out)


def tail_majorant(tf: TestFunction, sigma: float, order: int = 2) -> TailMajorant:
    """Certified M_k(sigma), k = order, with |Phi(sigma + i tau)| <= M_k / |tau|^k.

    k integrations by parts of e^{t(sigma + i tau)} alpha(t) put the whole
    tau decay on integral |h^{(k)}| dt, h = e^{sigma t} alpha: the total
    variation of h^{(k-1)}. For one bump h^{(k-1)} is monotone between the
    support ends (where it is 0) and the sign changes z_i of h^{(k)} = A
    e^{sigma t + u} N_k(x) / (w^k P^{2k}) (_sign_changes, _numerator_table),
    so it is read only there: the variation is sum |h^{(k-1)}(z_{i+1}) -
    h^{(k-1)}(z_i)|, with no quadrature. A BumpSum gets the sum of its
    terms' M_k (triangle inequality): exact for disjoint supports, a valid
    looser bound where supports overlap. Orders 2..K_MAX are supported: the
    test suite holds them to a sympy grid oracle for w in [0.05, 4], sigma in
    [0, 8] and sigma w up to 600.

    The z_i, with P, u, N_{k-1} and Ntilde_{k-1} there, depend only on (k,
    sigma w) and come from the cache _shape, so a repeated width costs only
    the placement below: A e^{sigma (c + w z_i) + u}, the scale w^{k-1}
    P^{2k-2}, the variation and the allowance. Cached or not, the values
    are the same floats combined in the same order, so M_k is bitwise the
    same.

    m includes a rounding allowance, reported as error, charged at each z_i.
    Each e = A e^{sigma t + u} is within 16 eps (1 + |sigma| (|c| + w) + |u|)
    relative. N_{k-1}(x), by Horner in P (degree <= 2k - 2, P within 3 eps)
    on coefficients each within 2k eps, is within 12k eps of the majorant
    Ntilde_{k-1}(|x|) (all terms with absolute values), and w^{k-1} P^{2k-2}
    is within 8k eps relative, so 20k eps Ntilde / (w^{k-1} P^{2k-2}) more
    per value. Each value enters two differences; forming and summing the
    n + 1 differences in order adds (n + 2) eps relative. The few z_i are
    read by plain float loops. An ulp's error in z_i costs only second
    order, as h^{(k)} vanishes there. Where w^{k-1} P^{2k-2} underflows (a
    tiny w) or e overflows, m is +inf, a valid bound, never NaN.
    """
    if not 2 <= order <= K_MAX:
        raise ValueError("tail majorant order must lie in 2..%d, got %r" % (K_MAX, order))
    m = allowance = 0.0
    try:
        for b in tf.terms if isinstance(tf, BumpSum) else (tf,):
            shape = _shape(order, sigma * b.width + 0.0)
            lead, reach = b.width ** (order - 1), 1.0 + abs(sigma) * (abs(b.center) + b.width)
            tv = rounding = last = 0.0
            for x, p, u, jet, size in shape:
                e = b.amplitude * math.exp(sigma * (b.center + b.width * x) + u)
                scale = lead
                for _ in range(2 * order - 2):
                    scale *= p
                value = e * (jet / scale)
                tv += abs(value - last)
                last = value
                slack = 16.0 * (reach + abs(u)) + 20.0 * order
                rounding += slack * abs(e) * (size / scale)
            tv += abs(last)
            err = math.ulp(1.0) * (2.0 * rounding + (len(shape) + 2) * tv)
            m, allowance = m + (tv + err), allowance + err
    except (OverflowError, ZeroDivisionError):  # e overflows, w^{k-1} P^{2k-2} underflows to 0
        m = math.inf
    if not math.isfinite(m):
        m = allowance = math.inf
    return TailMajorant(sigma=sigma, order=order, m=m, error=allowance)

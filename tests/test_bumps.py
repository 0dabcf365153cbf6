"""Test functions, the Phi transform, ladders, and tail majorants."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weilflow import bumps
from weilflow.bumps import (
    K_MAX,
    RTOL,
    BumpFunction,
    BumpSum,
    combine_bumps,
    phi,
    phi_ladder,
    tail_majorant,
)
from weilflow.errors import InputError, QuadratureNonConvergence

STD = BumpFunction()  # c=0, w=1, A=1


def test_bump_point_values():
    t = np.array([0.0, 0.5, 1.0, -1.0, 1.5, -1.5, 2.0])
    vals = STD.values(t)
    assert abs(vals[0] - oracles.ALPHA_AT_0) < 1e-15
    assert abs(vals[1] - oracles.ALPHA_AT_HALF) < 1e-15
    assert all(v == 0.0 for v in vals[2:])
    assert np.all(STD.values(np.linspace(-0.99, 0.99, 101)) > 0)


def test_bump_parameters():
    b = BumpFunction(center=2.0, width=0.5, amplitude=3.0)
    assert b.support == (1.5, 2.5)
    assert abs(float(b.values(np.array([2.0]))[0]) - 3.0 * math.exp(-1)) < 1e-14
    with pytest.raises(InputError):
        BumpFunction(width=0.0)
    with pytest.raises(InputError):
        BumpFunction(width=-1.0)
    with pytest.raises(InputError):
        BumpFunction(center=math.inf)
    for width in (math.inf, math.nan):
        with pytest.raises(InputError):
            BumpFunction(width=width)


def test_mass_scale_matches_quadrature():
    for c, w, a in [(0, 1, 1), (2, 0.5, 3), (-1, 0.25, 0.7)]:
        b = BumpFunction(center=c, width=w, amplitude=a)
        mass = oracles.simpson_phi(0, [(c, w, a)], n=1 << 18).real
        assert abs(b.mass_scale - mass) < 1e-10 * max(1.0, mass)


def test_phi_standard_value():
    r = phi(STD, 0.0)
    assert abs(r.value - oracles.PHI0_STANDARD) < 1e-14
    assert abs(r.value - oracles.simpson_phi(0, [(0, 1, 1)])) < 1e-12
    assert r.error < 1e-12


def test_phi_complex_value():
    r = phi(STD, 0.5 + 3j)
    assert abs(r.value - oracles.PHI_HALF_3I) < 1e-13
    assert abs(r.value - oracles.simpson_phi(0.5 + 3j, [(0, 1, 1)])) < 1e-11


def test_phi_against_mpmath():
    # independent integrator and precision model
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 25

    def f(t, s):
        t = mpmath.mpf(t)
        if abs(t) >= 1:
            return mpmath.mpc(0)
        return mpmath.e ** (-1 / (1 - t * t)) * mpmath.e ** (s * t)

    for s in (0, 1.0, 0.5 + 2j, -0.5 + 7j):
        want = mpmath.quad(lambda t: f(t, mpmath.mpc(s)), [-1, 0, 1])
        got = phi(STD, s).value
        assert abs(got - complex(want)) < 1e-12 * max(1.0, abs(complex(want)))


def test_phi_even_symmetry():
    rng = random.Random(9)
    for _ in range(10):
        s = complex(rng.uniform(-2, 2), rng.uniform(-20, 20))
        a = phi(STD, s).value
        b = phi(STD, -s).value
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_phi_schwarz_reflection():
    b = BumpFunction(center=1.2, width=0.7, amplitude=2.0)
    rng = random.Random(10)
    for _ in range(10):
        s = complex(rng.uniform(-2, 2), rng.uniform(-30, 30))
        lhs = phi(b, s.conjugate()).value
        rhs = phi(b, s).value.conjugate()
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))


def test_phi_exponential_shift():
    rng = random.Random(11)
    base = BumpFunction(center=0.0, width=0.8)
    for _ in range(10):
        c = rng.uniform(-3, 3)
        shifted = BumpFunction(center=c, width=0.8)
        s = complex(rng.uniform(-1, 1), rng.uniform(-10, 10))
        lhs = phi(shifted, s).value
        rhs = np.exp(c * s) * phi(base, s).value
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_phi_crude_envelope_bound():
    rng = random.Random(12)
    for _ in range(25):
        c = rng.uniform(-2, 2)
        w = rng.uniform(0.2, 1.5)
        a = rng.uniform(0.2, 4.0)
        b = BumpFunction(center=c, width=w, amplitude=a)
        s = complex(rng.uniform(-2, 2), rng.uniform(-50, 50))
        bound = math.exp(abs(s.real) * (abs(c) + w)) * b.mass_scale
        assert abs(phi(b, s).value) <= bound * (1 + 1e-9)


def test_phi_linearity():
    b1 = BumpFunction(center=0.0, width=1.0)
    b2 = BumpFunction(center=1.5, width=0.5, amplitude=2.0)
    both = combine_bumps([b1, b2])
    for s in (0.3, 1 + 4j, -0.5 + 11j):
        lhs = phi(both, s)
        rhs1, rhs2 = phi(b1, s), phi(b2, s)
        assert abs(lhs.value - rhs1.value - rhs2.value) <= (
            lhs.error + rhs1.error + rhs2.error + 1e-13
        )


def test_bump_sum_values_and_support():
    b1 = BumpFunction(center=-1.0, width=0.5)
    b2 = BumpFunction(center=2.0, width=1.0, amplitude=-0.5)
    s = combine_bumps([b1, b2])
    assert isinstance(s, BumpSum)
    assert s.support == (-1.5, 3.0)
    t = np.linspace(-2, 3.5, 301)
    assert np.allclose(s.values(t), b1.values(t) + b2.values(t), rtol=0, atol=0)
    # combine of one is the bump itself
    assert combine_bumps([b1]) is b1
    assert combine_bumps(b1) is b1
    with pytest.raises(InputError):
        combine_bumps([])


def test_ladder_matches_pointwise():
    beta = 2 * math.pi / math.log(5)
    tf = combine_bumps([BumpFunction(center=1.6, width=0.5),
                        BumpFunction(center=-0.4, width=0.3, amplitude=1.5)])
    n = 40
    vals, errs, panels = phi_ladder(tf, 0.5, 0.9 - beta * n, beta, 2 * n + 1)
    worst = 0.0
    for k in range(0, 2 * n + 1, 5):
        direct = phi(tf, complex(0.5, 0.9 + beta * (k - n))).value
        worst = max(worst, abs(vals[k] - direct))
    assert worst < 1e-13
    assert len(errs) == 2 * n + 1 and panels >= 8


def test_ladder_rows_match_single_row_calls():
    # rows share one grid, set by the row reaching the largest |f|; each row
    # still agrees with its own call to that call's error + RTOL * scale
    beta = 2 * math.pi / math.log(5)
    tf = combine_bumps([BumpFunction(center=1.6, width=0.5),
                        BumpFunction(center=-0.4, width=0.3, amplitude=1.5)])
    n = 40
    starts = np.array([0.9 - beta * n, -0.4 - beta * n, 0.0, 400.0])
    vals, errs, panels = phi_ladder(tf, 0.5, starts, beta, 2 * n + 1)
    assert vals.shape == errs.shape == (4, 2 * n + 1)
    env = bumps._envelope(tf, 0.5)
    single_panels = []
    for row, f0 in enumerate(starts):
        v, e, p = phi_ladder(tf, 0.5, f0, beta, 2 * n + 1)
        single_panels.append(p)
        scale = max(float(np.abs(v).max()), env)
        assert np.all(np.abs(vals[row] - v) <= e + RTOL * scale)
    assert panels == max(single_panels) > min(single_panels)


def _direct_pass(tf, sigma, f0, step, count, panels):
    # reference: every rung's phase from its own exp, no recurrence, no blocks
    lo, hi = tf.support
    t, wt = bumps._grid(lo, hi, panels)
    h = wt * tf.values(t) * np.exp(sigma * t)
    f = np.add.outer(f0, step * np.arange(count))
    sums = np.array([[np.sum(h * np.exp(1j * fk * t)) for fk in row] for row in f])
    return sums, float(np.abs(h).sum()), float(np.abs(f).max() * np.abs(t).max())


@pytest.mark.parametrize("count", [1, 15, 17, 1100])
def test_ladder_pass_matches_direct_sum(count):
    # 1100 rungs cross two re-anchors and end inside a block; 40 panels are
    # 2,560 nodes, more than one slice of E
    beta = 2 * math.pi / math.log(5)
    tf = combine_bumps([BumpFunction(center=1.6, width=0.5),
                        BumpFunction(center=-0.4, width=0.3, amplitude=1.5)])
    f0 = np.array([-1.3 - 40 * beta, 0.2, 7.0])
    lo, hi = tf.support
    got = bumps._ladder_pass(tf, 1.0, f0, beta, count, 40, lo, hi)
    want, mass, phase = _direct_pass(tf, 1.0, f0, beta, count, 40)
    # both sides round each phase f t to ~eps |f t|; the recurrence adds a
    # few dozen eps between anchors
    assert np.abs(got - want).max() <= math.ulp(1.0) * mass * (2 * phase + 64)


def test_ladder_of_one_point_is_phi():
    tf = BumpFunction(center=1.6, width=0.5)
    s = complex(0.5, 9.0)
    r = phi(tf, s)
    vals, errs, panels = phi_ladder(tf, s.real, s.imag, 0.0, 1)
    assert vals.shape == errs.shape == (1,)
    assert (complex(vals[0]), float(errs[0]), panels) == (r.value, r.error, r.panels)
    rows, row_errs, _ = phi_ladder(tf, s.real, np.array([s.imag, -s.imag]), 0.0, 1)
    assert rows.shape == (2, 1)
    assert abs(rows[0, 0] - r.value) <= r.error + RTOL * abs(r.value)
    assert abs(rows[1, 0] - r.value.conjugate()) <= r.error + RTOL * abs(r.value)
    want, mass, phase = _direct_pass(tf, s.real, np.array([s.imag]), 0.0, 1, r.panels)
    assert abs(r.value - want[0, 0]) <= math.ulp(1.0) * mass * (2 * phase + 64)


def test_tail_majorant_spec_points():
    tm = tail_majorant(STD, 0.0)
    for tau in (5.0, 10.0, 50.0):
        assert abs(phi(STD, 1j * tau).value) * tau * tau <= tm.m


def test_tail_majorant_random_sampling():
    rng = random.Random(20260816)
    for _ in range(100):
        c = rng.uniform(-2, 2)
        w = rng.uniform(0.2, 1.5)
        a = rng.uniform(0.2, 3.0)
        b = BumpFunction(center=c, width=w, amplitude=a)
        sigma = rng.uniform(0.0, 2.0)
        tau = rng.uniform(1.0, 100.0)
        tm = tail_majorant(b, sigma)
        assert abs(phi(b, complex(sigma, tau)).value) <= tm.m / (tau * tau) * (1 + 1e-9)


def test_tail_majorant_amplitude_linear():
    m1 = tail_majorant(BumpFunction(width=0.8), 0.7).m
    m3 = tail_majorant(BumpFunction(width=0.8, amplitude=3.0), 0.7).m
    assert abs(m3 - 3 * m1) < 1e-5 * m3


def test_tail_majorant_translation():
    sigma = 0.9
    centered = tail_majorant(BumpFunction(width=0.6), sigma).m
    shifted = tail_majorant(BumpFunction(center=1.7, width=0.6), sigma).m
    assert abs(shifted - math.exp(sigma * 1.7) * centered) < 1e-5 * shifted


def test_tail_majorant_is_the_variation_of_h1():
    # the grid oracle is a lower bound for integral |h''| that sits within
    # ~1e-8 of it at its default resolution
    rng = random.Random(20261017)
    widths = [0.05, 4.0] + [rng.uniform(0.05, 4.0) for _ in range(3)]
    for w in widths:
        for sigma in np.arange(0.0, 8.01, 0.5):
            c, a = rng.uniform(-2, 2), rng.uniform(-3, 3)
            m2 = tail_majorant(BumpFunction(center=c, width=w, amplitude=a), sigma).m
            grid = oracles.grid_variation(sigma, [(c, w, a)], 2)
            assert grid <= m2 <= grid * (1 + 1e-6), (w, sigma)


@pytest.mark.parametrize("k", range(3, K_MAX + 1))
def test_tail_majorant_is_the_variation_of_the_jet(k):
    # M_k against sympy's h^{(k-1)} on a grid; at k = K_MAX and w = 4 the
    # grid's own gap is ~4e-7. The corners w = 0.05, 4 and sigma = 0, 8
    # (sigma w = 32, where np.roots alone loses sign changes) are always in.
    rng = random.Random(k)
    for w in (0.05, 4.0, rng.uniform(0.05, 4.0)):
        for sigma in (0.0, 8.0, rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)):
            c, a = rng.uniform(-2, 2), rng.uniform(-3, 3)
            tm = tail_majorant(BumpFunction(center=c, width=w, amplitude=a), sigma, k)
            grid = oracles.grid_variation(sigma, [(c, w, a)], k)
            assert tm.order == k and 0.0 < tm.error < 1e-8 * tm.m
            assert grid <= tm.m <= grid * (1 + 1e-6), (w, sigma)


def test_tail_majorant_wide_bumps_keep_every_sign_change():
    # sigma w up to 600: N_k's sign changes crowd towards x = 1; the grid's
    # own gap reaches ~2e-6 there
    for k in (3, K_MAX):
        for kappa in (100.0, 600.0):
            tm = tail_majorant(BumpFunction(width=40.0), kappa / 40.0, k)
            grid = oracles.grid_variation(kappa / 40.0, [(0.0, 40.0, 1.0)], k)
            assert grid <= tm.m <= grid * (1 + 1e-5), (k, kappa)


def test_tail_majorant_order_two_is_pinned():
    # bitwise the values of the order-2 closed form before higher orders existed
    pins = [
        ((0.0, 1.0, 1.0), 0.0, "0x1.98cbc8d08eb86p+1"),
        ((1.6094, 0.5, 1.0), 0.5, "0x1.d03b9cf03307dp+3"),
        ((1.6094, 0.5, 1.0), 1.0, "0x1.0fc04d9a86a8cp+5"),
        ((2.5, 0.8, 2.0), 1.5, "0x1.e177db8344384p+8"),
        ((-1.2, 0.6, 1.5), 3.0, "0x1.e8af02b223e60p-2"),
        ((0.3, 0.05, -2.0), 8.0, "0x1.6e50cf2b12ac1p+10"),
        ((-2.0, 4.0, 0.7), 8.0, "0x1.7fbb781e86675p+14"),
        ((1.0, 2.5, 1.0), 2.0, "0x1.fc86026958a3ap+7"),
        ((0.0, 1.0, 1.0), 1e-303, "0x1.98cbc8d08eb86p+1"),
    ]
    for (c, w, a), sigma, want in pins:
        assert tail_majorant(BumpFunction(c, w, a), sigma).m.hex() == want, (c, w, a, sigma)
    two = combine_bumps([BumpFunction(1.6094, 0.5), BumpFunction(2.5, 0.8, 2.0)])
    assert tail_majorant(two, 1.0).m.hex() == "0x1.26f26dc262585p+7"


def test_tail_majorant_order_range():
    for order in (1, K_MAX + 1):
        with pytest.raises(ValueError):
            tail_majorant(STD, 0.5, order)


@pytest.mark.parametrize("width", [1e-60, 1e-100, 1e-320])
def test_tail_majorant_never_nan(width):
    # w^{k-1} P^{2k-2} underflows: the majorant is +inf, a valid bound, not NaN
    tf = BumpFunction(center=0.0, width=width)
    ms = [tail_majorant(tf, 0.5, k).m for k in range(2, K_MAX + 1)]
    assert not any(math.isnan(m) for m in ms)
    assert all(m > 0 for m in ms) and ms[-1] == math.inf


def test_tail_majorant_disjoint_sum_is_sum_of_parts():
    parts = [BumpFunction(center=-1.0, width=0.5),
             BumpFunction(center=0.5, width=1.0, amplitude=-2.0),
             BumpFunction(center=2.0, width=0.5, amplitude=0.7)]  # supports touch
    for sigma in (0.0, 0.5, 1.5, 3.0):
        whole = tail_majorant(combine_bumps(parts), sigma)
        assert whole.m == sum(tail_majorant(b, sigma).m for b in parts)
        grid = oracles.grid_variation(
            sigma, [(b.center, b.width, b.amplitude) for b in parts], 2)
        assert grid <= whole.m <= grid * (1 + 1e-6)


def test_tail_majorant_overlapping_sum_still_bounds():
    # opposite amplitudes cancel in sum h'', so the triangle inequality is loose
    parts = [(0.0, 1.0, 1.0), (0.3, 0.8, -1.5), (0.2, 0.4, 0.5)]
    tf = combine_bumps([BumpFunction(c, w, a) for c, w, a in parts])
    for sigma in (0.0, 1.0, 2.5):
        m2 = tail_majorant(tf, sigma).m
        assert oracles.grid_variation(sigma, parts, 2) <= m2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    c=st.floats(-2.0, 2.0),
    w=st.floats(0.05, 2.0),
    a=st.floats(0.1, 3.0),
    sigma=st.floats(0.0, 4.0),
    tau=st.floats(0.5, 200.0),
    k=st.integers(2, K_MAX),
)
def test_tail_majorant_bounds_phi(c, w, a, sigma, tau, k):
    b = BumpFunction(center=c, width=w, amplitude=a)
    r = phi(b, complex(sigma, tau))
    assert (abs(r.value) - r.error) * tau**k <= tail_majorant(b, sigma, k).m


def test_quadrature_refuses_absurd_frequency():
    with pytest.raises(QuadratureNonConvergence):
        phi(STD, 1e9j)

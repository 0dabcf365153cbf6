"""Test functions, the Phi transform, ladders, and tail majorants."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weilflow.bumps import (
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


def test_jet_against_finite_differences():
    rng = random.Random(42)
    h = 1e-5
    for _ in range(40):
        c = rng.uniform(-2, 2)
        w = rng.uniform(0.3, 2.0)
        a = rng.uniform(0.5, 3.0)
        b = BumpFunction(center=c, width=w, amplitude=a)
        # stay away from the support edge where derivatives blow up
        t = c + rng.uniform(-0.75, 0.75) * w
        grid = np.array([t - h, t, t + h])
        v, d1, d2 = b.jet(grid)
        fd1 = (v[2] - v[0]) / (2 * h)
        fd2 = (v[2] - 2 * v[1] + v[0]) / (h * h)
        scale = abs(d1[1]) + abs(v[1]) + 1.0
        assert abs(d1[1] - fd1) < 5e-6 * scale
        assert abs(d2[1] - fd2) < 5e-3 * (abs(d2[1]) + scale)


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


def test_tail_majorant_spec_points():
    tm = tail_majorant(STD, 0.0)
    for tau in (5.0, 10.0, 50.0):
        assert abs(phi(STD, 1j * tau).value) * tau * tau <= tm.m2


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
        assert abs(phi(b, complex(sigma, tau)).value) <= tm.m2 / (tau * tau) * (1 + 1e-9)


def test_tail_majorant_amplitude_linear():
    m1 = tail_majorant(BumpFunction(width=0.8), 0.7).m2
    m3 = tail_majorant(BumpFunction(width=0.8, amplitude=3.0), 0.7).m2
    assert abs(m3 - 3 * m1) < 1e-5 * m3


def test_tail_majorant_translation():
    sigma = 0.9
    centered = tail_majorant(BumpFunction(width=0.6), sigma).m2
    shifted = tail_majorant(BumpFunction(center=1.7, width=0.6), sigma).m2
    assert abs(shifted - math.exp(sigma * 1.7) * centered) < 1e-5 * shifted


def test_tail_majorant_is_the_variation_of_h1():
    # the grid oracle is a lower bound for integral |h''| that sits within
    # ~1e-8 of it at its default resolution
    rng = random.Random(20261017)
    widths = [0.05, 4.0] + [rng.uniform(0.05, 4.0) for _ in range(3)]
    for w in widths:
        for sigma in np.arange(0.0, 8.01, 0.5):
            c, a = rng.uniform(-2, 2), rng.uniform(-3, 3)
            m2 = tail_majorant(BumpFunction(center=c, width=w, amplitude=a), sigma).m2
            grid = oracles.grid_variation_h1(sigma, [(c, w, a)])
            assert grid <= m2 <= grid * (1 + 1e-6), (w, sigma)


def test_tail_majorant_disjoint_sum_is_sum_of_parts():
    parts = [BumpFunction(center=-1.0, width=0.5),
             BumpFunction(center=0.5, width=1.0, amplitude=-2.0),
             BumpFunction(center=2.0, width=0.5, amplitude=0.7)]  # supports touch
    for sigma in (0.0, 0.5, 1.5, 3.0):
        whole = tail_majorant(combine_bumps(parts), sigma)
        assert whole.m2 == sum(tail_majorant(b, sigma).m2 for b in parts)
        grid = oracles.grid_variation_h1(
            sigma, [(b.center, b.width, b.amplitude) for b in parts])
        assert grid <= whole.m2 <= grid * (1 + 1e-6)


def test_tail_majorant_overlapping_sum_still_bounds():
    # opposite amplitudes cancel in sum h'', so the triangle inequality is loose
    parts = [(0.0, 1.0, 1.0), (0.3, 0.8, -1.5), (0.2, 0.4, 0.5)]
    tf = combine_bumps([BumpFunction(c, w, a) for c, w, a in parts])
    for sigma in (0.0, 1.0, 2.5):
        m2 = tail_majorant(tf, sigma).m2
        assert oracles.grid_variation_h1(sigma, parts) <= m2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    c=st.floats(-2.0, 2.0),
    w=st.floats(0.05, 2.0),
    a=st.floats(0.1, 3.0),
    sigma=st.floats(0.0, 4.0),
    tau=st.floats(0.5, 200.0),
)
def test_tail_majorant_bounds_phi(c, w, a, sigma, tau):
    b = BumpFunction(center=c, width=w, amplitude=a)
    r = phi(b, complex(sigma, tau))
    assert (abs(r.value) - r.error) * tau * tau <= tail_majorant(b, sigma).m2


def test_quadrature_refuses_absurd_frequency():
    with pytest.raises(QuadratureNonConvergence):
        phi(STD, 1e9j)

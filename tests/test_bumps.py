"""Test functions, the Phi transform, ladders, and tail majorants."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import weilflow
from weilflow import bumps
from weilflow.bumps import (
    RTOL,
    BumpFunction,
    BumpSum,
    combine_bumps,
    phi,
    phi_ladder,
    tail_majorant,
)
from weilflow.errors import InputError, TruncationBudgetExceeded

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
    # c +- w past the largest float is an infinite support end, which
    # formula._lattice_times would meet as math.ceil(inf)
    for c, w in ((1e308, 1e308), (-1e308, 1e308), (1.7e308, 1e307)):
        with pytest.raises(InputError, match="support .* is not finite"):
            BumpFunction(center=c, width=w)
    assert BumpFunction(center=1e308, width=1e307).support[1] == 1.1e308


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
        bound = math.exp(abs(s.real) * (abs(c) + w)) * oracles.simpson_abs(0.0, [(c, w, a)], n=1 << 16)
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
    (vals,), (errs,), panels = phi_ladder([tf], [0.5], 0.9 - beta * n, beta, 2 * n + 1)
    worst = 0.0
    for k in range(0, 2 * n + 1, 5):
        direct = phi(tf, complex(0.5, 0.9 + beta * (k - n))).value
        worst = max(worst, abs(vals[k] - direct))
    assert worst < 1e-13
    assert len(errs) == 2 * n + 1 and panels >= 8


PAIR_PARTS = [(1.6, 0.5, 1.0), (-0.4, 0.3, 1.5)]
PAIR = combine_bumps([BumpFunction(*part) for part in PAIR_PARTS])
WIDE_PARTS = [(0.7, 1.4, -2.0)]  # PAIR's support hull
WIDE = BumpFunction(*WIDE_PARTS[0])


def test_ladder_rows_match_single_row_calls():
    # rows are integrands, each with its own sigma, on one shared grid; each
    # row stops doubling against its own floor, integral |e^{sigma t} h|, and
    # still agrees with its own call to that call's error + RTOL * floor
    beta = 2 * math.pi / math.log(5)
    n = 40
    rows, sigmas = [PAIR, WIDE, PAIR, WIDE], [0.5, 0.0, 2.0, 3.0]
    vals, errs, panels = phi_ladder(rows, sigmas, 0.9 - beta * n, beta, 2 * n + 1)
    assert vals.shape == errs.shape == (4, 2 * n + 1)
    single_panels = []
    for row, (parts, sigma) in enumerate(zip([PAIR_PARTS, WIDE_PARTS] * 2, sigmas)):
        (v,), (e,), p = phi_ladder([rows[row]], [sigma], 0.9 - beta * n, beta, 2 * n + 1)
        single_panels.append(p)
        floor = oracles.simpson_abs(sigma, parts, n=1 << 16)
        assert np.all(np.abs(vals[row] - v) <= e + RTOL * floor)
    assert panels == max(single_panels) > min(single_panels)


def _last_floors(monkeypatch):
    # the floors of every pass phi_ladder runs, appended as they come
    floors = []
    ladder_pass = bumps._ladder_pass

    def recording(*args):
        out = ladder_pass(*args)
        floors.append(out[1])
        return out

    monkeypatch.setattr(bumps, "_ladder_pass", recording)
    return floors


def test_ladder_floor_is_each_rows_absolute_mass(monkeypatch):
    # a pass's floor for row r is its quadrature of integral |e^{sigma_r t}
    # h_r(t)| dt, within 1e-10 of the Simpson oracle: A < 0, sigma = -2, 0
    # and 3, and a sum of overlapping terms
    beta = 2 * math.pi / math.log(5)
    cases = [[(0.0, 1.0, 1.0)], [(0.7, 0.4, -2.5)], [(-0.3, 0.8, 1.2), (0.2, 0.5, 0.7)]]
    for parts in cases:
        tf = combine_bumps([BumpFunction(*part) for part in parts])
        for sigma in (-2.0, 0.0, 3.0):
            _, floor = bumps._ladder_pass([tf], [sigma], 0.0, beta, 1, 40, *tf.support)
            want = oracles.simpson_abs(sigma, parts)
            assert abs(floor[0] - want) <= 1e-10 * want, (parts, sigma)
    # the floor is at least every |Phi| of its row, the triangle inequality
    # on the nodes, also where the terms of a sum cancel
    floors = _last_floors(monkeypatch)
    cancel = [(0.0, 1.0, 1.0), (0.3, 0.8, -1.5)]
    rows = [STD, BumpFunction(0.7, 0.4, -2.5), combine_bumps([BumpFunction(*p) for p in cancel])]
    for sigma in (-2.0, 0.0, 3.0):
        vals, _, _ = phi_ladder(rows, [sigma] * 3, -40 * beta, beta, 81)
        assert np.all(np.abs(vals) <= floors[-1][:, None] * (1 + 1e-13))
        assert floors[-1][2] < sum(oracles.simpson_abs(sigma, [p], n=1 << 16) for p in cancel)


def test_ladder_floor_stops_tiny_and_zero_rows(monkeypatch):
    # rungs far out in tau, where |Phi| ~ e^{-sqrt(w tau)} ~ 1e-24 is below
    # the sum's rounding (a few eps times the floor), so that no pass agrees
    # with the last relative to |Phi|: they stop at the first comparison (two
    # passes), as does a row of A = 0, whose values and errors are exact zeros
    floors = _last_floors(monkeypatch)
    rows = [STD, BumpFunction(0.5, 0.3, 0.0)]
    vals, errs, _ = phi_ladder(rows, [0.5, 0.5], 3000.0, 3.9, 101)
    assert len(floors) == 2
    assert np.abs(vals[0]).max() < 0.05 * RTOL * floors[-1][0]
    assert not vals[1].any() and not errs[1].any() and floors[-1][1] == 0.0
    # a row whose node weights are subnormal doubles agrees only to their
    # spacing, 2^-1074; it stops with the rest (held to its floor alone, it
    # would double on to LADDER_CAP), and so does verify with such a bump
    floors.clear()
    rows = [STD, BumpFunction(0.0, 1.0, 1e-310)]
    vals, _, _ = phi_ladder(rows, [0.5, 0.5], 0.0, 3.9, 101)
    assert 0.0 < floors[-1][1] < sys.float_info.min and len(floors) <= 4
    assert np.all(np.abs(vals[1]) <= floors[-1][1] * (1 + 1e-13))
    e5 = weilflow.parse_weil_datum({"q": 5, "trace": 2})
    assert weilflow.verify(e5, BumpFunction(math.log(5.0), 0.5, 1e-310)).passed


def _direct_pass(rows, sigmas, f0, step, count, panels):
    # reference: every rung's phase from its own exp, no recurrence, no
    # blocks; returns the sums, each row's sum of |node weights| and the
    # largest phase
    lo, hi = rows[0].support
    t, wt = bumps._grid(lo, hi, panels)
    h = np.array([wt * tf.values(t) * np.exp(sigma * t) for tf, sigma in zip(rows, sigmas)])
    f = f0 + step * np.arange(count)
    sums = np.array([[np.sum(hr * np.exp(1j * fk * t)) for fk in f] for hr in h])
    return sums, np.abs(h).sum(axis=1), float(np.abs(f).max() * np.abs(t).max())


@pytest.mark.parametrize("count", [1, 15, 17, 1100])
def test_ladder_pass_matches_direct_sum(count):
    # 1100 rungs cross two re-anchors and end inside a block; 40 panels are
    # 2,560 nodes, more than one slice of E
    beta = 2 * math.pi / math.log(5)
    rows, sigmas = (PAIR, PAIR, WIDE), (1.0, 0.0, 2.5)
    f0 = -1.3 - 40 * beta
    lo, hi = PAIR.support
    got, floor = bumps._ladder_pass(rows, sigmas, f0, beta, count, 40, lo, hi)
    want, mass, phase = _direct_pass(rows, sigmas, f0, beta, count, 40)
    # both sides round each phase f t to ~eps |f t|; the recurrence adds a
    # few dozen eps between anchors. The floors are the same node sums
    assert np.abs(got - want).max() <= math.ulp(1.0) * mass.max() * (2 * phase + 64)
    assert got.shape == (3, count) and np.array_equal(floor, mass)


def test_ladder_of_one_point_is_phi():
    tf = BumpFunction(center=1.6, width=0.5)
    s = complex(0.5, 9.0)
    r = phi(tf, s)
    vals, errs, panels = phi_ladder([tf], [s.real], s.imag, 0.0, 1)
    assert vals.shape == errs.shape == (1, 1)
    assert (complex(vals[0, 0]), float(errs[0, 0]), panels) == (r.value, r.error, r.panels)
    twice = BumpFunction(center=1.6, width=0.5, amplitude=-2.0)
    rows, row_errs, _ = phi_ladder([tf, twice], [s.real, s.real], s.imag, 0.0, 1)
    assert rows.shape == row_errs.shape == (2, 1)
    assert abs(rows[0, 0] - r.value) <= r.error + RTOL * abs(r.value)
    assert abs(rows[1, 0] + 2.0 * r.value) <= 2.0 * (r.error + RTOL * abs(r.value))
    want, mass, phase = _direct_pass([tf], [s.real], s.imag, 0.0, 1, r.panels)
    assert abs(r.value - want[0, 0]) <= math.ulp(1.0) * mass[0] * (2 * phase + 64)
    with pytest.raises(ValueError, match="count must be >= 1"):
        phi_ladder([tf], [s.real], s.imag, 0.0, 0)


def test_tail_majorant_spec_points():
    tm = tail_majorant(STD, 0.0)
    for tau in (5.0, 10.0, 50.0):
        assert abs(phi(STD, 1j * tau).value) <= tm.bound(tau)


def test_tail_majorant_random_sampling():
    rng = random.Random(20260816)
    for _ in range(100):
        c = rng.uniform(-2, 2)
        w = rng.uniform(0.2, 1.5)
        a = rng.uniform(0.2, 3.0)
        b = BumpFunction(center=c, width=w, amplitude=a)
        sigma = rng.uniform(0.0, 2.0)
        tau = rng.uniform(1.0, 100.0)
        r = phi(b, complex(sigma, tau))
        assert abs(r.value) - r.error <= tail_majorant(b, sigma).bound(tau)


def test_tail_majorant_amplitude_linear():
    m1 = tail_majorant(BumpFunction(width=0.8), 0.7)
    m3 = tail_majorant(BumpFunction(width=0.8, amplitude=-3.0), 0.7)
    assert abs(m3.bound(20.0) - 3 * m1.bound(20.0)) < 1e-13 * m3.bound(20.0)
    assert abs(m3.tail(3.9, 299.5) - 3 * m1.tail(3.9, 299.5)) < 1e-13 * m3.tail(3.9, 299.5)
    zero = tail_majorant(BumpFunction(width=0.8, amplitude=0.0), 0.7)
    assert zero.bound(20.0) == zero.tail(3.9, 299.5) == 0.0


def test_tail_majorant_translation():
    sigma = 0.9
    centered = tail_majorant(BumpFunction(width=0.6), sigma).bound(30.0)
    shifted = tail_majorant(BumpFunction(center=1.7, width=0.6), sigma).bound(30.0)
    assert abs(shifted - math.exp(sigma * 1.7) * centered) < 1e-13 * shifted


def _bound_cases():
    # seeded (bumps, sigma, tau) with omega = |tau| w from 0.3 to 3000 for the
    # widest term, kappa = sigma w from -3 to 4, either sign of A and of tau,
    # and a BumpSum of two overlapping terms and one of two disjoint terms
    rng = random.Random(20261020)
    cases = []
    for omega in (0.3, 0.5, 2.0, 10.0, 100.0, 300.0, 1000.0, 3000.0):
        for kappa in (-3.0, 0.0, 4.0, rng.uniform(-3.0, 4.0)):
            w = rng.uniform(0.1, 2.0)
            parts = [(rng.uniform(-2.0, 2.0), w, rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0))]
            cases.append((parts, kappa / w, rng.choice((-1.0, 1.0)) * omega / w))
        w = rng.uniform(0.2, 1.0)
        for shift in (0.3 * w, 3.0 * w):
            parts = [(0.0, w, 1.0), (shift, 0.6 * w, -rng.uniform(0.3, 3.0))]
            cases.append((parts, rng.uniform(-1.0, 2.0), omega / w))
    return cases


def test_bound_is_above_phi_against_mpmath():
    # the oracle is 30-digit mpmath. B/|Phi| is about 2 for omega >= 10 away
    # from the zeros of Phi in tau, about 10 at omega = 0.5 and up to ~180 at
    # omega = 0.3 with kappa = 4
    ratios = []
    for parts, sigma, tau in _bound_cases():
        tf = combine_bumps([BumpFunction(c, w, a) for c, w, a in parts])
        want = abs(oracles.mpmath_phi(parts, sigma, tau))
        b = tail_majorant(tf, sigma).bound(tau)
        assert want <= b, (parts, sigma, tau)
        if len(parts) == 1 and abs(tau) * parts[0][1] >= 10.0:
            ratios.append(b / want)
    assert len(ratios) == 20 and sorted(ratios)[10] <= 2.5


def test_tail_is_at_least_the_direct_sum_of_the_bound():
    # the closed-form tail of rungs |nu| > n with |tau| >= beta (|nu| - rho)
    # against B summed rung by rung on both sides, and the allowance small
    rng = random.Random(7)
    for _ in range(12):
        parts = [BumpFunction(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 2.0), rng.uniform(-3.0, 3.0))
                 for _ in range(rng.choice((1, 2)))]
        tm = tail_majorant(combine_bumps(parts), rng.uniform(0.0, 4.0))
        beta, rho = 2.0 * math.pi / math.log(rng.choice((2, 5, 10007))), rng.choice((0.5, 1.0, 2.5))
        for n in (300, 450, 1000):
            direct, nu = [], n + 1
            while not direct or direct[-1] > 1e-20 * direct[0]:
                direct.append(2.0 * tm.bound(beta * (nu - rho)))
                nu += 1
            closed = tm.tail(beta, n - rho)
            assert math.fsum(direct) <= closed <= 1.5 * math.fsum(direct) + 2.0 * tm.bound(beta * (n - rho))
    # the rounding allowance: within 1e-12 of the closed form at 30 digits
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    c, w, a, sigma, beta, start = 0.7, 0.5, -1.5, 1.5, 2.0 * math.pi / math.log(5.0), 299.0
    z = mpmath.sqrt(mpmath.mpf(w) * beta * start)
    want = (abs(a) * mpmath.exp(sigma * c) * (1 + mpmath.exp(abs(sigma * w))) * 4 * mpmath.sqrt(2) / beta
            * mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.exp(-z))
    got = tail_majorant(BumpFunction(c, w, a), sigma).tail(beta, start)
    assert want <= got <= want * (1 + 1e-12)


def test_tail_majorant_order_two_is_pinned():
    # B at tau = 40 and its tail past 299.5 rungs of E/F_5's spacing, in
    # .hex(), at the cases where the order-2 majorant was pinned; each at most
    # 1e-11 above the closed form evaluated directly (the allowance raises
    # exponents under 150 in size by 64 eps per unit, under 3e-12)
    beta = 2.0 * math.pi / math.log(5.0)
    pins = [
        ((0.0, 1.0, 1.0), 0.0, "0x1.bb9066beffd6ap-12", "0x1.f9689345b535dp-51"),
        ((1.6094, 0.5, 1.0), 0.5, "0x1.844ed7956c9f9p-8", "0x1.05dfdd963009ep-34"),
        ((1.6094, 0.5, 1.0), 1.0, "0x1.f773d04c92712p-7", "0x1.53871a59da5bep-33"),
        ((2.5, 0.8, 2.0), 1.5, "0x1.27642188b526ap-3", "0x1.baf6eaa7b3d75p-38"),
        ((-1.2, 0.6, 1.5), 3.0, "0x1.dce6f0d2ac14ap-13", "0x1.68819b24dc4d3p-42"),
        ((0.3, 0.05, -2.0), 8.0, "0x1.c7e377b88dbedp-1", "0x1.1a8611475f3a2p-6"),
        ((-2.0, 4.0, 0.7), 8.0, "0x1.9ec6b2e566ad5p+1", "0x1.a52646939831ep-79"),
        ((1.0, 2.5, 1.0), 2.0, "0x1.dd8bfd98fbac0p-8", "0x1.10a2c80393d71p-70"),
        ((0.0, 1.0, 1.0), 1e-303, "0x1.bb9066beffd6ap-12", "0x1.f9689345b535dp-51"),
    ]
    for (c, w, a), sigma, bound, tail in pins:
        tm = tail_majorant(BumpFunction(c, w, a), sigma)
        assert (tm.bound(40.0).hex(), tm.tail(beta, 299.5).hex()) == (bound, tail), (c, w, a, sigma)
        scale = abs(a) * math.exp(sigma * c) * (1.0 + math.exp(abs(sigma * w)))
        z, y = math.sqrt(40.0 * w), math.sqrt(w * beta * 299.5)
        direct = scale * w * math.sqrt(math.pi) * z**-1.5 * math.exp(-z) * (1.0 + 0.375 / z)
        assert direct * (1 - 1e-14) <= tm.bound(40.0) <= direct * (1 + 1e-11), (c, w, a, sigma)
        direct = scale * 4.0 / beta * math.sqrt(math.pi) * y**-0.5 * math.exp(-y)
        assert direct * (1 - 1e-14) <= tm.tail(beta, 299.5) <= direct * (1 + 1e-11), (c, w, a, sigma)
    two = tail_majorant(combine_bumps([BumpFunction(1.6094, 0.5), BumpFunction(2.5, 0.8, 2.0)]), 1.0)
    assert (two.bound(40.0).hex(), two.tail(beta, 299.5).hex()) == ("0x1.7a9dbbf502dc5p-5", "0x1.567d2729ed659p-33")


def test_tail_majorant_order_range():
    # tail_majorant takes no order: B is one bound for every tau. It is +inf
    # at tau = 0, even in tau, and falls across the whole range of |tau|, as
    # does the tail in its start, which the ladder tail and _plan's search
    # rely on
    with pytest.raises(TypeError):
        tail_majorant(STD, 0.5, 2)
    beta = 2.0 * math.pi / math.log(5.0)
    for tf, sigma in ((STD, 0.0), (BumpFunction(1.6094, 0.5, -1.5), 1.5),
                      (combine_bumps([BumpFunction(-1.0, 0.3), BumpFunction(0.2, 2.0, 0.5)]), 3.0)):
        tm = tail_majorant(tf, sigma)
        assert tm.bound(0.0) == tm.tail(beta, 0.0) == math.inf
        taus = [10.0 ** (e / 8.0) for e in range(-40, 41)]
        bounds = [tm.bound(tau) for tau in taus]
        assert bounds == [tm.bound(-tau) for tau in taus]
        assert all(x > y > 0.0 for x, y in zip(bounds, bounds[1:])), sigma
        tails = [tm.tail(beta, start) for start in taus]
        assert all(x > y > 0.0 for x, y in zip(tails, tails[1:])), sigma


def test_tail_majorant_reads_the_root_on_a_bracket_end():
    # _plan's monotone search from the floor (n = NU_FLOOR, doubled, then
    # bisected) returns the least n whose tail is within the sub-budget, also
    # where that n is the floor itself or the end of a doubling bracket
    from weilflow import formula

    tf, g, j = BumpFunction(center=math.log(5.0), width=0.5), 1, 1
    beta, rho, shares = 2.0 * math.pi / math.log(5.0), 0.5, 2 * 3
    tm = tail_majorant(tf, j / 2.0)
    floor = formula.NU_FLOOR
    for n in (floor, floor + 1, 2 * floor - 1, 2 * floor, 2 * floor + 1, 4 * floor, 4 * floor - 1, 777):
        budget = tm.tail(beta, n - rho) * shares
        while budget / shares < tm.tail(beta, n - rho):
            budget = math.nextafter(budget, math.inf)
        m, got, tail = formula._plan(tf, g, j, beta, budget)
        assert (m, got) == (2, n) and tail == tm.tail(beta, n - rho), n
        assert tm.tail(beta, n - 1 - rho) > budget / shares or n == floor
    loose = formula._plan(tf, g, j, beta, 1.0)
    assert loose[1] == floor and loose[2] == tm.tail(beta, floor - rho) <= 1.0 / shares


def test_tail_majorant_wide_bumps_keep_every_sign_change():
    # w = 40 with kappa = sigma w up to 600 and either sign of sigma: B is
    # finite, the same for sigma and -sigma at c = 0, and above |Phi| from
    # 30-digit mpmath (loosely: e^{|kappa|} is the price of the one contour)
    tf = BumpFunction(width=40.0)
    for kappa in (100.0, 600.0):
        up, down = tail_majorant(tf, kappa / 40.0), tail_majorant(tf, -kappa / 40.0)
        for tau in (0.25, 10.0):
            assert up.bound(tau) == down.bound(tau) < math.inf
            want = abs(oracles.mpmath_phi([(0.0, 40.0, 1.0)], kappa / 40.0, tau))
            assert want <= up.bound(tau), (kappa, tau)
            assert abs(phi(tf, complex(-kappa / 40.0, tau)).value) <= down.bound(tau), (kappa, tau)


@pytest.mark.parametrize("width", [1e-60, 1e-100, 1e-320, 1e300])
def test_tail_majorant_never_nan(width):
    # tiny widths make B huge or +inf, a valid bound; a huge width or c = +-700
    # overflows e^{|sigma w|} or e^{sigma c}: +inf or a finite bound, never NaN
    for c in (0.0, 700.0, -700.0):
        for sigma in (0.0, 0.5, 4.0):
            tm = tail_majorant(BumpFunction(center=c, width=width), sigma)
            for value in (tm.bound(1.0), tm.bound(1e6), tm.tail(3.9, 299.5), tm.tail(3.9, 1e7)):
                assert value >= 0.0 and not math.isnan(value), (c, sigma)
    assert tail_majorant(BumpFunction(width=width), 0.5).tail(3.9, 299.5) > 1e3


def test_tail_majorant_disjoint_sum_is_sum_of_parts():
    parts = [BumpFunction(center=-1.0, width=0.5),
             BumpFunction(center=0.5, width=1.0, amplitude=-2.0),
             BumpFunction(center=2.0, width=0.5, amplitude=0.7)]  # supports touch
    for sigma in (0.0, 0.5, 1.5, 3.0):
        whole = tail_majorant(combine_bumps(parts), sigma)
        assert whole.bound(40.0) == math.fsum(tail_majorant(b, sigma).bound(40.0) for b in parts)
        assert whole.tail(3.9, 299.5) == math.fsum(tail_majorant(b, sigma).tail(3.9, 299.5) for b in parts)
        assert abs(phi(combine_bumps(parts), complex(sigma, 40.0)).value) <= whole.bound(40.0)


def test_tail_majorant_overlapping_sum_still_bounds():
    # opposite amplitudes cancel in Phi, so the triangle inequality is loose
    parts = [(0.0, 1.0, 1.0), (0.3, 0.8, -1.5), (0.2, 0.4, 0.5)]
    tf = combine_bumps([BumpFunction(c, w, a) for c, w, a in parts])
    for sigma in (0.0, 1.0, 2.5):
        for tau in (2.0, 25.0, 150.0):
            r = phi(tf, complex(sigma, tau))
            assert abs(r.value) - r.error <= tail_majorant(tf, sigma).bound(tau)


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
    assert abs(r.value) - r.error <= tail_majorant(b, sigma).bound(tau)


def test_quadrature_refuses_absurd_frequency():
    # 8 nodes per wavelength asks for 2.5e9 nodes on the first pass
    with pytest.raises(TruncationBudgetExceeded, match="LADDER_CAP"):
        phi(STD, 1e9j)


def test_ladder_cap_is_checked_before_every_pass(monkeypatch):
    # a pass of rows x rungs x nodes points over LADDER_CAP, or of more than
    # _MAX_NODES nodes, is refused before it runs, the first pass included,
    # and so is a first pass whose doubled successor would be (it could never
    # return); a pass of exactly LADDER_CAP points runs
    passes = []
    ladder_pass = bumps._ladder_pass
    monkeypatch.setattr(bumps, "_ladder_pass", lambda *a: passes.append(a[5]) or ladder_pass(*a))
    rows = [BumpFunction(), BumpFunction(0.5, 0.05), BumpFunction(-0.3, 0.5, 2.0)]
    args = (rows, [0.0, 0.5, 1.0], 0.0, 3.9, 301)
    values, _, panels = phi_ladder(*args)
    every = passes[:]
    assert every[-1] == panels and len(every) >= 3

    def points(p):
        return 3 * 301 * p * bumps.GL_ORDER

    for cap, runs in ((points(panels), every), (points(panels) - 1, every[:-1]),
                      (points(every[1]) - 1, []), (points(every[0]) - 1, [])):
        passes.clear()
        monkeypatch.setattr(bumps, "LADDER_CAP", cap)
        if runs == every:
            assert np.array_equal(phi_ladder(*args)[0], values)
        else:
            with pytest.raises(TruncationBudgetExceeded, match="rows x 301 rungs"):
                phi_ladder(*args)
        assert passes == runs
    monkeypatch.setattr(bumps, "LADDER_CAP", 1 << 62)
    monkeypatch.setattr(bumps, "_MAX_NODES", panels * bumps.GL_ORDER - 1)
    passes.clear()
    with pytest.raises(TruncationBudgetExceeded, match=r"\(cap %d\)" % bumps._MAX_NODES):
        phi_ladder(*args)
    assert passes == every[:-1]

"""Spectral traces, the three-way identity, and the verification driver."""

import math
import random
import time
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from test_bumps import stack
from test_exterior import _angles, _period, _weil_products
from weilflow import bumps, exterior, formula
from weilflow.bumps import BumpFunction, combine_bumps, phi, phi_ladder, tail_majorant
from weilflow.counting import build_count_table
from weilflow.errors import (
    InputError,
    InsufficientCountRange,
    NonOrdinaryInput,
    SidesTooLarge,
    TruncationBudgetExceeded,
)
from weilflow.formula import (
    geometric_side,
    spectral_side_closed_form,
    spectral_side_zero_sum,
    trace_j,
    verify,
)
from weilflow import weil
from weilflow.weil import frobenius_model, parse_weil_datum

LOG5 = math.log(5)
E5A2 = parse_weil_datum({"q": 5, "trace": 2})
G2 = parse_weil_datum({"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25]})
G3 = parse_weil_datum({"q": 5, "g": 3, "weil_poly": [1, -6, 26, -66, 130, -150, 125]})
REPEATED = parse_weil_datum({"q": 5, "g": 2, "weil_poly": [1, -4, 14, -20, 25]})
NON_ORDINARY = parse_weil_datum({"q": 5, "g": 2, "weil_poly": [1, 0, -10, 0, 25]})  # (1 - 5X^2)^2


def _product(q, traces):
    # the document of prod (1 - a X + q X^2) over the traces a
    poly = [1]
    for a in traces:
        poly = [x - a * y + q * z for x, y, z in zip(poly + [0, 0], [0] + poly + [0], [0, 0] + poly)]
    return {"q": q, "g": len(traces), "weil_poly": poly}


M1 = frobenius_model(E5A2)
M2 = frobenius_model(G2)


def test_trace_j2_closed_form_example():
    # bump at log 5: only k = 1 survives, T_2 = 5 log 5 e^{-1}
    r = trace_j(M1, [2], BumpFunction(center=LOG5, width=0.5), budget=0.25)[0]
    want = 5 * LOG5 * math.exp(-1)
    assert abs(r.value - want) < 1e-9
    assert abs(r.value - want) <= r.tail_bound + r.quad_error
    assert r.zero_count == 2 * r.nu_max + 1


def test_trace_j0_poisson_identity():
    # support inside (-log 5, log 5): the ladder must resum to log 5 alpha(0)
    r = trace_j(M1, [0], BumpFunction(center=0.0, width=0.5), budget=0.25)[0]
    want = LOG5 * oracles.ALPHA_AT_0
    assert abs(r.value - want) < 1e-9


def test_trace_imaginary_parts_certified():
    # the imaginary parts of conjugate rungs cancel exactly: every T_j, and
    # both alternating sums, are plain floats with none to certify
    tf = combine_bumps([BumpFunction(center=0.9, width=0.6, amplitude=1.3),
                        BumpFunction(center=-2.0, width=0.4)])
    for model in (M1, M2):
        for j in range(2 * model.datum.g + 1):
            r = trace_j(model, [j], tf, budget=0.25)[0]
            assert type(r.value) is float
        sp = spectral_side_zero_sum(model, tf, budget=0.25)
        assert all(type(t.value) is float for t in sp.per_j)
        assert type(sp.alternating_full) is float and type(sp.eq1_partial) is float


def test_trace_all_j_vs_symmetric_oracle():
    rng = random.Random(77)
    for w, model in ((E5A2, M1), (G2, M2)):
        roots = model.roots
        for _ in range(3):
            c = rng.uniform(-2.5, 2.5)
            width = rng.uniform(0.3, 0.7)
            amp = rng.uniform(0.5, 2.0)
            tf = BumpFunction(center=c, width=width, amplitude=amp)
            for j in range(2 * w.g + 1):
                r = trace_j(model, [j], tf, budget=0.25)[0]
                want = oracles.symmetric_trace(roots, w.q, j, [(c, width, amp)])
                assert abs(r.value - want) <= r.tail_bound + r.quad_error + 1e-9 * (
                    1 + abs(want)
                )
                # the certified bound is crude; the floor of 300 rungs per
                # ladder makes the actual agreement far tighter
                assert abs(r.value - want) < 1e-8 * (1 + abs(want))


def test_trace_all_j_vs_symmetric_oracle_past_the_floor():
    # at budget 1e-12 every ladder but the g = 3 product's j = 0 runs past
    # the 300-zero floor
    bump = (LOG5, 0.5, 1.0)
    tf = BumpFunction(center=LOG5, width=0.5)
    for w, longest in ((REPEATED, 560), (G3, 654)):
        model = frobenius_model(w)
        roots = model.roots
        per = [trace_j(model, [j], tf, budget=1e-12)[0] for j in range(2 * w.g + 1)]
        assert max(r.nu_max for r in per) == longest
        for r in per:
            want = oracles.symmetric_trace(roots, w.q, r.j, [bump])
            assert abs(r.value - want) <= r.tail_bound + r.quad_error + 1e-9 * (1 + abs(want))
            assert abs(r.value - want) < 1e-8 * (1 + abs(want))


def test_tail_covers_the_unreduced_bases():
    # every j-subset's unreduced base theta_S lies within rho_j beta of the
    # axis, rho_j = max(1, min(j, 2g - j)) / 2, and nu_max pays for that reach:
    # with rho_j = 1/2 for all j, j = 2 and 3 would stop at 372 and 407
    for w in (G3, NON_ORDINARY):
        model = frobenius_model(w)
        signed = [sign * theta for theta in _angles(model) for sign in (1, -1)]
        for j in range(2 * w.g + 1):
            rho = max(1, min(j, 2 * w.g - j)) / 2
            reach = max(abs(math.fsum(signed[i] for i in s)) for s in exterior.subsets(2 * w.g, j))
            assert reach <= rho * _period(model)
    model = frobenius_model(G3)
    tf = BumpFunction(center=LOG5, width=0.5)
    assert [trace_j(model, [j], tf, 1e-9)[0].nu_max for j in range(7)] == [300, 323, 373, 408, 427, 429, 406]


def test_ladder_work_per_verify(monkeypatch):
    # one phi_ladder call per verify: every T_j is a 301-point half-ladder row
    # from 0 of that call, 3 rows on E/F_5 and 7 on the g = 3 product (one
    # call per j took 3 and 7 calls; one row per sublattice class 1,204 and
    # 16,254 points, one ladder per sublattice 64 x 601), all from one
    # integrand on alpha's support
    calls = []
    ladder = formula.phi_ladder

    def counting(rows, sigmas, f0, step, count):
        assert f0 == 0.0 and type(count) is int and rows.support == tf.support
        calls.append((len(sigmas), count))
        out = ladder(rows, sigmas, f0, step, count)
        assert type(out[2]) is int
        return out

    monkeypatch.setattr(formula, "phi_ladder", counting)
    tf = BumpFunction(center=LOG5, width=0.5)
    for w, rows in ((E5A2, 3), (G3, 7)):
        calls.clear()
        assert verify(w, tf, trunc_budget=1.0).passed
        assert calls == [(rows, 301)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(doc=_weil_products(), c=st.floats(-2.0, 2.0), width=st.floats(0.2, 1.5),
       amp=st.floats(0.2, 3.0), budget=st.sampled_from([0.25, 1e-9]))
def test_shared_ladder_rows_match_one_row_ladders(doc, c, width, amp, budget):
    # every row alpha L_j of verify's one shared call against a ladder of that
    # row alone, over the same rungs: within the sum of both rows' deltas
    model = frobenius_model(parse_weil_datum(doc))
    tf = BumpFunction(center=c * math.log(model.datum.q), width=width, amplitude=amp)
    spec = spectral_side_zero_sum(model, tf, budget)
    count = max(t.nu_max for t in spec.per_j) + 1
    js = tuple(t.j for t in spec.per_j)
    sigmas = [j / 2 for j in js]
    v, e, panels = phi_ladder(formula._lefschetz_rows(tf, _angles(model), js), sigmas, 0.0,
                              _period(model), count)
    assert {t.panels for t in spec.per_j} == {panels}
    for t, sigma in zip(spec.per_j, sigmas):
        assert t.value == math.fsum([v[t.j, 0].real, *(2.0 * v[t.j, 1:t.nu_max + 1].real)])
        row = formula._lefschetz_rows(tf, _angles(model), t.j)
        (v1,), (e1,), _ = phi_ladder(row, [sigma], 0.0, _period(model), count)
        assert np.abs(v[t.j] - v1).max() <= math.fsum(e[t.j]) + math.fsum(e1)


def test_shared_rows_are_each_rows_own_values():
    # trace_j builds every row alpha L_j of a pass from one alpha and one
    # recurrence to coefficient g: each row bitwise alpha times L_j from the
    # recurrence cut at min(j, 2g - j), so T_j, quad_error and panels cannot move
    tf = BumpFunction(center=0.3, width=0.6, amplitude=1.7)
    t = np.linspace(-0.31, 0.91, 257)
    for w in (E5A2, G3, parse_weil_datum(_product(2, [0] * 8))):
        angles, n = _angles(frobenius_model(w)), 2 * w.g + 1
        rows = formula._lefschetz_rows(tf, angles, tuple(range(n)))
        shared = rows.values(t)
        assert shared.shape == (n, t.size) and rows.support == tf.support
        for j in range(n):
            assert np.array_equal(shared[j], tf.values(t) * exterior.lefschetz_weight(angles, j, t))


def test_report_parts_have_no_instance_dict():
    # result dataclasses are slotted: a caller that keeps many reports pays
    # for their fields only
    tf = BumpFunction(center=LOG5, width=0.5)
    rep = verify(E5A2, tf)
    parts = [rep, rep.spectral, rep.geometric, *rep.spectral.per_j, *rep.geometric.cells,
             tf, combine_bumps([tf, tf]), phi(tf, 0.5 + 3j), tail_majorant(tf, 0.5)]
    assert rep.geometric.cells
    assert not [type(p).__name__ for p in parts if hasattr(p, "__dict__")]


def test_real_roots_verify():
    # (1 - 5X^2)^2 has mu = +-sqrt 5 twice each, (1 - 2X)^2 over F_4 mu = 2
    # twice, and 1 + 5X^2 mu = +-i sqrt 5: L_j is real, so every T_j is
    tf = BumpFunction(center=LOG5, width=0.5)
    for q, poly in ((5, [1, 0, -10, 0, 25]), (4, [1, -4, 4]), (5, [1, 0, 5])):
        w = parse_weil_datum({"q": q, "g": len(poly) // 2, "weil_poly": poly})
        rep = verify(w, tf, allow_non_ordinary=True)
        assert rep.passed
        assert all(type(t.value) is float for t in rep.spectral.per_j)


OFF_AXIS_BUMPS = ((LOG5, 0.5, 1.0), (2 * LOG5, 0.6, 1.3), (-LOG5, 0.4, 0.8))


def test_off_axis_classes_vs_symmetric_oracle():
    # (1 - 5X^2)^2: the roots -sqrt 5 sit half a period off the axis, angle
    # beta/2; their sublattices are truncated around +-beta/2 and the traces
    # stay within the certificate of the real oracle value
    model = frobenius_model(NON_ORDINARY)
    roots = model.roots
    assert _angles(model) == (0.0, _period(model) / 2)
    for c, width, amp in OFF_AXIS_BUMPS:
        tf = BumpFunction(center=c, width=width, amplitude=amp)
        for j in range(5):
            r = trace_j(model, [j], tf, budget=0.25)[0]
            want = oracles.symmetric_trace(roots, 5, j, [(c, width, amp)])
            assert want.imag == 0.0 and type(r.value) is float
            assert abs(r.value - want.real) <= r.tail_bound + r.quad_error


@dataclass(frozen=True)
class _Shifted:
    """alpha(t) e^{i theta t}: its ladder from f0 is alpha's ladder from f0 + theta."""
    alpha: object
    theta: float

    @property
    def support(self):
        return self.alpha.support

    def values(self, t):
        return self.alpha.values(t) * np.exp(1j * self.theta * t)


def test_trace_counts_every_sublattice_zero_once():
    # against full ladders theta_S + beta nu, |nu| <= n, of every sublattice
    # from its unreduced base, the sum of the signed angles in S, each its own
    # row; the narrow bump keeps every rung far above quad_error. Each side
    # is off its exact value by its own doubling deltas at most.
    tf = BumpFunction(center=LOG5, width=0.15)
    for w in (G2, NON_ORDINARY):
        model = frobenius_model(w)
        period = _period(model)
        signed = [sign * theta for theta in _angles(model) for sign in (1, -1)]
        for j in range(5):
            r = trace_j(model, [j], tf, budget=0.25)[0]
            n = r.nu_max
            rows = [_Shifted(tf, math.fsum(signed[i] for i in s)) for s in exterior.subsets(4, j)]
            v, e, _ = phi_ladder(stack(rows), [j / 2] * len(rows), -period * n, period, 2 * n + 1)
            want = complex(math.fsum(v.real.ravel().tolist()), math.fsum(v.imag.ravel().tolist()))
            assert abs(r.value - want) <= r.quad_error + math.fsum(e.ravel().tolist())


def test_truncation_budget_drives_nu():
    tf = BumpFunction(center=LOG5, width=0.5)
    loose = trace_j(M1, [1], tf, budget=0.5)[0]
    tight = trace_j(M1, [1], tf, budget=1e-12)[0]
    assert tight.nu_max > loose.nu_max
    assert tight.tail_bound < loose.tail_bound
    for budget in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="budget must be positive"):
            trace_j(M1, [1], tf, budget=budget)
    # the tail falls like e^{-sqrt(w beta n)}: budget 1e-60 plans 10,000
    # rungs and 1e-300 about 2.4e5 (whose ladder pass is over LADDER_CAP;
    # see test_runaway_ladders_are_refused_before_they_run), while a
    # vanishing width needs more rungs than LADDER_CAP at any budget
    beta = 2.0 * math.pi / LOG5
    for budget, rungs in ((1e-60, 10_000), (1e-300, 244_986)):
        assert formula._plan(tf, 1, 1, beta, budget)[1] == rungs
        assert formula._plan(tf, 1, 1, beta, budget)[2] <= budget / 6
    with pytest.raises(TruncationBudgetExceeded, match="cap is"):
        trace_j(M1, [1], BumpFunction(center=LOG5, width=1e-60), budget=0.25)


def test_a_degree_outside_0_to_2g_is_a_value_error():
    # on E/F_5 (2g = 2): C(2, 3) = 0 shares of the budget, comb's own
    # message for j = -1, a negative recurrence index and an empty list of
    # subsets each became a clear refusal naming the range
    tf, t = BumpFunction(center=LOG5, width=0.5), np.linspace(-1.0, 1.0, 5)
    calls = [lambda: trace_j(M1, [3], tf, 0.25), lambda: trace_j(M1, [-1], tf, 0.25),
             lambda: exterior.lefschetz_weight(_angles(M1), 3, t),
             lambda: exterior.lefschetz_weight(_angles(M1), [0, -1], t),
             lambda: exterior.zeros_in_window(M1, 5, 3.0), lambda: exterior.zeros_in_window(M1, -1, 3.0)]
    for call in calls:
        with pytest.raises(ValueError, match=r"outside 0\.\.2g = 0\.\.2"):
            call()
    assert exterior.lefschetz_weight(_angles(M1), [0, 2], t).shape == (2, t.size)
    assert len(exterior.zeros_in_window(M1, 2, 3.0)) == 1


@pytest.mark.parametrize("width", [1e-60, 1e-100, 1e-320])
def test_vanishing_width_raises_a_named_limit(width):
    # B's tail stays above every budget up to LADDER_CAP rungs, or is +inf;
    # never NaN
    tf = BumpFunction(center=0.0, width=width)
    with pytest.raises(TruncationBudgetExceeded):
        trace_j(M1, [0], tf, budget=0.25)
    with pytest.raises(TruncationBudgetExceeded):
        verify(E5A2, tf)


@pytest.mark.parametrize("bump, budget", [
    (BumpFunction(center=1.6, width=0.5, amplitude=1e200), 0.25),  # 109,872 rungs
    (BumpFunction(center=LOG5, width=0.5), 1e-300),  # 245,171 rungs
    (BumpFunction(center=1.6, width=0.5, amplitude=1e55), 0.25),  # 8,642 rungs
])
def test_runaway_ladders_are_refused_before_they_run(monkeypatch, bump, budget):
    # E/F_5 ladders whose first pass alone would take 1.8e11 and 9.0e11
    # points, about 3 and 15 minutes of CPU, and one whose first pass (1.1e9
    # points, about 1 s) fits but whose doubled successor (2.2e9) does not,
    # so that it could never return: refused at once, no pass run
    def run(*args):
        raise AssertionError("a pass over LADDER_CAP ran")

    monkeypatch.setattr(bumps, "_ladder_pass", run)
    start = time.process_time()
    with pytest.raises(TruncationBudgetExceeded, match="LADDER_CAP 2147483648"):
        verify(E5A2, bump, trunc_budget=budget)
    assert time.process_time() - start < 1.0


def test_a_large_amplitude_verifies_inside_the_ladder_cap(monkeypatch):
    # A = 1e50 on E/F_5 plans 7,182 rungs; its last pass, 3 rows x 7,183
    # rungs x 71,424 nodes, is 72 % of LADDER_CAP and runs in about 1.6 s
    sizes = []
    ladder_pass = bumps._ladder_pass

    def sized(rows, sigmas, f0, step, count, panels, lo, hi):
        sizes.append(len(sigmas) * count * panels * bumps.GL_ORDER)
        return ladder_pass(rows, sigmas, f0, step, count, panels, lo, hi)

    monkeypatch.setattr(bumps, "_ladder_pass", sized)
    start = time.process_time()
    rep = verify(E5A2, BumpFunction(center=1.6, width=0.5, amplitude=1e50))
    assert time.process_time() - start < 10.0
    assert rep.passed and [t.nu_max for t in rep.spectral.per_j] == [6957, 7152, 7182]
    assert sizes == [769_557_888, 1_539_115_776] and max(sizes) <= bumps.LADDER_CAP


def test_trace_with_an_infinite_budget_stays_at_the_floor():
    r = trace_j(M1, [1], BumpFunction(center=LOG5, width=0.5), budget=math.inf)[0]
    assert r.nu_max == formula.NU_FLOOR and math.isfinite(r.tail_bound)


@pytest.mark.parametrize("kwargs", [
    {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0},
    {"trunc_budget": math.nan}, {"trunc_budget": -1.0},
])
def test_verify_rejects_bad_tolerances(kwargs):
    with pytest.raises(InputError):
        verify(E5A2, BumpFunction(center=LOG5, width=0.5), **kwargs)


def test_higher_orders_set_nu_max_only_above_the_floor():
    # j = 1 of E/F_5 has 2 sublattices: its tail is twice B's closed-form
    # tail at nu_max, and nu_max is the least rung count past the floor
    # whose sublattice tail is within budget / (2 * 3)
    tf = BumpFunction(center=LOG5, width=0.5)
    tm, beta, rho = tail_majorant(tf, 0.5), 2.0 * math.pi / LOG5, 0.5
    at_floor = trace_j(M1, [1], tf, budget=0.25)[0]
    assert at_floor.nu_max == 300
    assert at_floor.tail_bound == 2 * tm.tail(beta, 300 - rho)
    tight = trace_j(M1, [1], tf, budget=1e-12)[0]
    assert tight.nu_max == 461
    assert tight.tail_bound == 2 * tm.tail(beta, 461 - rho)
    assert tm.tail(beta, 461 - rho) <= 1e-12 / 6 < tm.tail(beta, 460 - rho)


def test_g3_product_verifies_at_budget_1e6():
    w = parse_weil_datum({"q": 5, "g": 3, "weil_poly": [1, -6, 26, -66, 130, -150, 125]})
    rep = verify(w, BumpFunction(center=LOG5, width=0.5), trunc_budget=1e-6)
    assert rep.passed
    assert rep.spectral.tail_bound <= 1e-6
    assert max(t.nu_max for t in rep.spectral.per_j) <= 610


@pytest.mark.parametrize("center, rungs", [(40.0, 378), (44.0, 454)])
def test_far_supports_on_a_small_field_verify_quickly(center, rungs):
    # E/F_2 with the bump far out, where the order-k majorants planned 2,281
    # rungs on j = 2 and the doubling ran 26 s into the node cap. The tail
    # is within budget, but the certificate (1.7e6 and 1.6e8) is the
    # ladder's quad_error on values ~e^{sigma c}, far above the budget 0.25
    start = time.process_time()
    rep = verify(parse_weil_datum({"q": 2, "trace": 1}), BumpFunction(center=center, width=0.5))
    assert time.process_time() - start < 3.0
    assert rep.passed and rep.spectral.tail_bound <= 0.25
    assert [t.nu_max for t in rep.spectral.per_j] == [300, 300, rungs]


def test_spectral_assembly_and_partial():
    tf = BumpFunction(center=LOG5, width=0.5)
    sp = spectral_side_zero_sum(M1, tf, budget=0.25)
    per = {t.j: t.value for t in sp.per_j}
    alt = per[0] - per[1] + per[2]
    assert abs(sp.alternating_full - alt) < 1e-15 * max(1.0, abs(alt))
    assert abs(sp.eq1_partial - (alt - per[0])) < 1e-15
    assert sp.zero_count == sum(t.zero_count for t in sp.per_j)
    assert sp.tail_bound >= max(t.tail_bound for t in sp.per_j)


def test_alternating_sums_are_correctly_rounded():
    # each is one math.fsum of its signed T_j; eq1_partial as full - T_0
    # rounds twice and misses the E/F_5 golden value by 1 ulp
    tf = BumpFunction(center=LOG5, width=0.5)
    sp = spectral_side_zero_sum(M1, tf, budget=0.25)
    assert sp.eq1_partial == 1.7762373594805523 != sp.alternating_full - sp.per_j[0].value
    rng = random.Random(2020)
    for model in (M1, M2):
        for _ in range(6):
            tf = BumpFunction(center=rng.uniform(-3.0, 3.0), width=rng.uniform(0.3, 0.8),
                              amplitude=rng.uniform(0.5, 2.0))
            sp = spectral_side_zero_sum(model, tf, budget=0.25)
            signed = [(-1) ** t.j * Fraction(t.value) for t in sp.per_j]
            assert sp.alternating_full == float(sum(signed))
            assert sp.eq1_partial == float(sum(signed[1:]))


def test_closed_form_examples():
    ct = build_count_table(frobenius_model(E5A2), 4)
    val, terms = spectral_side_closed_form(ct, BumpFunction(center=LOG5, width=0.5))
    assert abs(val - 4 * LOG5 * math.exp(-1)) < 1e-14
    assert [k for k, *_ in terms] == [1]

    val, terms = spectral_side_closed_form(ct, BumpFunction(center=-LOG5, width=0.5))
    assert abs(val - (4 / 5) * LOG5 * math.exp(-1)) < 1e-14
    assert [k for k, *_ in terms] == [-1]
    # k = -1 weight is q^{gk} N_1 = 4/5
    assert abs(terms[0][1] - 0.8) < 1e-14

    val, terms = spectral_side_closed_form(ct, BumpFunction(center=0.0, width=0.5))
    assert val == 0.0 and terms == []


def test_geometric_examples():
    ct = build_count_table(frobenius_model(E5A2), 4)
    geo = geometric_side(ct, BumpFunction(center=LOG5, width=0.5))
    assert abs(geo.total - 4 * LOG5 * math.exp(-1)) < 1e-14
    assert len(geo.cells) == 1
    cell = geo.cells[0]
    assert (cell.k, cell.d, cell.points) == (1, 1, 4)

    # at 2 log 5 the cells (k=2, d=1) and (k=1, d=2) both land: 4 + 2*14 = 32
    geo2 = geometric_side(ct, BumpFunction(center=2 * LOG5, width=0.4))
    assert abs(geo2.total - 32 * LOG5 * math.exp(-1)) < 1e-13
    assert sorted((c.k, c.d, c.points) for c in geo2.cells) == [(1, 2, 14), (2, 1, 4)]

    # negative axis: cell (-1, 1) with weight q^{-g} d a_d = 4/5
    geo3 = geometric_side(ct, BumpFunction(center=-LOG5, width=0.5))
    assert abs(geo3.total - (4 / 5) * LOG5 * math.exp(-1)) < 1e-14
    assert geo3.positive_part == 0.0
    assert abs(geo3.negative_part - geo3.total) == 0.0
    assert geo3.cells[0].k == -1 and abs(geo3.cells[0].weight - 0.8) < 1e-14


def test_geometric_and_closed_form_cells_match_brute_force():
    # support (-3.5, 4.1) straddles 0 and reaches past 2 log 5 on both sides,
    # so cells with k <= -1 and d >= 2 appear
    tf = BumpFunction(center=0.3, width=3.8)
    lo, hi = tf.support
    n_max = 6
    for w, counts in ((E5A2, oracles.trace_counts(2, 5, n_max)),
                      (G2, oracles.product_counts([2, 4], 5, n_max))):
        ct = build_count_table(frobenius_model(w), n_max)
        a = oracles.closed_points(counts)
        want = {}
        for d in range(1, n_max + 1):
            for k in range(-20, 21):
                t = k * d * LOG5
                if k != 0 and lo < t < hi:
                    damping = Fraction(1, w.q ** (w.g * -k * d)) if k < 0 else 1
                    want[k, d] = (t, float(d * a[d - 1] * damping))
        assert any(k < 0 and d >= 2 for k, d in want)
        got = {(c.k, c.d): (c.t, c.weight) for c in geometric_side(ct, tf).cells}
        assert set(got) == set(want)
        for key, (t, weight) in want.items():
            assert math.isclose(got[key][0], t, rel_tol=1e-15)
            assert math.isclose(got[key][1], weight, rel_tol=1e-14)

        _, terms = spectral_side_closed_form(ct, tf)
        want_k = [k for k in range(-20, 21) if k != 0 and lo < k * LOG5 < hi]
        assert [k for k, *_ in terms] == want_k
        for k, coeff, _, _ in terms:
            exact = counts[abs(k) - 1] * (Fraction(1, w.q ** (-w.g * k)) if k < 0 else 1)
            assert math.isclose(coeff, float(exact), rel_tol=1e-14)


def test_geometric_needs_range():
    ct = build_count_table(frobenius_model(E5A2), 1)
    with pytest.raises(InsufficientCountRange):
        geometric_side(ct, BumpFunction(center=2 * LOG5, width=0.4))
    with pytest.raises(InsufficientCountRange):
        spectral_side_closed_form(ct, BumpFunction(center=2 * LOG5, width=0.4))


def test_verify_spec_examples():
    rep = verify(E5A2, BumpFunction(center=LOG5, width=0.5), tol=1e-8)
    assert rep.passed
    want = 4 * LOG5 * math.exp(-1)
    assert abs(rep.geometric.total - want) < 1e-13
    assert abs(rep.spectral.closed_form - want) < 1e-13
    assert abs(rep.spectral.alternating_full - want) < 1e-9
    for r in rep.residuals.values():
        assert r <= rep.allowance

    rep2 = verify(E5A2, BumpFunction(center=2 * LOG5, width=0.4))
    assert rep2.passed
    assert abs(rep2.geometric.total - 32 * LOG5 * math.exp(-1)) < 1e-12

    rep3 = verify(G2, BumpFunction(center=LOG5, width=0.5))
    assert rep3.passed
    assert abs(rep3.geometric.total - 8 * LOG5 * math.exp(-1)) < 1e-13


def test_verify_cancellation():
    # support misses every k log 5: both sides must vanish
    rep = verify(E5A2, BumpFunction(center=0.0, width=0.5))
    assert rep.passed
    assert rep.geometric.total == 0.0
    assert rep.spectral.closed_form == 0.0
    assert abs(rep.spectral.alternating_full) < 1e-9
    # but the individual traces are far from zero: genuine cancellation
    biggest = max(abs(t.value) for t in rep.spectral.per_j)
    assert biggest > 0.5


def test_verify_linearity():
    b1 = BumpFunction(center=LOG5, width=0.5)
    b2 = BumpFunction(center=-LOG5, width=0.5, amplitude=0.7)
    r1 = verify(E5A2, b1)
    r2 = verify(E5A2, b2)
    r12 = verify(E5A2, [b1, b2])
    assert r12.passed
    lhs = r12.spectral.alternating_full
    rhs = r1.spectral.alternating_full + r2.spectral.alternating_full
    assert abs(lhs - rhs) <= (
        r1.certified_budget + r2.certified_budget + r12.certified_budget
    )
    assert abs(r12.geometric.total - r1.geometric.total - r2.geometric.total) < 1e-12


def test_verify_shift_moves_cells():
    rep = verify(E5A2, BumpFunction(center=LOG5, width=0.5))
    shifted = verify(E5A2, BumpFunction(center=2 * LOG5, width=0.5))
    assert rep.passed and shifted.passed
    assert {(c.k, c.d) for c in rep.geometric.cells} == {(1, 1)}
    assert {(c.k, c.d) for c in shifted.geometric.cells} == {(1, 2), (2, 1)}


def test_monotone_truncation():
    tf = BumpFunction(center=LOG5, width=0.5)
    loose = verify(E5A2, tf, trunc_budget=0.25)
    tight = verify(E5A2, tf, trunc_budget=1e-12)
    assert min(t.nu_max for t in tight.spectral.per_j) > formula.NU_FLOOR
    assert tight.certified_budget < loose.certified_budget
    # refining the truncation keeps the discrepancy within the OLD bound
    assert tight.residuals["zero_sum_vs_closed_form"] <= loose.certified_budget


def test_verify_ordinarity_gate():
    w = parse_weil_datum({"q": 5, "g": 1, "weil_poly": [1, 0, 5]})
    with pytest.raises(NonOrdinaryInput):
        verify(w, BumpFunction(center=LOG5, width=0.5))
    rep = verify(w, BumpFunction(center=LOG5, width=0.5), allow_non_ordinary=True)
    assert rep.passed
    assert not rep.ordinarity_is_ordinary
    # N_1 = 1 - 0 + 5 = 6 for the supersingular trace
    assert abs(rep.geometric.total - 6 * LOG5 * math.exp(-1)) < 1e-13


def _shift_angles(monkeypatch, delta):
    # a defect planted on the zero side only: every Frobenius angle that
    # verify reads is moved by delta, while the counts stay exact
    real = formula.frobenius_model
    monkeypatch.setattr(formula, "frobenius_model",
                        lambda w: replace(real(w), angles=tuple(t + delta for t in real(w).angles)))


def test_a_shifted_angle_fails_verify(monkeypatch):
    # at the default tol this bump detects a shift of E/F_5's angle from
    # 1.5e-6; one of 1e-5 moves the zero sum by 2.4e-5 against an allowance
    # of 3.4e-6, and the two count sides still agree
    tf = BumpFunction(center=LOG5, width=0.5)
    assert verify(E5A2, tf).passed
    _shift_angles(monkeypatch, 1e-5)
    rep = verify(E5A2, tf)
    assert not rep.passed
    assert rep.residuals["closed_form_vs_geometric"] <= rep.allowance
    assert rep.residuals["zero_sum_vs_closed_form"] > rep.allowance
    assert rep.residuals["zero_sum_vs_geometric"] > rep.allowance


def test_verify_runs_the_exact_route_once(monkeypatch):
    # parse and every later verify of one datum share one cached decision of
    # the Riemann hypothesis, so repeated ops never pay for it again
    calls = []
    real = weil._real_weil_polynomial
    monkeypatch.setattr(weil, "_real_weil_polynomial",
                        lambda coeffs, q: calls.append((coeffs, q)) or real(coeffs, q))
    weil._weil_roots.cache_clear()
    w = parse_weil_datum({"q": 5, "trace": 2})
    for c in (LOG5, 1.0, 2.0):
        assert verify(w, BumpFunction(center=c, width=0.5)).passed
    assert calls == [((1, -2, 5), 5)]


def test_verify_g5_product():
    # prod (1 - a X + 5X^2), a = 1, 2, 3, 4, -1: verify reads only the roots,
    # so no exterior power of the 10 x 10 companion matrix is built
    w = parse_weil_datum(_product(5, [1, 2, 3, 4, -1]))
    rep = verify(w, BumpFunction(center=LOG5, width=0.5))
    assert rep.passed
    assert len(rep.spectral.per_j) == 11


def test_verify_count_cap():
    w = parse_weil_datum({"q": 2, "trace": 1})
    # support reaching past 64 log 2 would need counts beyond the cap
    with pytest.raises(InsufficientCountRange):
        verify(w, BumpFunction(center=46.0, width=0.5))


def test_support_end_on_a_lattice_time_needs_no_count_past_it():
    # hi = c + w is exactly 65 log 2 in floats: the open support holds
    # k log 2 for |k| <= 64 only, so N_64 suffices and the cap of 64 holds.
    # Both sides are ~4e18 here; a budget of 1e9 is 2.5e-10 of that
    logq = math.log(2)
    tf = BumpFunction(center=65 * logq - 0.5, width=0.5)
    assert tf.support[1] == 65 * logq
    assert formula._support_count_range(tf, 2) == 64
    rep = verify(parse_weil_datum({"q": 2, "trace": 1}), tf, trunc_budget=1e9)
    assert rep.passed
    assert max(c.d for c in rep.geometric.cells) == 64


def test_lattice_times_are_the_open_support_ones():
    # against a brute-force scan, with support ends on, and one ulp either
    # side of, a lattice time
    rng = random.Random(11)
    for _ in range(2000):
        step = math.log(rng.choice([2, 3, 4, 5, 7, 9, 49])) * rng.randint(1, 4)
        ends = sorted(rng.randint(-70, 70) * step for _ in range(2))
        lo, hi = (math.nextafter(x, rng.choice([-math.inf, x, math.inf])) for x in ends)
        brute = [k for k in range(-80, 81) if lo < k * step < hi]
        assert list(formula._lattice_times(lo, hi, step)) == brute
    assert formula._support_count_range(BumpFunction(center=0.0, width=0.5), 5) == 1


def test_verify_report_contents():
    rep = verify(E5A2, BumpFunction(center=LOG5, width=0.5))
    assert rep.datum == E5A2
    assert rep.ordinarity_is_ordinary
    assert set(rep.residuals) == {
        "zero_sum_vs_closed_form",
        "closed_form_vs_geometric",
        "zero_sum_vs_geometric",
    }
    assert rep.allowance == rep.tolerance * (1 + abs(rep.geometric.total)) + rep.certified_budget
    assert rep.wall_time_s > 0
    assert rep.spectral.closed_form is not None


def test_verify_never_enumerates_subsets(monkeypatch):
    # trace_j reads the g angles and C(2g, j); no subset, product or phase
    # of 4^g is formed, so g = 8 verifies as g = 3 does
    def refuse(*args):
        raise AssertionError("subsets enumerated")

    monkeypatch.setattr(exterior, "subsets", refuse)
    tf = BumpFunction(center=LOG5, width=0.5)
    for w in (G3, parse_weil_datum(_product(5, [1, 2, 3, 4, -1, -2, -3, 0]))):
        assert verify(w, tf, allow_non_ordinary=True).passed


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=_weil_products())
@example(doc=_product(49, [14, -14, 0]))  # a = +-2 sqrt q and a = 0
@example(doc=_product(4, [4, 4, -4]))  # mu = 2 twice and -2 twice
@example(doc=_product(27, [3, 3, 3]))  # a repeated factor, q = 3^3
@example(doc=_product(8, [0, 5]))  # q = 2^3
@example(doc=_product(2**61 - 1, [3]))  # j = 2 needs 30,590 rungs, which agree to their phase rounding
def test_valid_weil_products_verify_or_stop_at_a_named_limit(doc):
    # every valid input verifies, or raises a documented limit, within 10 s
    # of CPU: no ladder pass exceeds LADDER_CAP points (about 2 s); a
    # CrossCheckFailure here is a defect
    w = parse_weil_datum(doc)
    start = time.process_time()
    try:
        rep = verify(w, BumpFunction(center=math.log(w.q), width=0.5), allow_non_ordinary=True)
    except (TruncationBudgetExceeded, InsufficientCountRange):
        rep = None
    assert time.process_time() - start < 10.0, doc
    assert rep is None or rep.passed, doc


G8_F5 = _product(5, [1, -1, 2, -2, 3, -3, 4, -4])
LOGQ = math.log(10007)


@pytest.mark.parametrize("doc, bump, cpu", [
    (G8_F5, BumpFunction(55.5 * LOG5, 0.4 * LOG5), 0.1),  # e^{g hi} = e^719.7
    (_product(10007, [1, 2, -3]), BumpFunction(25.5 * LOGQ, 0.4 * LOGQ), 0.1),
    (_product(10007, [1, 2, -3, 5, 7, -11, 13, 17]), BumpFunction(9.5 * LOGQ, 0.4 * LOGQ), 0.1),
    (G8_F5, BumpFunction(55.5 * LOG5, 0.4 * LOG5, 1e-300), 0.1),  # rows finite, e^{sigma t} not
    (G8_F5, BumpFunction(-60.0 * LOG5, 0.4 * LOG5), 1.0),  # float(N_60) of 1,115 bits
], ids=["g8-F5", "g3-F10007", "g8-F10007", "g8-F5-tiny-A", "g8-F5-far-left"])
def test_sides_past_the_double_range_are_refused_up_front(monkeypatch, doc, bump, cpu):
    # each once raised a raw OverflowError (math.exp of the old envelope, or
    # float(N_60)); each is a SidesTooLarge before any ladder pass or float
    # side runs, with no RuntimeWarning, in under 0.1 s of CPU (the last
    # builds the exact N_1..N_60 first, about 0.06 s)
    def run(*args):
        raise AssertionError("a float side ran")

    monkeypatch.setattr(bumps, "_ladder_pass", run)
    for name in ("spectral_side_zero_sum", "spectral_side_closed_form", "geometric_side"):
        monkeypatch.setattr(formula, name, run)
    w = parse_weil_datum(doc)
    start = time.process_time()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SidesTooLarge, match="double range"):
            verify(w, bump, allow_non_ordinary=True)
    assert time.process_time() - start < cpu
    assert issubclass(SidesTooLarge, InputError)


def test_sides_just_inside_the_double_range_verify():
    # c = 54 log 5 on the g = 8 product keeps every row below e^701 and N_54
    # below 2^1004: not refused, and verified with floor-only ladders. At
    # c = -63.5 log 5 the row j = 14 lies among subnormal doubles, and every
    # row agrees between passes only to its phase rounding; the ladder still
    # stops (held to RTOL times its floor alone, it would double on to
    # LADDER_CAP, about 12 s)
    w = parse_weil_datum(G8_F5)
    for c, budget in ((54.0, math.inf), (-63.5, 0.25)):
        start = time.process_time()
        rep = verify(w, BumpFunction(c * LOG5, 0.4 * LOG5), trunc_budget=budget,
                     allow_non_ordinary=True)
        assert rep.passed and time.process_time() - start < 5.0, c

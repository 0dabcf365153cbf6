"""Spectral traces, the three-way identity, and the verification driver."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import oracles
from weilflow import formula
from weilflow.bumps import K_MAX, BumpFunction, combine_bumps, phi, phi_ladder, tail_majorant
from weilflow.counting import build_count_table
from weilflow.errors import (
    FunctionalEquationViolation,
    InputError,
    InsufficientCountRange,
    NonOrdinaryInput,
    TruncationBudgetExceeded,
)
from weilflow.exterior import build_pj_family, zero_lattice
from weilflow.formula import (
    geometric_side,
    spectral_side_closed_form,
    spectral_side_zero_sum,
    trace_j,
    verify,
)
from weilflow.weil import frobenius_model, parse_weil_datum

LOG5 = math.log(5)
E5A2 = parse_weil_datum({"q": 5, "trace": 2})
G2 = parse_weil_datum({"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25]})
G3 = parse_weil_datum({"q": 5, "g": 3, "weil_poly": [1, -6, 26, -66, 130, -150, 125]})
REPEATED = parse_weil_datum({"q": 5, "g": 2, "weil_poly": [1, -4, 14, -20, 25]})


def _lattice(w):
    return zero_lattice(build_pj_family(frobenius_model(w)))


LAT1 = _lattice(E5A2)
LAT2 = _lattice(G2)


def test_trace_j2_closed_form_example():
    # bump at log 5: only k = 1 survives, T_2 = 5 log 5 e^{-1}
    r = trace_j(LAT1, 2, BumpFunction(center=LOG5, width=0.5), budget=0.25)
    want = 5 * LOG5 * math.exp(-1)
    assert abs(r.value - want) < 1e-9
    assert abs(r.value - want) <= r.tail_bound + r.quad_error
    assert r.zero_count == 2 * r.nu_max + 1


def test_trace_j0_poisson_identity():
    # support inside (-log 5, log 5): the ladder must resum to log 5 alpha(0)
    r = trace_j(LAT1, 0, BumpFunction(center=0.0, width=0.5), budget=0.25)
    want = LOG5 * oracles.ALPHA_AT_0
    assert abs(r.value - want) < 1e-9


def test_trace_imaginary_parts_certified():
    tf = combine_bumps([BumpFunction(center=0.9, width=0.6, amplitude=1.3),
                        BumpFunction(center=-2.0, width=0.4)])
    for lat in (LAT1, LAT2):
        for j in range(2 * lat.g + 1):
            r = trace_j(lat, j, tf, budget=0.25)
            assert r.value.imag == 0.0


def test_trace_all_j_vs_symmetric_oracle():
    rng = random.Random(77)
    for w, lat in ((E5A2, LAT1), (G2, LAT2)):
        roots = frobenius_model(w).roots
        for _ in range(3):
            c = rng.uniform(-2.5, 2.5)
            width = rng.uniform(0.3, 0.7)
            amp = rng.uniform(0.5, 2.0)
            tf = BumpFunction(center=c, width=width, amplitude=amp)
            for j in range(2 * w.g + 1):
                r = trace_j(lat, j, tf, budget=0.25)
                want = oracles.symmetric_trace(roots, w.q, j, [(c, width, amp)])
                assert abs(r.value - want) <= r.tail_bound + r.quad_error + 1e-9 * (
                    1 + abs(want)
                )
                # the certified bound is crude; the floor of 300 rungs per
                # ladder makes the actual agreement far tighter
                assert abs(r.value - want) < 1e-8 * (1 + abs(want))


def test_trace_all_j_vs_symmetric_oracle_past_the_floor():
    # at budget 1e-6 the g = 3 product's ladders run past the 300-zero floor
    bump = (LOG5, 0.5, 1.0)
    tf = BumpFunction(center=LOG5, width=0.5)
    for w, longest in ((REPEATED, 300), (G3, 324)):
        roots = frobenius_model(w).roots
        lat = _lattice(w)
        per = [trace_j(lat, j, tf, budget=1e-6) for j in range(2 * w.g + 1)]
        assert max(r.nu_max for r in per) == longest
        for r in per:
            want = oracles.symmetric_trace(roots, w.q, r.j, [bump])
            assert abs(r.value - want) <= r.tail_bound + r.quad_error + 1e-9 * (1 + abs(want))
            assert abs(r.value - want) < 1e-8 * (1 + abs(want))


def test_ladder_work_per_verify(monkeypatch):
    # one 301-point half-ladder row per class, all classes of one j as rows
    # of one call: E/F_5 has 1 + 2 + 1 classes, 1,204 points in 3 calls, and
    # the g = 3 product 25 conjugate pairs and 4 real classes, 54 rows or
    # 16,254 points in 7 calls (one call per ladder took 29, one ladder per
    # sublattice 64 x 601 points)
    calls = []
    ladder = formula.phi_ladder

    def counting(tf, sigma, f0, step, count):
        calls.append(np.size(f0) * count)
        return ladder(tf, sigma, f0, step, count)

    monkeypatch.setattr(formula, "phi_ladder", counting)
    for w, points, n_calls in ((E5A2, 1204, 3), (G3, 16254, 7)):
        calls.clear()
        assert verify(w, BumpFunction(center=LOG5, width=0.5), trunc_budget=1.0).passed
        assert (sum(calls), len(calls)) == (points, n_calls)


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
    # (1 - 5X^2)^2 has mu = +-sqrt 5, twice each: the classes holding -sqrt 5
    # are self-conjugate but sit half a period off the axis, so their traces
    # keep an imaginary part; 1 + 5X^2 (mu = +-i sqrt 5) pairs up fully
    tf = BumpFunction(center=LOG5, width=0.5)
    for poly, off_axis in (([1, 0, -10, 0, 25], True), ([1, 0, 5], False)):
        w = parse_weil_datum({"q": 5, "g": len(poly) // 2, "weil_poly": poly})
        rep = verify(w, tf, allow_non_ordinary=True)
        assert rep.passed
        lat = _lattice(w)
        for t in rep.spectral.per_j:
            if not any(c.partner == i and not c.real for i, c in enumerate(lat.classes[t.j])):
                assert t.value.imag == 0.0
        assert off_axis == any(t.value.imag != 0.0 for t in rep.spectral.per_j)


NON_ORDINARY = parse_weil_datum({"q": 5, "g": 2, "weil_poly": [1, 0, -10, 0, 25]})
OFF_AXIS_BUMPS = ((LOG5, 0.5, 1.0), (2 * LOG5, 0.6, 1.3), (-LOG5, 0.4, 0.8))


def _off_axis(lat, j):
    return [i for i, c in enumerate(lat.classes[j]) if c.partner == i and not c.real]


def test_off_axis_classes_vs_symmetric_oracle():
    # (1 - 5X^2)^2: the classes holding -sqrt 5 are rows from |theta| = beta/2
    # whose top rung counts once; the truncated trace's imaginary part is the
    # unpaired rungs' and stays within the certificate of the real oracle value
    lat = _lattice(NON_ORDINARY)
    roots = frobenius_model(NON_ORDINARY).roots
    assert any(_off_axis(lat, j) for j in range(5))
    for c, width, amp in OFF_AXIS_BUMPS:
        tf = BumpFunction(center=c, width=width, amplitude=amp)
        for j in range(5):
            r = trace_j(lat, j, tf, budget=0.25)
            want = oracles.symmetric_trace(roots, 5, j, [(c, width, amp)])
            assert want.imag == 0.0
            assert abs(r.value.real - want.real) <= r.tail_bound + r.quad_error
            assert abs(r.value.imag) <= r.tail_bound + r.quad_error


def test_trace_counts_every_sublattice_zero_once():
    # against full ladders theta_S + beta k, k = -n..n, of every sublattice
    # of lat.exps, without the classes; the narrow bump keeps every rung, an
    # off-axis row's top rung included, far above quad_error
    tf = BumpFunction(center=LOG5, width=0.15)
    for w in (G2, NON_ORDINARY):
        lat = _lattice(w)
        for j in range(5):
            r = trace_j(lat, j, tf, budget=0.25)
            starts = np.array([s.imag for s in lat.exps[j]]) - lat.period * r.nu_max
            v, _, _ = phi_ladder(tf, j / 2, starts, lat.period, 2 * r.nu_max + 1)
            want = complex(math.fsum(v.real.ravel().tolist()), math.fsum(v.imag.ravel().tolist()))
            assert abs(r.value - want) <= r.quad_error


def test_conjugating_off_axis_classes_conjugates_the_trace():
    # theta -> -theta leaves an off-axis row at |theta| and flips the sign its
    # top rung's imaginary part enters with: Re T_j bitwise equal, Im negated
    lat = _lattice(NON_ORDINARY)
    flipped = replace(lat, classes=tuple(
        tuple(replace(c, exponent=c.exponent.conjugate()) if i in _off_axis(lat, j) else c
              for i, c in enumerate(classes))
        for j, classes in enumerate(lat.classes)
    ))
    moved = 0
    for c, width, amp in OFF_AXIS_BUMPS:
        tf = BumpFunction(center=c, width=width, amplitude=amp)
        for j in range(5):
            r, s = trace_j(lat, j, tf, budget=0.25), trace_j(flipped, j, tf, budget=0.25)
            assert s.value.real == r.value.real and s.value.imag == -r.value.imag
            moved += r.value.imag != 0.0
    assert moved


def test_truncation_budget_drives_nu():
    tf = BumpFunction(center=LOG5, width=0.5)
    loose = trace_j(LAT1, 1, tf, budget=0.5)
    tight = trace_j(LAT1, 1, tf, budget=5e-3)
    assert tight.nu_max >= loose.nu_max
    assert tight.tail_bound < loose.tail_bound or loose.tail_bound == 0.0
    # at budget 1e-60 every order needs more than NU_CAP zeros
    with pytest.raises(TruncationBudgetExceeded, match="cap is"):
        trace_j(LAT1, 1, tf, budget=1e-60)


@pytest.mark.parametrize("width", [1e-60, 1e-100, 1e-320])
def test_vanishing_width_raises_a_named_limit(width):
    # the majorants overflow or underflow to M_k = inf; need is never NaN
    tf = BumpFunction(center=0.0, width=width)
    with pytest.raises(TruncationBudgetExceeded):
        trace_j(LAT1, 0, tf, budget=0.25)
    with pytest.raises(TruncationBudgetExceeded):
        verify(E5A2, tf)


def test_trace_with_an_infinite_budget_stays_at_the_floor():
    r = trace_j(LAT1, 1, BumpFunction(center=LOG5, width=0.5), budget=math.inf)
    assert r.nu_max == formula.NU_FLOOR and math.isfinite(r.tail_bound)


@pytest.mark.parametrize("kwargs", [
    {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0},
    {"trunc_budget": math.nan}, {"trunc_budget": -1.0},
])
def test_verify_rejects_bad_tolerances(kwargs):
    with pytest.raises(InputError):
        verify(E5A2, BumpFunction(center=LOG5, width=0.5), **kwargs)


def test_higher_orders_set_nu_max_only_above_the_floor():
    tf = BumpFunction(center=LOG5, width=0.5)
    at_floor = trace_j(LAT1, 1, tf, budget=0.25)
    assert (at_floor.nu_max, at_floor.order) == (300, 2)
    assert at_floor.majorant == tail_majorant(tf, 0.5).m
    tight = trace_j(LAT1, 1, tf, budget=1e-12)
    assert tight.order == K_MAX and tight.nu_max == 1025
    assert tight.majorant == tail_majorant(tf, 0.5, K_MAX).m
    assert tight.tail_bound <= 1e-12 / 3


def test_g3_product_verifies_at_budget_1e6():
    # order 2 alone needs ~2.9e9 zeros per sublattice here
    w = parse_weil_datum({"q": 5, "g": 3, "weil_poly": [1, -6, 26, -66, 130, -150, 125]})
    rep = verify(w, BumpFunction(center=LOG5, width=0.5), trunc_budget=1e-6)
    assert rep.passed
    assert rep.spectral.tail_bound <= 1e-6
    assert max(t.nu_max for t in rep.spectral.per_j) <= 610


def test_spectral_assembly_and_partial():
    tf = BumpFunction(center=LOG5, width=0.5)
    sp = spectral_side_zero_sum(LAT1, tf, budget=0.25)
    per = {t.j: t.value for t in sp.per_j}
    alt = per[0] - per[1] + per[2]
    assert abs(sp.alternating_full - alt) < 1e-15 * max(1.0, abs(alt))
    assert abs(sp.eq1_partial - (alt - per[0])) < 1e-15
    assert sp.zero_count == sum(t.zero_count for t in sp.per_j)
    assert sp.tail_bound >= max(t.tail_bound for t in sp.per_j)


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
    tight = verify(E5A2, tf, trunc_budget=0.01)
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


def test_functional_equation_violation_names_the_tolerance(monkeypatch):
    monkeypatch.setattr(formula, "functional_equation_check", lambda fam: (False, 2e-8))
    with pytest.raises(FunctionalEquationViolation, match=r"off by 2e-08 \(tolerance 1e-8\)$"):
        verify(E5A2, BumpFunction(center=LOG5, width=0.5))


def test_verify_count_cap():
    w = parse_weil_datum({"q": 2, "trace": 1})
    # support reaching past 64 log 2 would need counts beyond the cap
    with pytest.raises(InsufficientCountRange):
        verify(w, BumpFunction(center=46.0, width=0.5))


def test_verify_report_contents():
    rep = verify(E5A2, BumpFunction(center=LOG5, width=0.5))
    assert rep.datum == E5A2
    assert rep.ordinarity_is_ordinary
    assert rep.functional_equation_deviation < 1e-8
    assert set(rep.residuals) == {
        "zero_sum_vs_closed_form",
        "closed_form_vs_geometric",
        "zero_sum_vs_geometric",
    }
    assert rep.allowance == rep.tolerance * (1 + abs(rep.geometric.total)) + rep.certified_budget
    assert rep.wall_time_s > 0
    assert rep.spectral.closed_form is not None

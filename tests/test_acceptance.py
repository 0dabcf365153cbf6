"""Acceptance suite.

Ten criteria, one test each, each printing a single PASS line when it
holds. Criteria 1 and 3 share one battery of seeded random verification
runs so the timing budget is paid once.
"""

import json
import math
import random
import time

import pytest

import oracles
from weilflow import (
    BumpFunction,
    build_count_table,
    companion_matrix,
    fixed_point_groups,
    frobenius_model,
    parse_weil_datum,
    phi,
    verify,
    zeros_in_window,
)
from weilflow.cli import main
from weilflow.intlinalg import det_bareiss

from test_weil import CORPUS

LOG5 = math.log(5)
E5A2 = parse_weil_datum({"q": 5, "trace": 2})
G2_SURFACE = parse_weil_datum({"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25]})
SEED = 20260816


@pytest.fixture(scope="module")
def battery():
    """Ten verification runs on E/F_5 (trace 2) with seeded random bumps.

    Supports are kept inside [-4, 4] by capping the width at 4 - |center|.
    """
    rng = random.Random(SEED)
    runs = []
    for _ in range(10):
        c = rng.uniform(-3.3, 3.3)
        w = rng.uniform(0.2, min(0.65, 4.0 - abs(c)))
        a = rng.uniform(0.5, 2.0)
        tf = BumpFunction(center=c, width=w, amplitude=a)
        lo, hi = tf.support
        assert -4.0 <= lo < hi <= 4.0
        t0 = time.perf_counter()
        rep = verify(E5A2, tf)
        runs.append((tf, rep, time.perf_counter() - t0))
    return runs


def test_criterion_1_random_bump_battery(battery):
    for tf, rep, wall in battery:
        allowed = 1e-6 * (1 + abs(rep.geometric.total)) + rep.certified_budget
        resid = rep.residuals["zero_sum_vs_geometric"]
        assert resid <= allowed, (tf.center, tf.width, resid, allowed)
        assert rep.passed
        assert wall < 10.0, f"run took {wall:.2f}s"
    worst = max(r.residuals["zero_sum_vs_geometric"] for _, r, _ in battery)
    slowest = max(w for *_, w in battery)
    print(
        f"PASS criterion 1: 10 random-bump runs, worst residual {worst:.3e}, "
        f"slowest run {slowest:.2f}s"
    )


def test_criterion_2_cancellation_window():
    # support (-0.6, 1.2) sits inside (-1.5, 1.5) and misses every k log 5
    tf = BumpFunction(center=0.3, width=0.9)
    lo, hi = tf.support
    assert -1.5 < lo < hi < 1.5
    assert hi < LOG5 and lo > -LOG5
    rep = verify(E5A2, tf)
    assert abs(rep.spectral.alternating_full) < 1e-6
    assert abs(rep.geometric.total) < 1e-6
    assert rep.spectral.zero_count >= 1000
    print(
        f"PASS criterion 2: cancellation window, zero sum "
        f"{abs(rep.spectral.alternating_full):.3e}, "
        f"{rep.spectral.zero_count} zeros"
    )


def test_criterion_3_three_way_agreement(battery):
    for _, rep, _ in battery:
        assert rep.residuals["zero_sum_vs_closed_form"] <= rep.certified_budget
        # the closed form and the orbit sum share the integer tables, so
        # they may differ only by summation order and quadrature error
        scale = 1 + abs(rep.geometric.total)
        assert rep.residuals["closed_form_vs_geometric"] <= (
            rep.spectral.quad_error + 1e-12 * scale
        )
    ct = build_count_table(frobenius_model(E5A2), 20)
    for n in range(1, 21):
        total = sum(
            d * ct.closed_points[d - 1] for d in range(1, n + 1) if n % d == 0
        )
        assert total == ct.counts[n - 1]
    print("PASS criterion 3: zero sum vs closed form vs orbit sum, "
          "divisor identity exact to n=20")


def test_criterion_4_orbit_fixed_point_match():
    cases = [{"q": 5, "trace": a} for a in range(1, 5)]
    cases += [{"q": 7, "trace": a} for a in range(1, 6)]
    cases += [{"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25]}]
    checked = 0
    for doc in cases:
        model = frobenius_model(parse_weil_datum(doc))
        ct = build_count_table(model, 12)
        groups = fixed_point_groups(model, ct)
        # independent route: the oracle's Mobius inversion of the Smith
        # normal form orders, each the product of its divisors; b_nu = a_nu
        orders = [math.prod(divisors) for divisors in groups]
        assert oracles.closed_points(orders) == list(ct.closed_points)
        assert orders == list(ct.counts)
        checked += len(orders)
    print(f"PASS criterion 4: orbit counts match closed points, "
          f"{checked} (input, step) pairs")


def test_criterion_5_determinant_weight():
    for doc in CORPUS:
        w = parse_weil_datum(doc)
        assert det_bareiss(companion_matrix(w)) == w.q**w.g
    print(f"PASS criterion 5: det F = q^g exact on {len(CORPUS)} inputs")


def test_criterion_6_critical_lines():
    total = 0
    for doc in CORPUS:
        w = parse_weil_datum(doc)
        model = frobenius_model(w)
        for j in range(2 * w.g + 1):
            for _, rho in zeros_in_window(model, j, 12.0):
                assert rho.real == j / 2
                total += 1
    print(f"PASS criterion 6: {total} enumerated zeros on their critical lines")


def test_criterion_7_functional_equation():
    # parse checks c_{2g-k} = q^{g-k} c_k exactly; the float zero symmetry
    # s -> g - s of the zeros zeros_in_window lists is the oracle's
    worst = 0.0
    for doc in CORPUS:
        w = parse_weil_datum(doc)
        assert all(w.coeffs[2 * w.g - k] == w.q ** (w.g - k) * w.coeffs[k] for k in range(w.g))
        dev = oracles.zero_symmetry_deviation(frobenius_model(w), zeros_in_window)
        assert dev <= oracles.FE_TOLERANCE, doc
        worst = max(worst, dev)
    print(f"PASS criterion 7: functional equation on all inputs, "
          f"worst deviation {worst:.3e}")


def test_criterion_8_transform_reference_value():
    raw = phi(BumpFunction(), 0.0).value
    assert abs(raw.imag) < 1e-15
    value = raw.real
    assert abs(value - 0.443994) <= 1e-6
    assert abs(value - oracles.PHI0_STANDARD) < 1e-12
    assert abs(value - oracles.simpson_phi(0.0, [(0.0, 1.0, 1.0)])) < 1e-10
    print(f"PASS criterion 8: transform at 0 is {value:.6f} against the "
          f"Simpson oracle")


def test_criterion_9_ordinarity_gate(tmp_path):
    path = tmp_path / "ss.json"
    path.write_text(json.dumps({"q": 5, "g": 1, "weil_poly": [1, 0, 5]}))
    argv = ["verify", "--input", str(path), "--alpha", "c=1.6094,w=0.5",
            "--format", "json"]
    import io
    from contextlib import redirect_stderr, redirect_stdout

    with redirect_stderr(io.StringIO()) as errbuf:
        assert main(argv) == 1  # rejected without the flag
    assert "NonOrdinaryInput" in errbuf.getvalue()

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv + ["--allow-non-ordinary"])
    assert rc == 0
    doc = json.loads(buf.getvalue())
    assert doc["pass"] is True
    allowed = 1e-6 * (1 + abs(doc["geometric"]["total"])) + doc["certified_budget"]
    assert all(float(r) <= allowed for r in doc["residuals"].values())
    print("PASS criterion 9: supersingular input gated, then verified "
          "under the override flag")


def test_criterion_10_surface_verify():
    tf = [BumpFunction(center=LOG5, width=0.5),
          BumpFunction(center=-0.7, width=0.5, amplitude=1.2)]
    t0 = time.perf_counter()
    rep = verify(G2_SURFACE, tf)
    wall = time.perf_counter() - t0
    assert wall < 60.0
    assert rep.passed
    allowed = 1e-6 * (1 + abs(rep.geometric.total)) + rep.certified_budget
    assert rep.residuals["zero_sum_vs_geometric"] <= allowed
    print(f"PASS criterion 10: abelian surface verified in {wall:.2f}s, "
          f"{rep.spectral.zero_count} zeros")

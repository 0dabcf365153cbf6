"""Exterior powers, the P_j family, zeros in a window, functional equation."""

import cmath
import json
import math
import re
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from test_weil import CORPUS
from weilflow import exterior
from weilflow.cli import main
from weilflow.errors import CrossCheckFailure, DimensionTooLarge
from weilflow.exterior import (
    build_pj_family,
    exterior_power_matrix,
    subsets,
    zeros_in_window,
)
from weilflow.weil import companion_matrix, frobenius_model, parse_weil_datum

E5A2 = {"q": 5, "trace": 2}
G2_PRODUCT = {"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25]}
G3_PRODUCT = {"q": 5, "g": 3, "weil_poly": [1, -6, 26, -66, 130, -150, 125]}
REPEATED = {"q": 5, "g": 2, "weil_poly": [1, -4, 14, -20, 25]}  # (1 - 2X + 5X^2)^2
PLUS_MINUS = {"q": 5, "g": 2, "weil_poly": [1, 0, 9, 0, 25]}  # (1 - X + 5X^2)(1 + X + 5X^2)


def _model(doc):
    return frobenius_model(parse_weil_datum(doc))


def _family(doc):
    return build_pj_family(_model(doc))


def _period(model):
    return 2 * math.pi / math.log(model.datum.q)


def _angles(model):
    return tuple(theta / math.log(model.datum.q) for theta in model.angles)


def test_subsets_lexicographic():
    assert list(subsets(4, 2)) == list(combinations(range(4), 2))
    assert list(subsets(3, 0)) == [()]


def test_exterior_matrix_small_cases():
    f = [[0, -5], [1, 2]]
    assert exterior_power_matrix(f, 1) == f
    assert exterior_power_matrix(f, 0) == [[1]]
    assert exterior_power_matrix(f, 2) == [[5]]


def test_exterior_matrix_trace_is_e2():
    # trace of the second exterior power = e_2 of eigenvalues; check against
    # the coefficient c_2 of the g=2 characteristic polynomial
    lam2 = exterior_power_matrix(companion_matrix(parse_weil_datum(G2_PRODUCT)), 2)
    assert sum(lam2[i][i] for i in range(6)) == 18


def test_family_g1():
    fam = _family(E5A2)
    assert fam.polys == ((1, -1), (1, -2, 5), (1, -5))


def test_family_g2_exact_polys():
    # frozen by hand from pairwise Gaussian-integer products of
    # {1+2i, 1-2i, 2+i, 2-i}
    fam = _family(G2_PRODUCT)
    assert fam.polys[0] == (1, -1)
    assert fam.polys[1] == (1, -6, 18, -30, 25)
    assert fam.polys[2] == (1, -18, 155, -900, 3875, -11250, 15625)
    assert fam.polys[3] == (1, -30, 450, -3750, 15625)
    assert fam.polys[4] == (1, -25)


def test_family_g2_lambda_multiset():
    fam = _family(G2_PRODUCT)
    got = sorted(
        (round(z.real, 8), round(z.imag, 8)) for z in fam.products[2]
    )
    expected = sorted([(0.0, 5.0), (0.0, -5.0), (4.0, 3.0), (4.0, -3.0), (5.0, 0.0), (5.0, 0.0)])
    assert got == expected


def test_family_degrees_and_pins():
    for doc in CORPUS:
        fam = _family(doc)
        g = fam.g
        assert len(fam.polys) == 2 * g + 1
        for j, poly in enumerate(fam.polys):
            assert len(poly) - 1 == math.comb(2 * g, j)
        assert fam.polys[0] == (1, -1)
        assert fam.polys[-1] == (1, -fam.q ** g)


def test_family_vs_sympy_charpoly():
    # independent exact route: sympy charpoly of the exterior matrix,
    # reversed into the inverse-root convention; j > g checks the P_j that
    # build_pj_family takes from the functional equation
    for doc in (G2_PRODUCT, G3_PRODUCT):
        m = _model(doc)
        fam = build_pj_family(m)
        for j in range(2 * fam.g + 1):
            lam = exterior_power_matrix(companion_matrix(m.datum), j)
            asc = oracles.sympy_charpoly_ascending(lam)
            assert list(fam.polys[j]) == list(reversed(asc))


def test_complement_poly_is_exact_and_checked():
    # P_1 of E/F_5 is its own partner; P_4 of the g = 2 product from P_0
    assert exterior._complement_poly((1, -2, 5), 5, 1, 1) == (1, -2, 5)
    assert exterior._complement_poly((1, -1), 5, 2, 4) == (1, -25)
    with pytest.raises(CrossCheckFailure, match=re.escape("P_2 coefficient 1: -6 q^1 not divisible by 4")):
        exterior._complement_poly((1, -6, 4), 5, 1, 2)


def test_lambda_moduli():
    for doc in CORPUS:
        fam = _family(doc)
        for j, level in enumerate(fam.products):
            for lam in level:
                assert abs(abs(lam) - fam.q ** (j / 2)) <= 1e-8 * fam.q ** (j / 2)


def test_functional_equation_examples():
    dev = oracles.zero_symmetry_deviation(_model(E5A2), zeros_in_window)
    assert dev < 1e-12
    # hand identity: 1 - log_5(1+2i) = log_5(1-2i) mod the vertical period
    logq = math.log(5)
    lhs = 1 - cmath.log(1 + 2j) / logq
    rhs = cmath.log(1 - 2j) / logq
    period = 2 * math.pi / logq
    diff = (lhs - rhs).imag % period
    assert min(diff, period - diff) < 1e-12 and abs((lhs - rhs).real) < 1e-12


def test_complements_are_reverse_lex():
    # oracles.zero_symmetry_deviation pairs the k-th j-subset with the k-th
    # (n - j)-subset from the end
    for n in range(13):
        for j in range(n + 1):
            comps = [tuple(sorted(set(range(n)) - set(s))) for s in subsets(n, j)]
            assert comps == subsets(n, n - j)[::-1]


def test_functional_equation_corpus():
    for doc in CORPUS:
        dev = oracles.zero_symmetry_deviation(_model(doc), zeros_in_window)
        assert dev < oracles.FE_TOLERANCE, doc


def test_zero_lattice_window_examples():
    model = _model(E5A2)
    period = 2 * math.pi / math.log(5)

    z2 = zeros_in_window(model, 2, 0.0)
    assert len(z2) == 1
    assert abs(z2[0][1] - 1.0) < 1e-12  # log_5 5 = 1

    z0 = zeros_in_window(model, 0, 4.0)
    ims = sorted(rho.imag for _, rho in z0)
    assert len(z0) == 3
    assert abs(ims[0] + period) < 1e-12
    assert abs(ims[1]) < 1e-12
    assert abs(ims[2] - period) < 1e-12
    for _, rho in z0:
        assert abs(rho.real) < 1e-12


def test_zeros_on_critical_lines():
    for doc in CORPUS:
        model = _model(doc)
        for j in range(2 * model.datum.g + 1):
            for _, rho in zeros_in_window(model, j, 12.0):
                assert rho.real == j / 2


def test_window_count_density():
    model = _model(G2_PRODUCT)
    t = 25.0
    for j in range(5):
        n = len(zeros_in_window(model, j, t))
        c = math.comb(4, j)
        density = 2 * c * t * math.log(5) / (2 * math.pi)
        assert abs(n - density) <= 2 * c  # O(1) per sublattice


def test_window_sorted_and_tagged():
    zs = zeros_in_window(_model(G2_PRODUCT), 2, 9.0)
    ims = [rho.imag for _, rho in zs]
    assert ims == sorted(ims)
    assert all(0 <= idx < 6 for idx, _ in zs)


def test_k0_cancellation_and_power_sums():
    # sum_j (-1)^j sum_S lambda_S^k equals prod_i (1 - mu_i^k): ties the
    # exterior family to the point counts
    for doc in (E5A2, G2_PRODUCT):
        w = parse_weil_datum(doc)
        m = frobenius_model(w)
        fam = build_pj_family(m)
        for k in (0, 1, 2, 3):
            total = 0j
            for j, level in enumerate(fam.products):
                total += (-1) ** j * sum(lam ** k for lam in level)
            direct = 1 + 0j
            for mu in m.roots:
                direct *= 1 - mu ** k
            assert abs(total - direct) < 1e-6 * max(1.0, abs(direct))


def test_dimension_cap():
    # (1 + q X^2)^g is a valid Weil polynomial; zeta's exact route refuses
    # every g > 5, while the zeros of one j need only that j's subsets
    q = 2
    for g in (6, 9):
        coeffs = [0] * (2 * g + 1)
        for k in range(g + 1):
            coeffs[2 * k] = math.comb(g, k) * q ** k
        m = frobenius_model(parse_weil_datum({"q": q, "g": g, "weil_poly": coeffs}))
        with pytest.raises(DimensionTooLarge, match=r"^zeta \(build_pj_family\): g = %d exceeds the cap 5$" % g):
            build_pj_family(m)
        assert len(zeros_in_window(m, 1, _period(m) / 2)) == 2 * g


@st.composite
def _weil_products(draw):
    # prod (1 - a X + q X^2), |a| <= 2 sqrt q, g <= 3: repeated factors, a = 0
    # and p | a (supersingular) and a = +-2 sqrt q (real roots) all occur
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 25, 27, 49]))
    bound = math.isqrt(4 * q)
    traces = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=3))
    poly = [1]
    for a in traces:
        nxt = [0] * (len(poly) + 2)
        for i, c in enumerate(poly):
            for k, f in enumerate((1, -a, q)):
                nxt[i + k] += c * f
        poly = nxt
    return {"q": q, "g": len(traces), "weil_poly": poly}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(doc=_weil_products())
def test_conjugation_builds_the_zero_lattice(doc):
    # includes draws such as (1 - X + 49X^2)(1 + X + 49X^2) that build_pj_family's
    # fixed 1e-8 cross-check rejects (ROADMAP item 6); the lattice never runs it
    model = _model(doc)
    assert Counter(model.roots) == Counter(mu.conjugate() for mu in model.roots)
    period, angles = _period(model), _angles(model)
    phases = sorted(abs(cmath.phase(mu)) for mu in model.roots)
    assert phases[::2] == phases[1::2]  # real roots +-sqrt q come twice each
    assert len(angles) == model.datum.g
    assert all(0.0 <= theta <= period / 2 for theta in angles)
    # {1/2 +- i theta_i} is the j = 1 lattice, modulo the period
    def off(z):
        return abs(complex(z.real, z.imag - period * round(z.imag / period)))

    bases = [complex(0.5, sign * theta) for theta in angles for sign in (1, -1)]
    ladders = dict(zeros_in_window(model, 1, period / 2))  # one zero per root at least
    assert sorted(ladders) == list(range(2 * model.datum.g))
    for s in ladders.values():
        nearest = min(bases, key=lambda b: off(b - s))
        assert off(nearest - s) < 1e-9
        bases.remove(nearest)


@pytest.mark.parametrize("doc", CORPUS + [G3_PRODUCT, {"q": 5, "g": 2, "weil_poly": [1, 0, -10, 0, 25]}])
def test_lefschetz_weight_is_e_j_of_the_angles(doc):
    # L_j(t) against e_j of {e^{+-i theta_i t}}, by the oracle's product expansion
    angles = _angles(_model(doc))
    n = 2 * len(angles)
    rng = np.random.default_rng(11)
    t = np.concatenate(([0.0], rng.uniform(-30.0, 30.0, 24)))
    weights = [exterior.lefschetz_weight(angles, j, t) for j in range(n + 1)]
    for j, lj in enumerate(weights):
        assert lj.dtype == float and lj.shape == t.shape
        assert lj[0] == math.comb(n, j)
        for x, got in zip(t, lj):
            phases = [cmath.exp(sign * 1j * theta * x) for theta in angles for sign in (1, -1)]
            want = oracles.elementary_symmetric(phases, j)
            assert abs(got - want) < 1e-12 * math.comb(n, j)
            assert abs(got) <= math.comb(n, j) * (1 + 1e-15)
    # the leafwise Lefschetz number
    lefschetz = np.prod([2.0 - 2.0 * np.cos(theta * t) for theta in angles], axis=0)
    alternating = sum((-1) ** j * lj for j, lj in enumerate(weights))
    assert np.all(np.abs(alternating - lefschetz) < 1e-12 * 2**n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=_weil_products())
@example(doc={"q": 4, "g": 3, "weil_poly": [1, 4, 12, 32, 48, 64, 64]})  # (1 + 2X)^2 (1 + 4X^2)^2: mu = -2 twice
def test_zeros_in_window_match_the_root_products(doc):
    # the summed phases against the phase of prod_{i in S} mu_i, modulo the
    # period; a window of half a period holds a zero of every ladder
    model = _model(doc)
    period = _period(model)
    for j in range(2 * model.datum.g + 1):
        want = oracles.subset_product_ims(model.roots, model.datum.q, j)
        zs = zeros_in_window(model, j, period / 2)
        assert {idx for idx, _ in zs} == set(range(len(want)))
        for idx, s in zs:
            assert s.real == j / 2
            k = round((s.imag - want[idx]) / period)
            assert abs(math.fsum([s.imag, -want[idx], -period * k])) <= 2e-15, (doc, j, idx)


def test_window_membership_is_exact():
    # a zero is listed iff its float |Im s| is <= height: with height on a
    # zero's Im it and its conjugate's zero are in, one ulp below both are out
    model = _model(G3_PRODUCT)
    for j in (1, 3, 4):
        zs = zeros_in_window(model, j, 10.0)
        idx, s = max(zs, key=lambda z: abs(z[1].imag))
        height = abs(s.imag)
        at = zeros_in_window(model, j, height)
        assert (idx, s) in at and at == zeros_in_window(model, j, math.nextafter(height, math.inf))
        below = zeros_in_window(model, j, math.nextafter(height, 0.0))
        assert (idx, s) not in below and len(below) == len(at) - 2
        assert all(abs(z.imag) <= height for _, z in at)


def test_tied_zeros_come_in_subset_order():
    # with the roots -t3 < -t2 < -t1 < t1 < t2 < t3 by phase, the 4-subsets
    # 5, 7 and 10 are two conjugate pairs each; their phases cancel exactly
    # (the phase of subset 7's product is 2.2e-17)
    zs = zeros_in_window(_model(G3_PRODUCT), 4, 0.0)
    assert zs == ((5, 2 + 0j), (7, 2 + 0j), (10, 2 + 0j))
    assert all(math.copysign(1.0, s.imag) == 1.0 for _, s in zs)


def _spectrum_orders(path, capsys) -> list:
    # (j, subset) in listing order, from each of spectrum's three formats
    orders = []
    for fmt in ("json", "csv", "text"):
        assert main(["spectrum", "--input", str(path), "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            rows = [(z["j"], z["subset"]) for z in json.loads(out)["zeros"]]
        elif fmt == "csv":
            rows = [tuple(map(int, line.split(",")[:2])) for line in out.splitlines()[1:] if line]
        else:
            rows = [tuple(map(int, r)) for r in re.findall(r"j=(\d+) S#(\d+)", out)]
        orders.append(rows)
    return orders


def test_tie_order_survives_phase_noise(tmp_path, capsys, monkeypatch):
    # traces 1 and -1: theta_{-1} = pi - theta_1, so the 2-subsets 0 and 5,
    # {-theta_{-1}, -theta_1} and {theta_1, theta_{-1}}, meet at Im s =
    # period/2 + nu period only in exact arithmetic. Every phase moved by 2
    # ulps either way leaves the listing as it is, in every format.
    path = tmp_path / "plus_minus.json"
    path.write_text(json.dumps(PLUS_MINUS))
    roots = _model(PLUS_MINUS).roots  # the roots are cached from here on
    orders = _spectrum_orders(path, capsys)
    want = orders[0]
    assert orders == [want] * 3
    ties = [i for i, row in enumerate(want) if row == (2, 0)]
    assert len(ties) == 6 and all(want[i + 1] == (2, 5) for i in ties)
    phase = cmath.phase
    for signs in product((-2, 2), repeat=len(roots)):
        nudge = dict(zip(roots, signs))
        monkeypatch.setattr(cmath, "phase", lambda z: phase(z) + nudge.get(z, 0) * math.ulp(phase(z)))
        assert _spectrum_orders(path, capsys) == [want] * 3, signs

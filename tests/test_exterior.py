"""Exterior powers, the P_j family, zero lattices, functional equation."""

import cmath
import math
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_weil import CORPUS
from weilflow.errors import CrossCheckFailure, DimensionTooLarge
from weilflow.exterior import (
    PjFamily,
    build_pj_family,
    exterior_power_matrix,
    functional_equation_check,
    subsets,
    zero_lattice,
    zeros_in_window,
)
from weilflow.weil import RH_TOLERANCE, frobenius_model, parse_weil_datum

E5A2 = {"q": 5, "trace": 2}
G2_PRODUCT = {"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25]}
G3_PRODUCT = {"q": 5, "g": 3, "weil_poly": [1, -6, 26, -66, 130, -150, 125]}
REPEATED = {"q": 5, "g": 2, "weil_poly": [1, -4, 14, -20, 25]}  # (1 - 2X + 5X^2)^2


def _family(doc):
    return build_pj_family(frobenius_model(parse_weil_datum(doc)))


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
    w = parse_weil_datum(G2_PRODUCT)
    m = frobenius_model(w)
    lam2 = exterior_power_matrix(m.matrix, 2)
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
    # reversed into the inverse-root convention
    w = parse_weil_datum(G2_PRODUCT)
    m = frobenius_model(w)
    for j in (2, 3):
        lam = exterior_power_matrix(m.matrix, j)
        asc = oracles.sympy_charpoly_ascending(lam)
        fam = build_pj_family(m)
        assert list(fam.polys[j]) == list(reversed(asc))


def test_lambda_moduli():
    for doc in CORPUS:
        fam = _family(doc)
        for j, level in enumerate(fam.products):
            for lam in level:
                assert abs(abs(lam) - fam.q ** (j / 2)) <= 1e-8 * fam.q ** (j / 2)


def test_functional_equation_examples():
    fam = _family(E5A2)
    ok, dev = functional_equation_check(fam)
    assert ok and dev < 1e-12
    # hand identity: 1 - log_5(1+2i) = log_5(1-2i) mod the vertical period
    logq = math.log(5)
    lhs = 1 - cmath.log(1 + 2j) / logq
    rhs = cmath.log(1 - 2j) / logq
    period = 2 * math.pi / logq
    diff = (lhs - rhs).imag % period
    assert min(diff, period - diff) < 1e-12 and abs((lhs - rhs).real) < 1e-12


def test_complements_are_reverse_lex():
    # functional_equation_check pairs the k-th j-subset with the k-th
    # (n - j)-subset from the end
    for n in range(13):
        for j in range(n + 1):
            comps = [tuple(sorted(set(range(n)) - set(s))) for s in subsets(n, j)]
            assert comps == subsets(n, n - j)[::-1]


def test_functional_equation_corpus():
    for doc in CORPUS:
        ok, dev = functional_equation_check(_family(doc))
        assert ok, doc
        assert dev < 1e-8


def test_zero_lattice_window_examples():
    lat = zero_lattice(_family(E5A2))
    period = 2 * math.pi / math.log(5)
    assert abs(lat.period - period) < 1e-15

    z2 = zeros_in_window(lat, 2, 0.0)
    assert len(z2) == 1
    assert abs(z2[0][1] - 1.0) < 1e-12  # log_5 5 = 1

    z0 = zeros_in_window(lat, 0, 4.0)
    ims = sorted(rho.imag for _, rho in z0)
    assert len(z0) == 3
    assert abs(ims[0] + period) < 1e-12
    assert abs(ims[1]) < 1e-12
    assert abs(ims[2] - period) < 1e-12
    for _, rho in z0:
        assert abs(rho.real) < 1e-12


def test_zeros_on_critical_lines():
    for doc in CORPUS:
        fam = _family(doc)
        lat = zero_lattice(fam)
        for j in range(2 * fam.g + 1):
            for _, rho in zeros_in_window(lat, j, 12.0):
                assert abs(rho.real - j / 2) < 1e-9


def test_window_count_density():
    lat = zero_lattice(_family(G2_PRODUCT))
    t = 25.0
    for j in range(5):
        n = len(zeros_in_window(lat, j, t))
        c = math.comb(4, j)
        density = 2 * c * t * math.log(5) / (2 * math.pi)
        assert abs(n - density) <= 2 * c  # O(1) per sublattice


def test_window_sorted_and_tagged():
    lat = zero_lattice(_family(G2_PRODUCT))
    zs = zeros_in_window(lat, 2, 9.0)
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
    # (1 + q X^2)^9 is a valid Weil polynomial for g = 9; the exterior stage
    # must refuse it
    q, g = 2, 9
    coeffs = [0] * (2 * g + 1)
    for k in range(g + 1):
        coeffs[2 * k] = math.comb(g, k) * q ** k
    w = parse_weil_datum({"q": q, "g": g, "weil_poly": coeffs})
    m = frobenius_model(w)
    with pytest.raises(DimensionTooLarge):
        build_pj_family(m)


def _fully_paired(roots, q, s):
    # S splits into pairs {mu, q/mu}: greedy matching on root values, no pairing table
    left = list(s)
    while left:
        i = left.pop(0)
        match = [k for k in left if abs(roots[k] - q / roots[i]) < 1e-6]
        if not match:
            return False
        left.remove(match[0])
    return True


@pytest.mark.parametrize("doc", [E5A2, G2_PRODUCT, G3_PRODUCT, REPEATED],
                         ids=["e5a2", "g2", "g3", "repeated"])
def test_zero_classes(doc):
    w = parse_weil_datum(doc)
    model = frobenius_model(w)
    lat = zero_lattice(build_pj_family(model))
    n = 2 * w.g
    for j, classes in enumerate(lat.classes):
        assert sum(c.weight for c in classes) == math.comb(n, j)
        assert sorted(k for c in classes for k in c.members) == list(range(math.comb(n, j)))
        paired = {k for k, s in enumerate(subsets(n, j)) if _fully_paired(model.roots, w.q, s)}
        real = [c for c in classes if c.real]
        assert len(real) == (1 if paired else 0)
        for c in real:
            assert set(c.members) == paired
            assert c.exponent.real == j / 2 and c.exponent.imag == 0.0
        for i, c in enumerate(classes):
            for k in c.members:
                d = lat.exps[j][k] - c.exponent
                d_im = d.imag - lat.period * round(d.imag / lat.period)
                assert abs(d.real) < 1e-9 and abs(d_im) < 1e-9
            if c.real:
                assert c.partner == i
                continue
            partner = classes[c.partner]
            assert c.partner != i and partner.partner == i
            assert partner.weight == c.weight
            assert partner.exponent == c.exponent.conjugate()


def test_zero_class_ladders_per_j():
    # one ladder per conjugate pair of classes plus the real class's half ladder
    def ladders(doc):
        lat = zero_lattice(_family(doc))
        return [sum(c.partner >= i for i, c in enumerate(cs)) for cs in lat.classes]

    assert ladders(E5A2) == [1, 1, 1]
    assert ladders(G2_PRODUCT) == [1, 2, 3, 2, 1]
    # mu, mu repeated: the j = 2 subsets {mu, mu} and {mu, mu'} share a class
    assert ladders(REPEATED) == [1, 1, 2, 1, 1]
    assert ladders(G3_PRODUCT) == [1, 3, 7, 7, 7, 3, 1]


def test_zero_classes_real_roots():
    # mu = 2 twice: the j = 1 class is real, based at 1/2 exactly
    lat = zero_lattice(_family({"q": 4, "g": 1, "weil_poly": [1, -4, 4]}))
    assert [(c.weight, c.real, c.exponent) for c in lat.classes[1]] == [(2, True, 0.5)]
    # mu = -2 twice: self-conjugate, but based half a period off the axis
    lat = zero_lattice(_family({"q": 4, "g": 1, "weil_poly": [1, 4, 4]}))
    (c,) = lat.classes[1]
    assert (c.weight, c.real, c.partner) == (2, False, 0)
    assert abs(abs(c.exponent.imag) - lat.period / 2) < 1e-12


def test_corrupted_pairing_raises():
    fam = _family(G3_PRODUCT)
    j1 = list(fam.products[1])
    j1[0] *= 1 + 1e-10  # lambda of {mu_0} off mu_0: the class tolerance is rounding only
    with pytest.raises(CrossCheckFailure, match="off its class exponent"):
        zero_lattice(replace(fam, products=(fam.products[0], tuple(j1)) + fam.products[2:]))
    j2 = list(fam.products[2])
    pair = next(k for k, (a, b) in enumerate(subsets(6, 2))
                if fam.roots[a] == fam.roots[b].conjugate())
    j2[pair] *= 1 + 1e-7  # |lambda| of a pair {mu, conj mu} off q beyond RH_TOLERANCE
    with pytest.raises(CrossCheckFailure, match="off its class exponent"):
        zero_lattice(replace(fam, products=fam.products[:2] + (tuple(j2),) + fam.products[3:]))

    e5 = _family(E5A2)
    mu = e5.roots[0]
    # one ulp off the exact conjugate, then a repeated value without its conjugate copy
    for roots in ((mu, complex(mu.real, math.nextafter(-mu.imag, 0.0))), (mu, mu)):
        with pytest.raises(CrossCheckFailure, match="not closed under complex conjugation"):
            zero_lattice(replace(e5, roots=roots))
    rep_fam = _family(REPEATED)
    with pytest.raises(CrossCheckFailure, match="not closed under complex conjugation"):
        zero_lattice(replace(rep_fam, roots=rep_fam.roots[:3] + rep_fam.roots[:1]))


def _family_from_roots(q, roots):
    # the products exactly as build_pj_family forms them, with no polys
    n = len(roots)
    products = tuple(
        tuple(math.prod((roots[i] for i in s), start=complex(1.0)) for s in subsets(n, j))
        for j in range(n + 1)
    )
    return PjFamily(q=q, g=n // 2, polys=(), products=products, roots=tuple(roots))


@pytest.mark.parametrize("delta, accepted", [(0.9 * RH_TOLERANCE, True), (1.5 * RH_TOLERANCE, False)])
def test_class_tolerance_is_the_rh_tolerance(delta, accepted):
    # roots with |mu|^2 = q (1 + delta): a pair moves Re s by log(1 + delta) / log q,
    # a lone sqrt q in the real class by half that; parse admits delta <= RH_TOLERANCE
    s = math.sqrt(1 + delta)
    for q, roots in ((5, (complex(s, -2 * s), complex(s, 2 * s))), (4, (2 * s, 2 * s))):
        fam = _family_from_roots(q, [complex(mu) for mu in roots])
        if accepted:
            zero_lattice(fam)
        else:
            with pytest.raises(CrossCheckFailure, match="off its class exponent"):
                zero_lattice(fam)


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
    # products as build_pj_family forms them, but without its exact P_j stage:
    # that stage's fixed 1e-8 cross-check rejects valid draws such as
    # (1 - X + 49X^2)(1 + X + 49X^2) (ROADMAP item 6)
    fam = _family_from_roots(doc["q"], frobenius_model(parse_weil_datum(doc)).roots)
    n = len(fam.roots)
    assert Counter(fam.roots) == Counter(mu.conjugate() for mu in fam.roots)
    lat = zero_lattice(fam)
    for j, classes in enumerate(lat.classes):
        assert sum(c.weight for c in classes) == math.comb(n, j)
        for i, c in enumerate(classes):
            if c.real:
                continue
            partner = classes[c.partner]
            assert partner.weight == c.weight and partner.partner == i
            d = partner.exponent - c.exponent.conjugate()
            # a self-conjugate class sits at theta = +-beta/2, its own conjugate mod the period
            assert d == 0 if c.partner != i else (
                d.real == 0 and abs(abs(d.imag) - lat.period) < 1e-12)

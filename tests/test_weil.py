"""Input parsing, validation, the companion model, and root refinement."""

import cmath
import math
from collections import Counter

import pytest

import oracles
import weilflow.weil
from weilflow.errors import (
    BadLength,
    BadNormalization,
    CrossCheckFailure,
    InputError,
    NotPrimePower,
    RiemannHypothesisViolation,
)
from weilflow.intlinalg import charpoly, det_bareiss
from weilflow.weil import (
    check_ordinary,
    companion_matrix,
    WeilDatum,
    compute_roots,
    frobenius_model,
    parse_weil_datum,
    prime_power_decompose,
)

# inputs the whole suite agrees to accept; criterion-style checks iterate it
CORPUS = [
    {"q": 5, "trace": 1},
    {"q": 5, "trace": 2, "label": "E/F5 a=2"},
    {"q": 5, "trace": 3},
    {"q": 5, "trace": 4},
    {"q": 5, "trace": -2},
    {"q": 7, "trace": 1},
    {"q": 7, "trace": 2},
    {"q": 7, "trace": 3},
    {"q": 7, "trace": 4},
    {"q": 7, "trace": 5},
    {"q": 2, "trace": 1},
    {"q": 9, "trace": 5},
    {"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25], "label": "E(2)xE(4)/F5"},
    {"q": 5, "g": 2, "weil_poly": [1, -4, 14, -20, 25], "label": "E(2)^2/F5"},
    {"q": 3, "g": 2, "weil_poly": [1, -3, 8, -9, 9]},
    {"q": 4, "g": 1, "weil_poly": [1, -4, 4]},  # mu = 2 twice; not ordinary
    {"q": 49, "g": 1, "weil_poly": [1, -14, 49]},  # mu = 7 twice; not ordinary
]


def test_prime_power_decompose():
    assert prime_power_decompose(5) == (5, 1)
    assert prime_power_decompose(4) == (2, 2)
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(49) == (7, 2)
    assert prime_power_decompose(3 ** 7) == (3, 7)
    for bad in (6, 12, 100, 1, 0, -5):
        with pytest.raises(NotPrimePower):
            prime_power_decompose(bad)


def test_parse_basic():
    w = parse_weil_datum({"q": 5, "g": 1, "weil_poly": [1, -2, 5]})
    assert (w.q, w.p, w.f, w.g) == (5, 5, 1, 1)
    assert w.coeffs == (1, -2, 5)
    assert w.middle_coefficient == -2


def test_parse_trace_shorthand():
    w = parse_weil_datum({"q": 5, "trace": 2})
    assert w.coeffs == (1, -2, 5)
    assert w.g == 1
    w = parse_weil_datum({"q": 7, "trace": -3})
    assert w.coeffs == (1, 3, 7)


def test_parse_rejections():
    with pytest.raises(RiemannHypothesisViolation):
        parse_weil_datum({"q": 5, "g": 1, "weil_poly": [1, -5, 5]})
    with pytest.raises(NotPrimePower):
        parse_weil_datum({"q": 6, "g": 1, "weil_poly": [1, -2, 6]})
    with pytest.raises(BadLength):
        parse_weil_datum({"q": 5, "g": 1, "weil_poly": [1, -2]})
    with pytest.raises(BadNormalization):
        parse_weil_datum({"q": 5, "g": 1, "weil_poly": [1, -2, 4]})
    with pytest.raises(BadNormalization):
        parse_weil_datum({"q": 5, "g": 1, "weil_poly": [2, -2, 5]})
    with pytest.raises(InputError):
        parse_weil_datum({"q": 5})
    with pytest.raises(InputError):
        parse_weil_datum({"q": 5, "g": 1, "weil_poly": [1, -2.5, 5]})
    with pytest.raises(InputError):
        parse_weil_datum({"q": 5, "g": True, "weil_poly": [1, -2, 5]})
    with pytest.raises(InputError):
        parse_weil_datum(["not", "a", "dict"])
    # traces violating |a| <= 2 sqrt(q) fail the root modulus check
    with pytest.raises(RiemannHypothesisViolation):
        parse_weil_datum({"q": 5, "trace": 5})


def test_model_rejects_hand_built_datum_off_the_critical_circle():
    # bypasses parse_weil_datum: the model's own root check must still fire
    w = WeilDatum(q=5, p=5, f=1, g=1, coeffs=(1, -5, 5))
    with pytest.raises(RiemannHypothesisViolation):
        frobenius_model(w)


def test_round_trip():
    for doc in CORPUS:
        w = parse_weil_datum(doc)
        again = parse_weil_datum(w.to_document())
        assert again == w


def test_companion_hand_value():
    w = parse_weil_datum({"q": 5, "trace": 2})
    f = companion_matrix(w)
    assert f == [[0, -5], [1, 2]]
    assert det_bareiss(f) == 5


def test_companion_reproduces_charpoly():
    for doc in CORPUS:
        w = parse_weil_datum(doc)
        f = companion_matrix(w)
        assert charpoly(f) == list(reversed(w.coeffs))


def test_companion_det_is_qg():
    # exact determinant identity for every accepted input
    for doc in CORPUS:
        w = parse_weil_datum(doc)
        assert det_bareiss(companion_matrix(w)) == w.q ** w.g


def test_roots_gaussian_values():
    w = parse_weil_datum({"q": 5, "trace": 2})
    roots, precision = compute_roots(w)
    assert precision < 1e-13 * math.sqrt(5)
    assert roots[1] == roots[0].conjugate()  # partners are exact conjugates
    got = sorted(frobenius_model(w).roots, key=lambda z: z.imag)
    assert abs(got[0] - (1 - 2j)) < 1e-12
    assert abs(got[1] - (1 + 2j)) < 1e-12
    w4 = parse_weil_datum({"q": 5, "trace": 4})
    got = sorted(frobenius_model(w4).roots, key=lambda z: z.imag)
    assert abs(got[0] - (2 - 1j)) < 1e-12
    assert abs(got[1] - (2 + 1j)) < 1e-12


def _conjugate_matching(roots):
    # each root's partner: the first unmatched index holding its exact conjugate
    match = [-1] * len(roots)
    for i, mu in enumerate(roots):
        if match[i] < 0:
            k = next(k for k, nu in enumerate(roots) if match[k] < 0 and nu == mu.conjugate())
            match[i], match[k] = k, i
    return tuple(match)


def test_root_pairing_and_moduli():
    for doc in CORPUS:
        w = parse_weil_datum(doc)
        m = frobenius_model(w)
        # the multiset is closed under exact conjugation, copies included
        assert Counter(m.roots) == Counter(mu.conjugate() for mu in m.roots)
        for mu in m.roots:
            assert abs(abs(mu) ** 2 - w.q) <= 1e-9 * w.q
            # so the partner q/mu is the conjugate
            assert abs(mu.conjugate() - w.q / mu) < 1e-8 * math.sqrt(w.q)


@pytest.mark.parametrize("doc, pairing", [
    # (1 - 2X + 5X^2)^2: roots 1 - 2i, 1 - 2i, 1 + 2i, 1 + 2i, copies paired one to one
    ({"q": 5, "g": 2, "weil_poly": [1, -4, 14, -20, 25]}, (2, 3, 0, 1)),
    # (1 - 2X)^2 over F_4: mu = 2 = q/mu, each copy its own partner
    ({"q": 4, "g": 1, "weil_poly": [1, -4, 4]}, (0, 1)),
])
def test_repeated_root_pairing(doc, pairing):
    roots, _ = compute_roots(parse_weil_datum(doc))
    assert _conjugate_matching(roots) == pairing


def test_roots_not_closed_under_conjugation_raise(monkeypatch):
    # one ulp off the exact conjugate is a different root value
    nudged = (complex(1.0, -2.0), complex(1.0, math.nextafter(2.0, 3.0)))
    monkeypatch.setattr(weilflow.weil, "_refined_roots", lambda coeffs, q: (nudged, 0.0))
    with pytest.raises(CrossCheckFailure, match="not closed under complex conjugation"):
        compute_roots(parse_weil_datum({"q": 5, "trace": 2}))


def test_wrong_root_multiset_fails_vieta(monkeypatch):
    # closed under conjugation and on |mu| = sqrt 5, but the roots of
    # 1 - 4X + 5X^2, not of the input 1 - 2X + 5X^2
    wrong = (complex(2.0, -1.0), complex(2.0, 1.0))
    monkeypatch.setattr(weilflow.weil, "_refined_roots", lambda coeffs, q: (wrong, 0.0))
    with pytest.raises(CrossCheckFailure, match=r"^coefficient 1 of prod\(1 - mu X\) is \(-4"):
        frobenius_model(parse_weil_datum({"q": 5, "trace": 2}))


@pytest.mark.parametrize("drift, accepted", [(0.5, True), (3.0, False)])
def test_vieta_tolerance_is_the_refinement_accuracy(monkeypatch, drift, accepted):
    # scaling both roots of 1 - 2X + 5X^2 by 1 + drift * REFINE_FACTOR moves
    # e_1 by drift * REFINE_FACTOR * |e_1|, against REFINE_FACTOR * 2 sqrt 5
    # allowed; |mu|^2 stays well inside RH_TOLERANCE
    scale = 1 + drift * weilflow.weil.REFINE_FACTOR
    roots = (complex(scale, -2 * scale), complex(scale, 2 * scale))
    monkeypatch.setattr(weilflow.weil, "_refined_roots", lambda coeffs, q: (roots, 0.0))
    w = parse_weil_datum({"q": 5, "trace": 2})
    if accepted:
        assert frobenius_model(w).roots == roots
    else:
        with pytest.raises(CrossCheckFailure, match="^coefficient 1 of prod"):
            frobenius_model(w)


def test_repeated_roots_refine_cleanly():
    # (1 - 2X + 5X^2)^2: raw eigenvalue estimates are sqrt(eps)-accurate at
    # a double root, refinement against the square-free part must recover
    w = parse_weil_datum({"q": 5, "g": 2, "weil_poly": [1, -4, 14, -20, 25]})
    m = frobenius_model(w)
    for mu in m.roots:
        assert min(abs(mu - (1 + 2j)), abs(mu - (1 - 2j))) < 1e-10
    w2 = parse_weil_datum({"q": 4, "g": 1, "weil_poly": [1, -4, 4]})
    m2 = frobenius_model(w2)
    for mu in m2.roots:
        assert abs(mu - 2) < 1e-10


def test_root_order_deterministic():
    for doc in CORPUS:
        w = parse_weil_datum(doc)
        a = frobenius_model(w).roots
        b = frobenius_model(w).roots
        assert list(a) == list(b)
        phases = [cmath.phase(mu) for mu in a]
        assert all(x <= y + 1e-12 for x, y in zip(phases, phases[1:]))


def test_float_product_matches_middle_sum():
    # prod mu_i = q^g from the refined roots
    for doc in CORPUS:
        w = parse_weil_datum(doc)
        m = frobenius_model(w)
        prod = 1 + 0j
        for mu in m.roots:
            prod *= mu
        assert abs(prod - w.q ** w.g) < 1e-8 * w.q ** w.g


def test_check_ordinary():
    assert check_ordinary(parse_weil_datum({"q": 5, "trace": 2})).is_ordinary
    v = check_ordinary(parse_weil_datum({"q": 5, "g": 1, "weil_poly": [1, 0, 5]}))
    assert not v.is_ordinary
    assert v.middle_coefficient == 0
    assert v.p_valuation is None
    v2 = check_ordinary(parse_weil_datum({"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25]}))
    assert v2.is_ordinary and v2.middle_coefficient == 18 and v2.p_valuation == 0
    v3 = check_ordinary(parse_weil_datum({"q": 4, "g": 1, "weil_poly": [1, -4, 4]}))
    assert not v3.is_ordinary
    assert v3.p_valuation == 2  # c_1 = -4 = -2^2


def test_label_round_trip_and_default():
    w = parse_weil_datum({"q": 5, "trace": 2, "label": "E/F5 a=2"})
    assert w.label == "E/F5 a=2"
    assert parse_weil_datum({"q": 5, "trace": 2}).label == ""

"""Input parsing, validation, the companion model, and the exact roots."""

import cmath
import math
import random
from collections import Counter

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import weilflow.weil
from weilflow.errors import (
    BadLength,
    BadNormalization,
    FieldTooLarge,
    InputError,
    NotPrimePower,
    RiemannHypothesisViolation,
)
from weilflow.intlinalg import charpoly, det_bareiss
from weilflow.weil import (
    Q_CAP,
    check_ordinary,
    companion_matrix,
    WeilDatum,
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


def test_prime_power_decompose_large_q():
    # exact integer f-th roots and Miller-Rabin, no trial division up to sqrt q
    m61 = 2**61 - 1
    assert prime_power_decompose(m61) == (m61, 1)
    assert prime_power_decompose(1_000_003**3) == (1_000_003, 3)
    assert prime_power_decompose(2**81) == (2, 81)
    assert prime_power_decompose((2**31 - 1) ** 2) == (2**31 - 1, 2)
    # strong pseudoprimes to the bases 2..7 and 2..37, and semiprimes
    for bad in (3215031751, 318665857834031151167461, 3 * m61, (2**31 - 1) * (2**19 - 1), Q_CAP - 1):
        with pytest.raises(NotPrimePower):
            prime_power_decompose(bad)
    for big in (Q_CAP, 2**1100):
        with pytest.raises(FieldTooLarge, match="Q_CAP"):
            prime_power_decompose(big)
    assert parse_weil_datum({"q": m61, "trace": 1}).p == m61
    with pytest.raises(FieldTooLarge):
        parse_weil_datum({"q": 2**1100, "trace": 1})


def test_miller_rabin_matches_sympy():
    rng = random.Random(61)
    draws = [*range(2000), *(rng.randrange(Q_CAP) for _ in range(2000)),
             *(sympy.randprime(2**40, 2**41) for _ in range(100))]
    assert [weilflow.weil._is_prime(n) for n in draws] == [sympy.isprime(n) for n in draws]


def test_parse_basic():
    w = parse_weil_datum({"q": 5, "g": 1, "weil_poly": [1, -2, 5]})
    assert (w.q, w.p, w.f, w.g) == (5, 5, 1, 1)
    assert w.coeffs == (1, -2, 5)
    assert w.middle_coefficient == -2
    # an integral float is an integer
    w = parse_weil_datum({"q": 5.0, "g": 1, "weil_poly": [1, -2.0, 5]})
    assert (w.q, w.coeffs) == (5, (1, -2, 5)) and all(type(c) is int for c in (w.q, *w.coeffs))


def test_parse_trace_shorthand():
    w = parse_weil_datum({"q": 5, "trace": 2})
    assert w.coeffs == (1, -2, 5)
    assert w.g == 1
    w = parse_weil_datum({"q": 7, "trace": -3})
    assert w.coeffs == (1, 3, 7)


def test_trace_shorthand_refuses_a_second_form():
    # "trace" is the g = 1 shorthand: beside "weil_poly" or another "g" the
    # document says two things, and neither is silently dropped
    for doc, keys in (({"q": 5, "g": 2, "trace": 1}, ("'trace'", "'g'")),
                      ({"q": 5, "g": 1, "trace": 2, "weil_poly": [1, -2, 5]},
                       ("'trace'", "'weil_poly'"))):
        with pytest.raises(InputError) as err:
            parse_weil_datum(doc)
        assert all(key in str(err.value) for key in keys), err.value
    for doc in ({"q": 5, "trace": 2}, {"q": 5, "g": 1, "trace": 2}):
        assert parse_weil_datum(doc).coeffs == (1, -2, 5)


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
    for doc, message in (
        ({"g": 1, "weil_poly": [1, -2, 5]}, "lacks 'q'"),
        ({"q": 5, "trace": 2, "label": 7}, "label must be a string"),
        ({"q": 5, "weil_poly": [1, -2, 5]}, "lacks 'g'"),
        ({"q": 5, "g": 0, "weil_poly": [1]}, "g must be >= 1"),
        ({"q": 5, "g": 1, "weil_poly": "1, -2, 5"}, "weil_poly must be a list"),
    ):
        with pytest.raises(InputError, match=message):
            parse_weil_datum(doc)
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
    model = frobenius_model(w)
    roots = model.roots
    assert model.precision == 0.0  # h = x - 2 has the exact float root 2
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
    roots = frobenius_model(parse_weil_datum(doc)).roots
    assert _conjugate_matching(roots) == pairing


def test_repeated_roots_refine_cleanly():
    # (1 - 2X + 5X^2)^2: h = (x - 2)^2, whose square-free part x - 2 gives
    # the double root exactly
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
    # prod mu_i = q^g from the float roots
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


# The exact Riemann hypothesis: h with T^g h(T + q/T) = char(T) must have
# every root real in [-2 sqrt q, 2 sqrt q]. Inputs are built from factors of
# h: x - a gives the factor 1 - aX + qX^2 of P, x^2 + bx + c gives
# 1 + bX + (2q + c)X^2 + bqX^3 + q^2 X^4.
FIELDS = [2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 3**5]


def _p_factor(f, q):
    if len(f) == 2:
        return [1, f[0], q]
    c, b, _ = f
    return [1, b, 2 * q + c, b * q, q * q]


def _product_doc(q, h_factors):
    poly = [1]
    for f in h_factors:
        factor = _p_factor(f, q)
        nxt = [0] * (len(poly) + len(factor) - 1)
        for i, c in enumerate(poly):
            for k, d in enumerate(factor):
                nxt[i + k] += c * d
        poly = nxt
    return {"q": q, "g": (len(poly) - 1) // 2, "weil_poly": poly}


def _inside(f, q):
    """Every root of x^2 + bx + c real in [-2 sqrt q, 2 sqrt q], exactly:
    real roots, the vertex inside, and f(+-2 sqrt q) = 4q + c +- 2b sqrt q >= 0."""
    c, b, _ = f
    return b * b >= 4 * c and b * b <= 16 * q and 4 * q + c >= 0 and (4 * q + c) ** 2 >= 4 * b * b * q


@st.composite
def _weil_factors(draw):
    # x - a with |a| <= 2 sqrt q (a = 0, and a = +-2 sqrt q for square q,
    # included) and real-rooted quadratics, repeats allowed
    q = draw(st.sampled_from(FIELDS))
    bound = math.isqrt(4 * q)
    linear = st.integers(-bound, bound).map(lambda a: [-a, 1])
    quadratic = st.tuples(st.integers(-bound, bound), st.integers(-4 * q, 4 * q)).map(
        lambda bc: [bc[1], bc[0], 1]).filter(lambda f: _inside(f, q))
    factors = draw(st.lists(st.one_of(linear, quadratic), min_size=1, max_size=3))
    if draw(st.booleans()):
        factors.append(factors[0])
    return q, factors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=_weil_factors())
@example(drawn=(4, [[-4, 1], [4, 1], [4, 1]]))  # a = +-2 sqrt q: mu = 2, -2, -2
@example(drawn=(49, [[14, 1], [0, 1]]))  # a = -14 = -2 sqrt 49, and a = 0
@example(drawn=(5, [[-20, 0, 1], [-20, 0, 1]]))  # (1 - 5X^2)^4: h = (x^2 - 20)^2
@example(drawn=(5, [[-19, 0, 1]]))  # x^2 - 19, roots just inside +-2 sqrt 5
@example(drawn=(3**5, [[-971, 0, 1]]))  # x^2 - (4q - 1)
def test_exact_rh_accepts_weil_polynomials(drawn):
    q, factors = drawn
    doc = _product_doc(q, factors)
    model = frobenius_model(parse_weil_datum(doc))
    assert Counter(model.roots) == Counter(mu.conjugate() for mu in model.roots)
    assert all(mu.imag != 0 or mu in (complex(math.sqrt(q)), complex(-math.sqrt(q)))
               for mu in model.roots)  # the real roots are exactly +-sqrt q
    assert model.angles == tuple(sorted(abs(cmath.phase(mu)) for mu in model.roots)[::2])
    want = oracles.weil_angles(q, factors)
    assert len(model.angles) == len(want) == model.datum.g
    for theta, exact in zip(model.angles, want):
        # the proven radius, plus the rounding of Im mu and of the phase
        err = float(abs(theta - exact))
        assert err <= model.precision + 4 * math.ulp(math.pi), (theta, exact)
        assert err <= 1.1e-13


@st.composite
def _non_weil_factors(draw):
    # one factor of h off [-2 sqrt q, 2 sqrt q]: a complex pair, an integer
    # just past 2 sqrt q, or x^2 - (4q + k) with roots just past +-2 sqrt q
    q, factors = draw(_weil_factors())
    bound = math.isqrt(4 * q)
    kind = draw(st.sampled_from(["complex", "integer", "quadratic"]))
    if kind == "complex":
        b = draw(st.integers(-bound, bound))
        bad = [draw(st.integers(b * b // 4 + 1, b * b // 4 + 4 * q)), b, 1]
    elif kind == "integer":
        bad = [draw(st.sampled_from([-1, 1])) * (bound + 1), 1]
    else:
        bad = [-4 * q - draw(st.integers(1, 3)), 0, 1]
    return q, factors[:draw(st.integers(0, len(factors)))] + [bad]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=_non_weil_factors())
def test_exact_rh_rejects_non_weil_polynomials(drawn):
    # each input satisfies the functional equation, so h decides
    q, factors = drawn
    with pytest.raises(RiemannHypothesisViolation, match=r"^\d+ of the \d+ roots of the factor "):
        parse_weil_datum(_product_doc(q, factors))


def test_real_weil_polynomial_is_the_product_of_its_factors():
    # h = prod (x - a_i) for prod (1 - a_i X + q X^2): the Dickson route
    # against the product of the linear factors
    for q, traces in [(5, (1, 2, 3)), (49, (-14, 0, 14, 13)), (2, (1,)), (9, (6, -6, 6, -6, 0))]:
        doc = _product_doc(q, [[-a, 1] for a in traces])
        h = [1]
        for a in traces:
            h = [x - a * y for x, y in zip([0] + h, h + [0])]
        assert weilflow.weil._real_weil_polynomial(tuple(doc["weil_poly"]), q) == h


def test_functional_equation_is_exact():
    # c_3 = -2 where q c_1 = -10: the identity fails before any root is sought
    with pytest.raises(RiemannHypothesisViolation, match=(
            r"^c_3 = -2, but the functional equation c_\{2g-k\} = q\^\{g-k\} c_k "
            r"needs q\^1 c_1 = -10$")):
        parse_weil_datum({"q": 5, "g": 2, "weil_poly": [1, -2, 6, -2, 25]})
    with pytest.raises(RiemannHypothesisViolation, match=r"^c_3 = -2, but"):
        frobenius_model(WeilDatum(q=5, p=5, f=1, g=2, coeffs=(1, -2, 6, -2, 25)))


def test_rejection_names_the_failed_count():
    with pytest.raises(RiemannHypothesisViolation, match=(
            r"^0 of the 1 roots of the factor \[-5, 1\] of h = \[-5, 1\] "
            r"\(ascending; T\^g h\(T \+ q/T\) = char\(T\)\) are real in "
            r"\(-2 sqrt q, 2 sqrt q\), so some \|mu\| != sqrt q$")):
        parse_weil_datum({"q": 5, "trace": 5})


def test_edge_roots_are_divided_out_exactly():
    # x = +-2 sqrt q: mu = +-sqrt q exactly real, theta = 0 or pi exactly
    for doc, roots, angles in [
        ({"q": 49, "trace": -14}, [complex(-7.0)] * 2, (math.pi,)),
        ({"q": 4, "g": 2, "weil_poly": [1, 0, -8, 0, 16]}, [complex(-2.0)] * 2 + [complex(2.0)] * 2,
         (0.0, math.pi)),
        ({"q": 5, "g": 2, "weil_poly": [1, 0, -10, 0, 25]},
         [complex(-math.sqrt(5))] * 2 + [complex(math.sqrt(5))] * 2, (0.0, math.pi)),
    ]:
        model = frobenius_model(parse_weil_datum(doc))
        assert sorted(model.roots, key=lambda z: z.real) == roots
        assert model.angles == angles and model.precision == 0.0


def test_irrational_roots_get_a_proven_bracket():
    # h = x^2 - 7: x = +-sqrt 7 sits strictly between adjacent floats, so
    # the angle radius is one float step of x, d theta = dx / (2 sqrt q sin
    # theta), plus the rounding of the angles at the bracket's ends
    model = frobenius_model(parse_weil_datum({"q": 5, "g": 2, "weil_poly": [1, 0, 3, 0, 25]}))
    want = oracles.weil_angles(5, [[-7, 0, 1]])
    for theta, exact in zip(model.angles, want):
        step = math.ulp(math.sqrt(7)) / (2 * math.sqrt(5) * math.sin(theta))
        assert 0.0 < model.precision <= step + 2 * math.ulp(theta)
        assert float(abs(theta - exact)) <= model.precision + 4 * math.ulp(math.pi)

"""Point counts, closed points, fixed-point groups, orbit correspondence."""

import math

import pytest

import oracles
from test_weil import CORPUS
from weilflow.counting import CountTable, _powers_minus_identity, build_count_table, fixed_point_groups
from weilflow.weil import companion_matrix, frobenius_model, parse_weil_datum


def _model(doc):
    return frobenius_model(parse_weil_datum(doc))


E5A2 = _model({"q": 5, "trace": 2})
G2 = _model({"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25]})


def test_mobius_values():
    # the oracle's Mobius function, which closed_points inverts with
    assert [oracles.mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_point_count_hand_values():
    assert build_count_table(E5A2, 4).counts == (4, 32, 148, 640)
    assert build_count_table(G2, 1).counts == (8,)  # 4 * 2 from the two elliptic factors


def test_count_table_frozen_and_oracle():
    ct = build_count_table(E5A2, 8)
    assert list(ct.counts) == [4, 32, 148, 640, 3044, 15392, 78068, 391680]
    assert list(ct.closed_points) == [4, 14, 48, 152, 608, 2536, 11152, 48880]
    assert list(ct.counts) == oracles.trace_counts(2, 5, 8)
    assert list(ct.closed_points) == oracles.closed_points(oracles.trace_counts(2, 5, 8))


def test_count_table_g2_frozen_and_oracle():
    ct = build_count_table(G2, 6)
    expected = oracles.product_counts([2, 4], 5, 6)
    assert list(ct.counts) == expected
    assert expected == [8, 640, 18056, 409600, 9746888, 244117120]
    assert list(ct.closed_points) == oracles.closed_points(expected)
    assert list(ct.closed_points) == [8, 316, 6016, 102240, 1949376, 40683072]


def test_counts_match_recurrence_all_elliptic_corpus():
    for doc in CORPUS:
        if "trace" not in doc:
            continue
        m = _model(doc)
        ct = build_count_table(m, 20)
        counts = oracles.trace_counts(doc["trace"], doc["q"], 20)
        assert list(ct.counts) == counts
        assert list(ct.closed_points) == oracles.closed_points(counts)


def test_closed_point_examples():
    ct = build_count_table(E5A2, 4)
    assert ct.closed_points == (4, (32 - 4) // 2, (148 - 4) // 3, (640 - 32) // 4)
    assert 1 * 4 + 2 * 14 + 4 * 152 == 640  # divisor-sum identity at n = 4


def test_divisor_sum_identity_to_20():
    for m in (E5A2, G2):
        ct = build_count_table(m, 20)
        for n in range(1, 21):
            total = sum(
                d * ct.closed_points[d - 1] for d in range(1, n + 1) if n % d == 0
            )
            assert total == ct.counts[n - 1]


def test_float_exact_consistency():
    # |prod (mu_i^n - 1)| tracks the exact integer count
    for m in (E5A2, G2):
        ct = build_count_table(m, 20)
        for n in range(1, 21):
            prod = 1 + 0j
            for mu in m.roots:
                prod *= mu ** n - 1
            assert abs(abs(prod) - ct.counts[n - 1]) <= 1e-6 * ct.counts[n - 1]


def test_fixed_point_group_hand_values():
    assert fixed_point_groups(E5A2, build_count_table(E5A2, 3)) == ((1, 4), (2, 16), (1, 148))
    assert fixed_point_groups(G2, build_count_table(G2, 2))[1] == (1, 1, 4, 160)


def test_fixed_point_group_vs_sympy_and_counts():
    import sympy

    for m, n_hi in ((E5A2, 8), (G2, 5)):
        ct = build_count_table(m, n_hi)
        groups = fixed_point_groups(m, ct)
        f = sympy.Matrix(companion_matrix(m.datum))
        assert len(groups) == n_hi
        for n, divisors in enumerate(groups, start=1):
            assert math.prod(divisors) == ct.counts[n - 1]
            for a, b in zip(divisors, divisors[1:]):
                assert b % a == 0
            mat = (f ** n - sympy.eye(f.rows)).tolist()
            assert list(divisors) == oracles.sympy_snf_divisors(mat)


def _elliptic_product(q, traces):
    """The datum of the product of the curves 1 - a X + q X^2, a in traces."""
    coeffs = [1]
    for a in traces:
        coeffs = [x - a * y + q * z for x, y, z in
                  zip(coeffs + [0, 0], [0] + coeffs + [0], [0, 0] + coeffs)]
    return {"q": q, "g": len(traces), "weil_poly": coeffs}


@pytest.mark.parametrize("doc, n_hi", [
    (_elliptic_product(5, [2]), 20),
    (_elliptic_product(5, [2, 4]), 20),
    (_elliptic_product(7, [1, -3, 5]), 20),
    (_elliptic_product(3, [1, -1, 2, 3, 0, -2, 3, 1]), 20),
    (_elliptic_product(10007, [1, 2, 3, -5]), 64),
])
def test_companion_walk_vs_sympy_powers(doc, n_hi):
    # the recurrence T^(n+1) = T T^n mod char(T) gives F^n - I exactly
    import sympy

    m = _model(doc)
    f = sympy.Matrix(companion_matrix(m.datum))
    walk = list(_powers_minus_identity(m, n_hi))
    assert len(walk) == n_hi
    for n in sorted({*range(1, 21), n_hi}):
        assert walk[n - 1] == (f ** n - sympy.eye(f.rows)).tolist(), n


@pytest.mark.parametrize("doc", [
    _elliptic_product(5, [1, 2, 3, 4]),
    _elliptic_product(9, [1, 2, -3, 5]),
    _elliptic_product(10007, [1, 2, 3, -5]),
    _elliptic_product(5, [1, 2, 3, 4, -1, -2, 0, 2]),
])
def test_fixed_point_groups_at_scale_vs_sympy(doc):
    # the elimination modulo N_n against sympy's over Z, where N_n runs to
    # thousands of bits and Smith divisors other than 1 and N_n appear
    m = _model(doc)
    ct = build_count_table(m, 64)
    groups = fixed_point_groups(m, ct)
    walk = list(_powers_minus_identity(m, 64))
    for n in [*range(1, 13), 24, 48, 64]:
        divisors = groups[n - 1]
        assert len(divisors) == 2 * m.datum.g and math.prod(divisors) == ct.counts[n - 1]
        assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
        assert list(divisors) == oracles.sympy_snf_divisors(walk[n - 1]), n


def test_primitive_orbits():
    # b_nu = a_nu: a primitive orbit of period nu is a closed point of degree nu
    ct = build_count_table(E5A2, 12)
    assert ct.closed_points[:2] == (4, 14)
    for nu in (2, 3, 5, 7, 11):  # prime nu: b = (N_nu - N_1)/nu
        assert ct.closed_points[nu - 1] == (ct.counts[nu - 1] - ct.counts[0]) // nu


def test_range_errors():
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        fixed_point_groups(E5A2, CountTable(q=5, g=1, n_max=0, counts=(), closed_points=()))
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        build_count_table(E5A2, 0)


def test_positivity_whole_corpus():
    for doc in CORPUS:
        ct = build_count_table(_model(doc), 10)
        assert all(n > 0 for n in ct.counts)
        assert list(ct.closed_points) == oracles.closed_points(list(ct.counts))

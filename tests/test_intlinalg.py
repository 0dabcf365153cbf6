"""Exact integer linear algebra against sympy, hand values and each other."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from weilflow.intlinalg import charpoly, det_bareiss, smith_normal_form


def _random_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_det_hand_values():
    assert det_bareiss([[0, -5], [1, 2]]) == 5
    assert det_bareiss([[-1, -5], [1, 1]]) == 4
    assert det_bareiss([[7]]) == 7
    assert det_bareiss([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == 1


def test_det_random_vs_sympy():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n)
        assert det_bareiss(m) == oracles.sympy_det(m)


def test_det_singular():
    # duplicated row forces zero
    assert det_bareiss([[1, 2, 3], [1, 2, 3], [0, 1, 4]]) == 0


def test_charpoly_hand_companion():
    # char(T) of the companion of X^2 - 2X + 5 read off directly
    assert charpoly([[0, -5], [1, 2]]) == [5, -2, 1]
    assert charpoly([[2]]) == [-2, 1]


def test_charpoly_empty_and_pow_edge():
    # the 0x0 matrix has char poly 1; F^0 = I has char poly (X - 1)^n
    assert charpoly([]) == [1]
    assert charpoly([[1]]) == [-1, 1]
    assert charpoly([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [-1, 3, -3, 1]


def test_charpoly_random_vs_sympy():
    rng = random.Random(55)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, -6, 6)
        assert charpoly(m) == oracles.sympy_charpoly_ascending(m)


def test_charpoly_constant_term_is_signed_det():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n)
        c = charpoly(m)
        assert c[0] == (-1) ** n * det_bareiss(m)


SQUARE = st.integers(0, 7).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(m=SQUARE)
@example(m=[[0, 2, -1], [3, 1, 4], [5, -2, 7]])  # zero (0, 0) entry
@example(m=[[1, 2, 3, 4], [0, 0, 0, 0], [4, -5, 6, 1], [2, 2, -3, 0]])  # zero row
@example(m=[[1 if j == i + 1 else 0 for j in range(6)] for i in range(6)])  # nilpotent Jordan block
def test_charpoly_at_integers_is_det_of_the_shift(m):
    # elimination shares no step with the recurrence: char(t) = det(t I - A)
    n = len(m)
    c = charpoly(m)
    assert len(c) == n + 1 and c[n] == 1
    for t in range(n + 1):
        shifted = [[t * (i == j) - m[i][j] for j in range(n)] for i in range(n)]
        assert sum(ck * t**k for k, ck in enumerate(c)) == det_bareiss(shifted)


def _random_nonsingular(rng, n, lo, hi):
    while True:
        m = _random_matrix(rng, n, lo, hi)
        if det_bareiss(m):
            return m


def test_snf_hand_values():
    assert smith_normal_form([[-1, -5], [1, 1]], 4) == [1, 4]
    assert smith_normal_form([[-6, -10], [2, -2]], 32) == [2, 16]
    assert smith_normal_form([[2, 0], [0, 3]], 6) == [1, 6]
    assert smith_normal_form([[2, 0], [0, 3]], 36) == [1, 6]
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1) == [1, 1, 1]
    assert smith_normal_form([], 1) == []
    # the modulus is a positive multiple of |det A|, so A must be nonsingular
    for modulus in (0, -4):
        with pytest.raises(ValueError, match="modulus must be a positive multiple"):
            smith_normal_form([[-1, -5], [1, 1]], modulus)


def test_snf_random_vs_sympy():
    # modulo |det A| and modulo a multiple of it, the same divisors as sympy's
    # elimination over Z, in a divisibility chain whose product is |det A|
    rng = random.Random(202)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = _random_nonsingular(rng, n, -7, 7)
        det = abs(det_bareiss(m))
        ours = smith_normal_form(m, det)
        assert ours == oracles.sympy_snf_divisors(m)
        assert smith_normal_form(m, 6 * det) == ours
        for a, b in zip(ours, ours[1:]):
            assert b % a == 0
        assert math.prod(ours) == det


def test_snf_unimodular_invariance():
    # shearing rows/columns must not change the divisors
    rng = random.Random(11)
    for _ in range(10):
        m = _random_nonsingular(rng, 3, -5, 5)
        det = abs(det_bareiss(m))
        base = smith_normal_form(m, det)
        sheared = [row[:] for row in m]
        for k in range(3):
            sheared[0][k] += 4 * sheared[2][k]  # row op
        for row in sheared:
            row[1] -= 3 * row[0]  # column op
        assert smith_normal_form(sheared, det) == base


def test_snf_planted_chains():
    # U diag(d) V with random unimodular U, V has Smith divisors d exactly;
    # chains with several divisors > 1 need the divisibility fix-up
    rng = random.Random(28)
    for _ in range(40):
        n = rng.randint(2, 8)
        chain = [rng.choice((1, 1, 2, 5))]
        for _ in range(n - 1):
            chain.append(chain[-1] * rng.choice((1, 1, 2, 3, 6, 35)))
        m = [[chain[i] * (i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            for row in m:  # column j += c column i
                row[j] += c * row[i]
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]  # row i += c row j
        rng.shuffle(m)
        assert smith_normal_form(m, math.prod(chain)) == chain
        assert smith_normal_form(m, 6 * math.prod(chain)) == chain

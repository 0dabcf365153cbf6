"""Independent output checks for the benchmark's operations.

Nothing here calls weilflow. Every input the benchmark draws is a product of
elliptic factors 1 - a X + q X^2, so exact point counts follow from the
Lucas-style trace recurrence, closed points from Mobius inversion, the
exterior-power factors P_j from Newton's identities on the power sums, and
the Poisson closed form from the counts and the mollifier. Those three come
from the test suite's oracles (tests/oracles.py), which are reference code
that never calls weilflow either. Each check returns a list of problems; an
empty list means the output is right.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import alpha, closed_points, product_counts  # noqa: E402

# What a verify report may add to its allowance for quadrature error. The
# panel-doubling deltas are 1e-12 to 1e-9 on the benchmark's inputs.
QUAD_ALLOWANCE = 1e-6


def weil_poly(q: int, traces) -> list[int]:
    """Ascending coefficients of prod (1 - a X + q X^2) over a in traces."""
    poly = [1]
    for a in traces:
        out = [0] * (len(poly) + 2)
        for i, c in enumerate(poly):
            out[i] += c
            out[i + 1] -= a * c
            out[i + 2] += q * c
        poly = out
    return poly


def power_sums(q: int, traces, n_max: int) -> list[int]:
    """s_n = sum of the n-th powers of the 2g Frobenius eigenvalues, n <= n_max.

    Each factor contributes t_n = mu^n + conj(mu)^n, with t_0 = 2, t_1 = a and
    t_{n+1} = a t_n - q t_{n-1}."""
    sums = [0] * (n_max + 1)
    for a in traces:
        t_prev, t_cur = 2, a
        sums[0] += 2
        for n in range(1, n_max + 1):
            if n > 1:
                t_prev, t_cur = t_cur, a * t_cur - q * t_prev
            sums[n] += t_cur
    return sums


def _newton(p: list[int], k_max: int) -> list[int]:
    """Elementary symmetric e_0..e_k_max from power sums p[1..k_max], exactly."""
    e = [1]
    for r in range(1, k_max + 1):
        acc = sum((-1) ** (i - 1) * e[r - i] * p[i] for i in range(1, r + 1))
        if acc % r:
            raise ArithmeticError("power sums are not those of algebraic integers")
        e.append(acc // r)
    return e


def exterior_polys(q: int, traces) -> list[list[int]]:
    """Ascending coefficients of every P_j = prod over |S| = j of (1 - lambda_S X).

    The m-th power sum of the lambda_S is e_j of the m-th powers of the
    eigenvalues, whose own power sums are s_{m r}; Newton's identities turn
    each set of power sums into elementary symmetric functions."""
    n = 2 * len(traces)
    polys = []
    for j in range(n + 1):
        size = math.comb(n, j)
        s = power_sums(q, traces, j * size)
        p = [0] + [_newton([0] + [s[m * r] for r in range(1, j + 1)], j)[j]
                   for m in range(1, size + 1)]
        polys.append([(-1) ** k * c for k, c in enumerate(_newton(p, size))])
    return polys


def closed_form(q: int, traces, bump) -> float:
    """log q * sum over k != 0 of c_k alpha(k log q).

    c_k = N_k for k >= 1 and q^{g k} N_{-k} for k <= -1, g = len(traces).
    """
    center, width, _ = bump
    logq = math.log(q)
    g = len(traces)
    k_max = int(math.ceil((abs(center) + width) / logq)) + 1
    counts = product_counts(traces, q, k_max)
    ks = [k for k in range(-k_max, k_max + 1) if k != 0]
    values = alpha(np.array([k * logq for k in ks]), [bump])
    terms = []
    for k, value in zip(ks, values):
        coeff = float(counts[k - 1]) if k > 0 else float(counts[-k - 1]) * float(q) ** (g * k)
        terms.append(logq * coeff * float(value))
    return math.fsum(terms)


def check_verify(report, q: int, traces, bump, budget: float, tol: float) -> list[str]:
    """A verify report asked for with truncation budget `budget` and
    tolerance `tol` must pass, and its allowance may be at most
    tol (1 + |geometric|) + budget + QUAD_ALLOWANCE, computed here rather
    than read from the report. Each pairwise residual, recomputed from the
    three values, must sit within the allowance, the truncation tail within
    the budget, and the closed form must match the one recomputed here from
    exact counts."""
    problems = []
    if report.passed is not True:
        problems.append("verify returned passed = %r" % (report.passed,))
    zero_sum = report.spectral.alternating_full
    closed = report.spectral.closed_form
    geo = report.geometric.total
    cap = tol * (1.0 + abs(geo)) + budget + QUAD_ALLOWANCE
    if not report.allowance <= cap:
        problems.append("allowance %.3g exceeds %.3g for budget %g and tol %g"
                        % (report.allowance, cap, budget, tol))
    pairs = {
        "zero_sum_vs_closed_form": abs(zero_sum - closed),
        "closed_form_vs_geometric": abs(closed - geo),
        "zero_sum_vs_geometric": abs(zero_sum - geo),
    }
    for name, resid in pairs.items():
        if not resid <= report.allowance:
            problems.append("%s = %.3g exceeds allowance %.3g" % (name, resid, report.allowance))
    if not report.spectral.tail_bound <= budget:
        problems.append("tail bound %.3g exceeds budget %g" % (report.spectral.tail_bound, budget))
    expected = closed_form(q, traces, bump)
    if not abs(closed - expected) <= 1e-9 * (1.0 + abs(expected)):
        problems.append("closed form %r, exact counts give %r" % (closed, expected))
    if not abs(zero_sum - expected) <= report.allowance:
        problems.append(
            "zero sum %r is %.3g from the recomputed closed form, allowance %.3g"
            % (zero_sum, abs(zero_sum - expected), report.allowance)
        )
    return problems


def check_zeta(zeta_text: str, q: int, traces, expected=None) -> list[str]:
    """CLI `zeta` JSON: 2g + 1 factors, each equal to the P_j of
    exterior_polys (passed in as `expected` when already computed). That
    includes P_0 = 1 - X, P_1 = the input and P_2g = 1 - q^g X."""
    g = len(traces)
    polys = [[int(c) for c in poly] for poly in json.loads(zeta_text)["P"]]
    if len(polys) != 2 * g + 1:
        return ["%d factors P_j, expected %d" % (len(polys), 2 * g + 1)]
    expected = expected or exterior_polys(q, traces)
    return ["P_%d = %s, expected %s" % (j, got, want)
            for j, (got, want) in enumerate(zip(polys, expected)) if got != want]


def check_count(count_text: str, q: int, traces, n_max: int) -> list[str]:
    """CLI `count --max n_max` JSON: every N_n equals the recurrence count,
    every a_d and every orbit count the Mobius inversion of those counts, and
    every Smith normal form multiplies out to N_n."""
    problems = []
    table = json.loads(count_text)
    counts = product_counts(traces, q, n_max)
    points = closed_points(counts)
    for n in range(1, n_max + 1):
        key = str(n)
        got_n = int(table["N"][key])
        if got_n != counts[n - 1]:
            problems.append("N_%d = %d, recurrence gives %d" % (n, got_n, counts[n - 1]))
        if int(table["a"][key]) != points[n - 1]:
            problems.append("a_%d = %s, inversion gives %s" % (n, table["a"][key], points[n - 1]))
        if int(table["orbits"][key]["count"]) != points[n - 1]:
            problems.append("orbit count %d = %s, expected %s"
                            % (n, table["orbits"][key]["count"], points[n - 1]))
        snf = math.prod(int(d) for d in table["snf"][key])
        if snf != counts[n - 1]:
            problems.append("SNF divisors at n = %d multiply to %d, not N_%d" % (n, snf, n))
    return problems

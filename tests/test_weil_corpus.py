"""Every Weil q-polynomial of small (g, q), through parse and every command
but zeta.

oracles.weil_polynomials lists them with sympy's real-root isolation, so the
set shares no code with weil's exact decision: 608 polynomials, 65 at g = 1
(q = 2, 3, 4, 5, 7, 8, 9), 328 at g = 2 (q = 2..5) and 215 at g = 3 (q = 2).
"""

import contextlib
import functools
import io
import json
import math

from weilflow import (
    BumpFunction,
    InsufficientCountRange,
    SidesTooLarge,
    TruncationBudgetExceeded,
    WeilflowError,
    parse_weil_datum,
    verify,
)
from weilflow.cli import main

import oracles

RANGES = ((1, (2, 3, 4, 5, 7, 8, 9)), (2, (2, 3, 4, 5)), (3, (2,)))
LIMITS = (TruncationBudgetExceeded, InsufficientCountRange, SidesTooLarge)


@functools.lru_cache(maxsize=1)
def _corpus():
    """{(g, q): the Weil polynomials of that g and q}."""
    return {(g, q): oracles.weil_polynomials(g, q) for g, qs in RANGES for q in qs}


def _members():
    return [(g, q, poly) for (g, q), polys in _corpus().items() for poly in polys]


def _accepts(g, q, poly) -> bool:
    try:
        parse_weil_datum({"q": q, "g": g, "weil_poly": poly})
    except WeilflowError:
        return False
    return True


def test_the_enumeration_is_what_parse_accepts():
    # g = 1: the traces |a| <= 2 sqrt q; g <= 2: parse accepts exactly the
    # enumerated polynomials out of the whole coefficient box of h
    corpus = _corpus()
    assert [len(corpus[1, q]) for q in RANGES[0][1]] == [2 * math.isqrt(4 * q) + 1 for q in RANGES[0][1]]
    assert [len(corpus[2, q]) for q in RANGES[1][1]] == [35, 63, 101, 129]
    assert len(corpus[3, 2]) == 215 and len(_members()) == 608
    for (g, q), polys in corpus.items():
        if g <= 2:
            box = [oracles.weil_poly_from_h(g, q, tail) for tail in oracles.real_weil_box(g, q)]
            assert [poly for poly in box if _accepts(g, q, poly)] == polys, (g, q)


def test_every_small_weil_polynomial_verifies_or_stops_at_a_named_limit():
    failed = []
    for g, q, poly in _members():
        w = parse_weil_datum({"q": q, "g": g, "weil_poly": poly})
        try:
            rep = verify(w, BumpFunction(center=math.log(q), width=0.5), allow_non_ordinary=True)
        except LIMITS:
            continue
        if not rep.passed:
            failed.append((q, poly))
    assert failed == []


def test_every_small_weil_polynomial_counts_and_lists_its_zeros(tmp_path):
    # count and orbits --max 12 and spectrum at its default window: exit 0,
    # or a named limit (exit 1 or 2 with its class on stderr)
    failed = []
    for i, (g, q, poly) in enumerate(_members()):
        path = tmp_path / ("%d.json" % i)
        path.write_text(json.dumps({"q": q, "g": g, "weil_poly": poly}))
        for argv in (["count", "--max", "12"], ["orbits", "--max", "12"], ["spectrum"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([argv[0], "--input", str(path), *argv[1:]])
            named = any("error: %s:" % limit.__name__ in err.getvalue() for limit in LIMITS)
            if code != 0 and not named:
                failed.append((argv[0], q, poly, code, err.getvalue()))
    assert failed == []

"""Command line interface: subcommands, exit codes, output stability."""

import json
import math
import re
import sys
import time

import pytest

from test_formula import _product, _shift_angles
from weilflow import cli, exterior, intlinalg
from weilflow.cli import main

E5A2 = {"q": 5, "trace": 2}
G2 = {"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25]}
G3 = {"q": 5, "g": 3, "weil_poly": [1, -6, 26, -66, 130, -150, 125]}
# (1 + 14X + 49X^2)(1 - 7X + 49X^2): P_2 has a zero coefficient whose float
# value fails build_pj_family's fixed 1e-8 cross-check
Q49_PAIR = {"q": 49, "g": 2, "weil_poly": [1, 7, 0, 343, 2401]}
BAD = {"q": 5, "g": 1, "weil_poly": [1, -5, 5]}
SUPERSINGULAR = {"q": 5, "g": 1, "weil_poly": [1, 0, 5]}


@pytest.fixture
def datum(tmp_path):
    def write(doc, name="datum.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return write


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_validate_good(capsys, datum):
    rc, out, _ = run(capsys, ["validate", "--input", datum(E5A2)])
    assert rc == 0
    assert "ok" in out


def test_validate_large_q_ends_quickly(capsys, datum, tmp_path):
    # q = 2^61 - 1 is prime; 2^1100 is past weil.Q_CAP; a 5,000-digit q is
    # past Python's integer digit limit, so json.load itself refuses it
    many_digits = tmp_path / "digits.json"
    many_digits.write_text('{"q": %s, "trace": 1}' % ("9" * 5000))
    for path, code, text in ((datum({"q": 2**61 - 1, "trace": 1}, "m61.json"), 0, "ok"),
                             (datum({"q": 2**1100, "trace": 1}, "huge.json"), 1, "FieldTooLarge: q of 1101 bits"),
                             (str(many_digits), 1, "InputError")):
        start = time.perf_counter()
        rc, out, err = run(capsys, ["validate", "--input", path])
        assert time.perf_counter() - start < 1.0
        assert rc == code and text in out + err, (out, err)


def test_validate_rejects_bad_poly(capsys, datum):
    rc, _, err = run(capsys, ["validate", "--input", datum(BAD)])
    assert rc == 1
    assert "RiemannHypothesisViolation" in err


def test_validate_json_reports_ordinarity(capsys, datum):
    rc, out, _ = run(capsys, ["validate", "--input", datum(E5A2), "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["ordinary"]["is_ordinary"] is True
    assert doc["ordinary"]["p_valuation"] == 0
    assert doc["input"]["q"] == 5 and doc["input"]["g"] == 1
    assert doc["functional_equation_ok"] is True

    rc, out, _ = run(
        capsys, ["validate", "--input", datum(SUPERSINGULAR), "--format", "json"]
    )
    assert rc == 0  # validate reports, only verify gates
    assert json.loads(out)["ordinary"]["is_ordinary"] is False


def test_zeta_output(capsys, datum):
    rc, out, _ = run(capsys, ["zeta", "--input", datum(E5A2), "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["P"] == [["1", "-1"], ["1", "-2", "5"], ["1", "-5"]]
    assert doc["roots"] == [[1.0, -2.0], [1.0, 2.0]]
    assert len(doc["products_by_j"]) == 3
    assert doc["products_by_j"][2] == [[5.0, 0.0]]
    # integer coefficients ship as decimal strings, exact at any size
    assert all(isinstance(c, str) for row in doc["P"] for c in row)


def test_count_output(capsys, datum):
    rc, out, _ = run(
        capsys, ["count", "--input", datum(E5A2), "--max", "4", "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["N"] == {"1": "4", "2": "32", "3": "148", "4": "640"}
    assert doc["a"] == {"1": "4", "2": "14", "3": "48", "4": "152"}
    assert doc["snf"]["2"] == ["2", "16"]


def test_orbits_example(capsys, datum):
    rc, out, _ = run(
        capsys, ["orbits", "--input", datum(E5A2), "--max", "3", "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert {n: o["count"] for n, o in doc["orbits"].items()} == {
        "1": "4", "2": "14", "3": "48",
    }
    assert doc["orbits"]["2"]["length"] == pytest.approx(2 * math.log(5))


def test_spectrum_window(capsys, datum):
    rc, out, _ = run(
        capsys,
        ["spectrum", "--input", datum(E5A2), "--window", "5", "--format", "json"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["window"] == pytest.approx(5.0)
    assert doc["zeros"], "window of half-width 5 must contain zeros"
    for z in doc["zeros"]:
        assert abs(z["re"] - z["j"] / 2) < 1e-9
        assert abs(z["im"]) <= 5.0
    assert {z["j"] for z in doc["zeros"]} == {0, 1, 2}


def test_verify_pass(capsys, datum):
    rc, out, _ = run(
        capsys,
        [
            "verify", "--input", datum(E5A2),
            "--alpha", "c=1.6094,w=0.5",
            "--tol", "1e-8",
            "--format", "json",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["ordinary"] is True
    assert set(doc["residuals"]) == {
        "zero_sum_vs_closed_form",
        "closed_form_vs_geometric",
        "zero_sum_vs_geometric",
    }
    assert {t["j"] for t in doc["spectral"]["per_j"]} == {0, 1, 2}
    assert doc["geometric"]["cells"][0]["points"] == "4"
    assert all(float(r) <= doc["allowance"] for r in doc["residuals"].values())


def test_verify_text_and_csv(capsys, datum):
    path = datum(E5A2)
    rc, out, _ = run(capsys, ["verify", "--input", path, "--alpha", "c=1.6094,w=0.5"])
    assert rc == 0
    assert "PASS" in out

    rc, out, _ = run(
        capsys,
        ["verify", "--input", path, "--alpha", "c=1.6094,w=0.5", "--format", "csv"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "metric,value"
    assert lines[-1] == "pass,True"


def test_verify_prints_each_value_as_one_number(capsys, datum):
    # T_j and both zero sums are real: one number each in every format
    argv = ["verify", "--input", datum(G2), "--alpha", "c=1.6094,w=0.5", "--format"]
    rc, out, _ = run(capsys, argv + ["json"])
    assert rc == 0
    spectral = json.loads(out)["spectral"]
    assert [key for key, v in spectral.items() if isinstance(v, list)] == ["per_j"]
    assert not [v for t in spectral["per_j"] for v in t.values() if isinstance(v, list)]
    assert all(type(v) is float for v in (spectral["zero_sum"], spectral["zero_sum_partial_j_ge_1"],
                                          *(t["T"] for t in spectral["per_j"])))
    rc, out, _ = run(capsys, argv + ["csv"])
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert [row for row in rows if row[0].startswith("zero_sum") and "_vs_" not in row[0]] == [
        ["zero_sum", "%.16e" % spectral["zero_sum"]]]
    rc, out, _ = run(capsys, argv + ["text"])
    assert rc == 0 and "zero sum  (j=0..2g): %.16e" % spectral["zero_sum"] in out.splitlines()


def test_verify_byte_stable(capsys, datum):
    path = datum(G2, "g2.json")
    argv = [
        "verify", "--input", path,
        "--alpha", "c=1.6,w=0.5", "--alpha", "c=-0.8,w=0.4,A=0.6",
        "--format", "json",
    ]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_verify_multiple_alphas_sum(capsys, datum):
    path = datum(E5A2)
    rc, out, _ = run(
        capsys,
        [
            "verify", "--input", path,
            "--alpha", "c=1.6094,w=0.5", "--alpha", "c=-1.6094,w=0.5",
            "--format", "json",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    ks = {cell["k"] for cell in doc["geometric"]["cells"]}
    assert ks == {-1, 1}


def test_verify_nonordinary_gate(capsys, datum):
    path = datum(SUPERSINGULAR, "ss.json")
    rc, _, err = run(capsys, ["verify", "--input", path, "--alpha", "c=1.6,w=0.5"])
    assert rc == 1
    assert "NonOrdinaryInput" in err

    rc, out, _ = run(
        capsys,
        [
            "verify", "--input", path,
            "--alpha", "c=1.6,w=0.5",
            "--allow-non-ordinary", "--format", "json",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["ordinary"] is False


def test_verify_failure_exit_code(capsys, datum):
    # an unreachable truncation budget must yield the computation exit code;
    # a vanishing width needs more rungs than bumps.LADDER_CAP, so no ladder runs
    rc, _, err = run(
        capsys,
        [
            "verify", "--input", datum(E5A2),
            "--alpha", "c=0,w=1e-60",
        ],
    )
    assert rc == 2
    assert "TruncationBudgetExceeded" in err


def test_verify_that_fails_exits_2_with_an_empty_stderr(capsys, datum, monkeypatch):
    # a failed check is a computed verdict, not an error: the report ends
    # in FAIL and nothing goes to stderr
    _shift_angles(monkeypatch, 1e-5)
    rc, out, err = run(capsys, ["verify", "--input", datum(E5A2), "--alpha", "c=%r,w=0.5" % math.log(5)])
    assert rc == 2 and err == ""
    assert out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("argv", [
    ["verify", "--alpha", "c=0,w=inf"],
    ["verify", "--alpha", "c=0,w=nan"],
    ["verify", "--alpha", "c=1e308,w=1e308"],  # support (0, inf)
    ["verify", "--alpha", "c=1.6,w=0.5", "--trunc-budget", "nan"],
    ["verify", "--alpha", "c=1.6,w=0.5", "--tol", "nan"],
    ["verify", "--alpha", "c=1.6,w=0.5", "--tol", "inf"],
    ["spectrum", "--window", "inf"],
    ["spectrum", "--window", "nan"],
])
def test_non_finite_input_is_an_input_error(capsys, datum, argv):
    rc, out, err = run(capsys, argv + ["--input", datum(E5A2)])
    assert rc == 1 and out == ""
    assert err.startswith("error: InputError: ")


@pytest.mark.parametrize("width", ["1e-60", "1e-100", "1e-320"])
def test_vanishing_width_exceeds_the_budget(capsys, datum, width):
    # B's tail is astronomically large or infinite: a named limit, not a traceback
    rc, out, err = run(capsys, ["verify", "--input", datum(E5A2), "--alpha", "c=0,w=" + width])
    assert rc == 2 and out == ""
    assert err.startswith("error: TruncationBudgetExceeded: ")


def test_input_error_paths(capsys, datum, tmp_path):
    rc, _, err = run(capsys, ["validate", "--input", str(tmp_path / "missing.json")])
    assert rc == 1

    notjson = tmp_path / "garbage.json"
    notjson.write_text("{nope")
    rc, _, err = run(capsys, ["validate", "--input", str(notjson)])
    assert rc == 1

    path = datum(E5A2)
    rc, _, err = run(capsys, ["verify", "--input", path])
    assert rc == 1 and "alpha" in err

    for alpha in ("c=1.0", "c=1,w=0.5,c=2", "c=1,w=0.5,zz=3", "c=abc,w=0.5"):
        rc, _, err = run(capsys, ["verify", "--input", path, "--alpha", alpha])
        assert rc == 1, alpha
    rc, _, err = run(capsys, ["verify", "--input", path, "--alpha", "c=1,0.5"])
    assert rc == 1 and "bad --alpha component '0.5'" in err

    for argv, message in ((["count", "--max", "0"], "--max must be >= 1, got 0"),
                          (["orbits", "--max", "-3"], "--max must be >= 1, got -3"),
                          (["spectrum", "--j", "3"], "--j must lie in 0..2, got 3"),
                          (["spectrum", "--j", "-1"], "--j must lie in 0..2, got -1")):
        rc, out, err = run(capsys, argv + ["--input", path])
        assert rc == 1 and out == "" and err == "error: InputError: %s\n" % message, argv

    rc, _, err = run(capsys, ["frobnicate", "--input", path])
    assert rc == 1

    rc, _, err = run(capsys, ["count", "--input", path, "--max", "101"])
    assert rc == 1

    rc, out, err = run(capsys, ["validate", "--input", datum({"q": 5, "g": 2, "trace": 1})])
    assert rc == 1 and out == "" and err == "error: InputError: 'trace' is the g = 1 shorthand, but 'g' is 2\n"


def test_integers_past_the_str_limit_are_refused_up_front(capsys, datum):
    # N_64 of the g = 3 product over q = 10^24 + 7 has ~4,600 digits, and P_5
    # of the g = 5 product over q = 2^23 has the coefficient q^630, of 4,362
    big3 = datum(_product(10**24 + 7, [1, 2, -3]), "big3.json")
    big5 = datum(_product(2**23, [1, 2, 3, 4, -1]), "big5.json")
    for argv, what in ((["count", "--max", "64", "--format", "json", "--input", big3], "count --max 64"),
                       (["orbits", "--max", "64", "--input", big3], "orbits --max 64"),
                       (["zeta", "--input", big5], "zeta P_5")):
        start = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert rc == 1 and out == "", argv
        assert err.startswith("error: OutputTooLarge: %s: its integers are at most " % what), err
        assert err.endswith(" digits, past Python's int-to-str limit of %d digits\n"
                            % sys.get_int_max_str_digits())


@pytest.mark.parametrize("argv", [["count", "--max", "12"], ["orbits", "--max", "12"], ["zeta"]])
def test_integer_bound_covers_every_printed_integer(capsys, datum, monkeypatch, argv):
    # with the limit one digit under the longest integer printed, the bound
    # refuses; 0 means no limit and nothing is refused
    path = datum(G2)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    rc, out, _ = run(capsys, argv + ["--input", path, "--format", "json"])
    assert rc == 0
    longest = max(len(x.lstrip("-")) for x in re.findall(r'"(-?\d+)"', out))
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: longest - 1)
    rc, out, err = run(capsys, argv + ["--input", path, "--format", "json"])
    assert rc == 1 and out == "" and err.startswith("error: OutputTooLarge: ")


def test_orbits_builds_smith_forms_only_for_json(capsys, datum, monkeypatch):
    import weilflow.cli

    calls = []
    real = weilflow.cli.fixed_point_groups
    monkeypatch.setattr(weilflow.cli, "fixed_point_groups",
                        lambda model, table: calls.append(table.n_max) or real(model, table))
    for fmt in ("text", "csv"):
        rc, _, _ = run(capsys, ["orbits", "--input", datum(G2), "--max", "6", "--format", fmt])
        assert rc == 0 and calls == []
    rc, out, _ = run(capsys, ["orbits", "--input", datum(G2), "--max", "6", "--format", "json"])
    assert rc == 0 and calls == [6]
    assert list(json.loads(out)["snf"]) == ["1", "2", "3", "4", "5", "6"]


def _power_of_1_plus_2x2(datum, g):
    # (1 + 2 X^2)^g, a valid Weil polynomial for q = 2 (as in test_dimension_cap)
    coeffs = [0] * (2 * g + 1)
    for k in range(g + 1):
        coeffs[2 * k] = math.comb(g, k) * 2 ** k
    return datum({"q": 2, "g": g, "weil_poly": coeffs}, "g%d.json" % g)


def test_dimension_cap_has_no_override(capsys, datum):
    # zeta stops at g = 5, verify at g = 8
    zeta_err = "error: DimensionTooLarge: zeta (build_pj_family): g = %d exceeds the cap 5\n"
    verify = ["verify", "--alpha", "c=1,w=0.5", "--allow-non-ordinary"]
    g6 = _power_of_1_plus_2x2(datum, 6)
    rc, _, err = run(capsys, ["zeta", "--input", g6])
    assert rc == 1 and err == zeta_err % 6
    rc, out, _ = run(capsys, verify + ["--input", g6])
    assert rc == 0 and "PASS" in out
    path = _power_of_1_plus_2x2(datum, 9)
    rc, _, err = run(capsys, ["zeta", "--input", path])
    assert rc == 1 and err == zeta_err % 9
    rc, _, err = run(capsys, verify + ["--input", path])
    assert rc == 1 and err == "error: DimensionTooLarge: verify: g = 9 exceeds the cap 8\n"
    # validate builds no P_j, and spectrum only the subsets of the j it lists,
    # so the cap does not apply to them
    rc, out, _ = run(capsys, ["validate", "--input", path])
    assert rc == 0 and out.rstrip().endswith("ok")
    for window, total in (("1", 0), ("3", 18)):  # Im s = +-pi / (2 log 2) = +-2.27
        rc, out, _ = run(capsys, ["spectrum", "--j", "1", "--window", window, "--input", path])
        assert rc == 0 and out.rstrip().endswith("total: %d" % total)

    rc, _, err = run(capsys, ["validate", "--input", path, "--allow-large"])
    assert rc == 1
    assert err.startswith("error: InputError: ") and "--allow-large" in err


def test_functional_equation_violation_exits_1_everywhere(capsys, datum):
    # c_3 = -2 where q c_1 = -10: parse refuses the input exactly, before
    # any command runs, as a RiemannHypothesisViolation
    path = datum({"q": 5, "g": 2, "weil_poly": [1, -2, 6, -2, 25]})
    for argv in (["validate"], ["zeta"], ["count"], ["orbits"], ["spectrum"],
                 ["verify", "--alpha", "c=1.6094,w=0.5"]):
        rc, out, err = run(capsys, argv + ["--input", path])
        assert rc == 1, argv
        assert out == ""
        assert err == ("error: RiemannHypothesisViolation: c_3 = -2, but the functional "
                       "equation c_{2g-k} = q^{g-k} c_k needs q^1 c_1 = -10\n")


def test_spectrum_window_cap(capsys, datum):
    rc, out, err = run(capsys, ["spectrum", "--input", datum(E5A2), "--window", "1e12"])
    assert rc == 1 and out == ""
    assert err.startswith("error: InputError: --window 1000000000000.0 holds up to ")
    assert err.endswith(" zeros, the cap is %d\n" % cli.SPECTRUM_ZERO_CAP)
    # from g = 10 the 4^g ladders alone exceed the cap: every window is refused
    g = 10
    coeffs = [0] * (2 * g + 1)
    for k in range(g + 1):
        coeffs[2 * k] = math.comb(g, k) * 2 ** k
    path = datum({"q": 2, "g": g, "weil_poly": coeffs}, "g10.json")
    rc, out, err = run(capsys, ["spectrum", "--input", path, "--window", "0"])
    assert rc == 1 and out == ""
    assert err == "error: InputError: --window 0.0 holds up to 1.049e+06 zeros, the cap is 1000000\n"


def test_spectrum_zero_bound_covers_the_listing(capsys, datum, monkeypatch):
    # the up-front bound holds every listed zero, with at most one spare per
    # ladder; a cap just under it refuses the window
    path = datum(G2)
    rc, out, _ = run(capsys, ["spectrum", "--input", path, "--window", "25", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    bound = (2 * 25.0 / doc["period"] + 1) * 2 ** 4
    assert bound - 2 ** 4 <= len(doc["zeros"]) <= bound
    monkeypatch.setattr(cli, "SPECTRUM_ZERO_CAP", math.floor(bound) - 1)
    rc, _, err = run(capsys, ["spectrum", "--input", path, "--window", "25"])
    assert rc == 1 and "InputError: --window 25.0 holds up to" in err


def test_lattice_commands_pass_where_the_exact_route_fails(capsys, datum):
    path = datum(Q49_PAIR)
    for argv in (["validate"], ["spectrum"],
                 ["verify", "--alpha", "c=1.6094,w=0.5", "--allow-non-ordinary"]):
        rc, out, err = run(capsys, argv + ["--input", path])
        assert rc == 0 and err == "", (argv, err)
    assert out.rstrip().endswith("PASS")
    # only zeta prints the exact P_j, and its fixed cross-check still refuses
    rc, _, err = run(capsys, ["zeta", "--input", path])
    assert rc == 2 and err.startswith("error: CrossCheckFailure: P_2 coefficient 5: exact 0 ")


def test_zeta_refuses_coefficients_past_the_double_range(capsys, datum):
    # P_3 of this g = 4 product over F_10007 has a coefficient of 1041 bits,
    # which the float cross-check cannot compare: a refusal, not a traceback
    path = datum({"q": 10007, "g": 4, "weil_poly": [
        1, 163, 30428, 4094723, 431735894, 40975893061, 3047061410972,
        163342539665909, 10028029413722401]})
    rc, out, err = run(capsys, ["zeta", "--input", path])
    assert rc == 2 and out == ""
    assert err == ("error: CrossCheckFailure: P_3 coefficient 52: exact value of 1041 bits "
                   "is past the double range of the float cross-check\n")


def test_only_zeta_builds_the_exact_factors(capsys, datum, monkeypatch):
    def refuse(*args):
        raise AssertionError("exact P_j stage reached")

    for module in (exterior, intlinalg):
        monkeypatch.setattr(module, "charpoly", refuse)
    monkeypatch.setattr(exterior, "exterior_power_matrix", refuse)
    for doc in (E5A2, G3):
        rc, out, _ = run(capsys, ["verify", "--input", datum(doc), "--alpha", "c=1.6094,w=0.5"])
        assert rc == 0 and out.rstrip().endswith("PASS")
    for argv in (["spectrum"], ["validate"]):
        rc, _, err = run(capsys, argv + ["--input", datum(G3)])
        assert rc == 0 and err == "", argv
    with pytest.raises(AssertionError, match="exact P_j stage reached"):
        main(["zeta", "--input", datum(E5A2)])

"""Command line interface: subcommands, exit codes, output stability."""

import json
import math

import pytest

from weilflow.cli import main

E5A2 = {"q": 5, "trace": 2}
G2 = {"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25]}
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
    # unreachable truncation budget must yield the computation exit code;
    # every order needs more than NU_CAP zeros, so no ladder runs
    rc, _, err = run(
        capsys,
        [
            "verify", "--input", datum(E5A2),
            "--alpha", "c=1.6094,w=0.5",
            "--trunc-budget", "1e-60",
        ],
    )
    assert rc == 2
    assert "TruncationBudgetExceeded" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--alpha", "c=0,w=inf"],
    ["verify", "--alpha", "c=0,w=nan"],
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
    # M_k is astronomically large or infinite: a named limit, not a traceback
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

    rc, _, err = run(capsys, ["frobnicate", "--input", path])
    assert rc == 1

    rc, _, err = run(capsys, ["count", "--input", path, "--max", "101"])
    assert rc == 1


def test_orbits_builds_smith_forms_only_for_json(capsys, datum, monkeypatch):
    import weilflow.cli

    calls = []
    real = weilflow.cli.fixed_point_group
    monkeypatch.setattr(weilflow.cli, "fixed_point_group",
                        lambda model, n: calls.append(n) or real(model, n))
    for fmt in ("text", "csv"):
        rc, _, _ = run(capsys, ["orbits", "--input", datum(G2), "--max", "6", "--format", fmt])
        assert rc == 0 and calls == []
    rc, out, _ = run(capsys, ["orbits", "--input", datum(G2), "--max", "6", "--format", "json"])
    assert rc == 0 and calls == [1, 2, 3, 4, 5, 6]
    assert list(json.loads(out)["snf"]) == ["1", "2", "3", "4", "5", "6"]


def test_dimension_cap_has_no_override(capsys, datum):
    # (1 + 2 X^2)^9, a valid Weil polynomial for g = 9 (as in test_dimension_cap)
    g = 9
    coeffs = [0] * (2 * g + 1)
    for k in range(g + 1):
        coeffs[2 * k] = math.comb(g, k) * 2 ** k
    path = datum({"q": 2, "g": g, "weil_poly": coeffs}, "g9.json")
    rc, _, err = run(capsys, ["zeta", "--input", path])
    assert rc == 1
    assert err == "error: DimensionTooLarge: g = 9 exceeds the cap 8\n"

    rc, _, err = run(capsys, ["validate", "--input", path, "--allow-large"])
    assert rc == 1
    assert err.startswith("error: InputError: ") and "--allow-large" in err

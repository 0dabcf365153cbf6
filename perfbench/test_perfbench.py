"""Tests of the benchmark itself: python -m pytest perfbench (about two minutes)."""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import weilflow  # noqa: E402
from checks import check_count, check_verify, check_zeta, exterior_polys, weil_poly  # noqa: E402
from spans import OP_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, _tables_op, pj_cross_check, run_cli, screen_g4  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    expected = run.SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_same_seed_same_inputs(tmp_path):
    for name in ("e5-battery", "g4-tables"):
        first = [op.label for rnd in WORKLOADS[name](7, tmp_path)[0] for op in rnd]
        again = [op.label for rnd in WORKLOADS[name](7, tmp_path / "again")[0] for op in rnd]
        other = [op.label for rnd in WORKLOADS[name](8, tmp_path)[0] for op in rnd]
        assert first == again != other


def test_tables_check_flags_a_corrupted_count(tmp_path):
    q, traces, n_max = 5, (1, 2), 8
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"q": q, "g": 2, "weil_poly": weil_poly(q, traces)}))
    _, zeta, _ = run_cli(["zeta", "--input", str(path), "--format", "json"])
    _, count, _ = run_cli(["count", "--input", str(path), "--max", str(n_max), "--format", "json"])
    assert check_zeta(zeta, q, traces) == []
    assert check_count(count, q, traces, n_max) == []

    table = json.loads(count)
    table["N"]["3"] = str(int(table["N"]["3"]) + 1)
    assert any(p.startswith("N_3 = ") for p in check_count(json.dumps(table), q, traces, n_max))

    table = json.loads(count)
    table["snf"]["5"][-1] = str(int(table["snf"]["5"][-1]) * 2)
    assert check_count(json.dumps(table), q, traces, n_max)

    polys = json.loads(zeta)
    polys["P"][1][1] = str(int(polys["P"][1][1]) + 1)
    assert any(p.startswith("P_1 = ") for p in check_zeta(json.dumps(polys), q, traces))
    polys = json.loads(zeta)
    polys["P"][2][3] = str(int(polys["P"][2][3]) - 1)
    assert any(p.startswith("P_2 = ") for p in check_zeta(json.dumps(polys), q, traces))


def test_exterior_polys_match_build_pj_family():
    for q, traces in [(5, (2,)), (7, (1, -3)), (5, (1, 2, 3))]:
        datum = weilflow.parse_weil_datum({"q": q, "g": len(traces), "weil_poly": weil_poly(q, traces)})
        fam = weilflow.build_pj_family(weilflow.frobenius_model(datum))
        assert [list(p) for p in fam.polys] == exterior_polys(q, traces)


def test_the_screen_rejects_what_build_pj_family_rejects(tmp_path):
    # g = 4 inputs on which build_pj_family's exact route is cheap or raises early
    rejected = (9, (-3, 3, -6, 3))
    reason = pj_cross_check(*rejected)
    assert reason.startswith("P_2 coefficient 8 ")
    datum = weilflow.parse_weil_datum({"q": 9, "g": 4, "weil_poly": weil_poly(*rejected)})
    with pytest.raises(weilflow.CrossCheckFailure, match="P_2 coefficient 8: "):
        weilflow.build_pj_family(weilflow.frobenius_model(datum))
    assert pj_cross_check(5, (1, 2, 3)) is None
    screen = screen_g4(2, tmp_path)
    assert len(screen["accepted"]) == 16
    assert [9, [-3, 3, -6, 3]] in [[r["q"], r["traces"]] for r in screen["rejected"]]
    assert screen_g4(2, tmp_path) == screen  # read back from input_dir


def test_a_g4_op_whose_zeta_fails_is_a_failure(tmp_path):
    q, traces = 5, (1, 2)
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"q": q, "g": 2, "weil_poly": weil_poly(q, traces)}))
    op = _tables_op(path, q, traces)
    zeta, count = op.run()
    assert op.check([zeta, count]) == []
    pj = "error: CrossCheckFailure: P_2 coefficient 1: exact 0 vs float 2e-08 (off 2e-08 relative)\n"
    assert any(p.startswith("zeta exited 2") for p in op.check([(2, "", pj), count]))


def test_an_op_that_raises_makes_the_run_incorrect():
    ok = Op("ok", lambda: 1, lambda out: [])
    raises = Op("raises", lambda: 1 / 0, lambda out: [])
    wrong = Op("wrong", lambda: 1, lambda out: ["N_1 off by one"])
    records, _ = run.timed_loop([[ok]], 0)
    assert [r.kind for r in records] == [None] and run.correct(records)
    records, _ = run.timed_loop([[ok, raises]], 0)
    assert [r.kind for r in records] == [None, "error"] and not run.correct(records)
    records, _ = run.timed_loop([[ok, wrong]], 0)
    assert [r.kind for r in records] == [None, "check"] and not run.correct(records)


def test_verify_check_flags_a_corrupted_report():
    datum = weilflow.parse_weil_datum({"q": 5, "trace": 2})
    bump = weilflow.BumpFunction(center=math.log(5), width=0.5)
    params = (bump.center, bump.width, bump.amplitude)
    report = weilflow.verify(datum, bump, tol=1e-6, trunc_budget=0.25)
    assert check_verify(report, 5, (2,), params, 0.25, 1e-6) == []
    assert check_verify(dataclasses.replace(report, passed=False), 5, (2,), params, 0.25, 1e-6)
    shifted = dataclasses.replace(
        report, spectral=dataclasses.replace(report.spectral, closed_form=report.spectral.closed_form + 1e-6)
    )
    assert any("closed form" in p for p in check_verify(shifted, 5, (2,), params, 0.25, 1e-6))
    # the wrong variety: E/F_5 with trace 1 has other point counts
    assert check_verify(report, 5, (1,), params, 0.25, 1e-6)
    # a certificate looser than the one asked for
    loose = dataclasses.replace(report, allowance=report.allowance + 0.3)
    assert any(p.startswith("allowance") for p in check_verify(loose, 5, (2,), params, 0.25, 1e-6))
    long_tail = dataclasses.replace(report, spectral=dataclasses.replace(report.spectral, tail_bound=0.3))
    assert any(p.startswith("tail bound") for p in check_verify(long_tail, 5, (2,), params, 0.25, 1e-6))


def test_self_times_sum_to_the_op_span(tmp_path):
    rounds = WORKLOADS["e5-battery"](11, tmp_path)[0][:4]
    tracer = Tracer()
    with tracer:
        for i, (op,) in enumerate(rounds):
            tracer.run_op(i, op.run)
    own = tracer.self_times()
    for i in range(len(rounds)):
        idx = [k for k, span in enumerate(tracer.spans) if span[4] == i]
        root = [k for k in idx if tracer.spans[k][0] == OP_SPAN]
        assert len(root) == 1
        _, start, end, _, _ = tracer.spans[root[0]]
        layers = math.fsum(own[k] for k in idx if k != root[0])
        # what the layers do not cover is the harness and tracing cost of the op
        gap = (end - start) - layers
        assert 0.0 <= gap <= 0.01 * (end - start) + 1e-3, (gap, end - start)
        assert any(tracer.spans[k][0] == "formula.verify" for k in idx)
    names = {span[0] for span in tracer.spans}
    assert {"bumps.phi_ladder", "bumps.tail_majorant", "formula.trace_j"} <= names
    # uninstall restored the package
    assert weilflow.verify.__module__ == "weilflow.formula"


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([0.5, 0.1, 0.3]) == (0.5, 100, 3)
    times = [float(i) for i in range(200)]
    value, pct, n = run.tail(times)
    assert (pct, n) == (95, 200)
    assert sum(t > value for t in times) == 10
    value, pct, n = run.tail(times[:19])
    assert pct == 47 and sum(t > value for t in times[:19]) == 10

"""The benchmark's correctness checks (perfbench/checks.py) still read the
reports they check.

check_verify reads spectral.alternating_full, .closed_form, .tail_bound and
the report's allowance; check_zeta reads zeta's JSON "P" and compares it with
P_j from Newton's identities. A report change that broke either would mark
every benchmark op as wrong, and only perfbench's own tests would notice.
This runs one E/F_5 verify, as the e5-battery workload does, and one g = 4
zeta, as g4-tables does, and checks them.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402

import weilflow  # noqa: E402
from weilflow.bumps import BumpFunction  # noqa: E402
from weilflow.cli import main  # noqa: E402
from weilflow.weil import parse_weil_datum  # noqa: E402


def test_check_verify_accepts_an_e5_verify_report():
    datum = parse_weil_datum({"q": 5, "trace": 2})
    bump = BumpFunction(center=math.log(5), width=0.5)
    report = weilflow.verify(datum, bump, tol=1e-6, trunc_budget=0.25)
    params = (bump.center, bump.width, bump.amplitude)
    assert checks.check_verify(report, 5, (2,), params, 0.25, 1e-6) == []


def test_check_zeta_accepts_a_g4_zeta(tmp_path):
    # a g = 4 draw that the g4-tables screen accepts
    q, traces = 5, (-3, 0, -3, 3)
    path = tmp_path / "g4.json"
    path.write_text(json.dumps({"q": q, "g": 4, "weil_poly": checks.weil_poly(q, traces)}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["zeta", "--input", str(path), "--format", "json"]) == 0
    assert checks.check_zeta(out.getvalue(), q, traces) == []

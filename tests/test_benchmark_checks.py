"""The benchmark's correctness check (perfbench/checks.py) still reads verify.

check_verify reads spectral.alternating_full, .closed_form, .tail_bound and
the report's allowance. A report change that broke it would mark every
benchmark op as wrong, and only perfbench's own tests would notice. This runs
one E/F_5 verify, as the e5-battery workload does, and checks it against
check_verify.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402

import weilflow  # noqa: E402
from weilflow.bumps import BumpFunction  # noqa: E402
from weilflow.weil import parse_weil_datum  # noqa: E402


def test_check_verify_accepts_an_e5_verify_report():
    datum = parse_weil_datum({"q": 5, "trace": 2})
    bump = BumpFunction(center=math.log(5), width=0.5)
    report = weilflow.verify(datum, bump, tol=1e-6, trunc_budget=0.25)
    params = (bump.center, bump.width, bump.amplitude)
    assert checks.check_verify(report, 5, (2,), params, 0.25, 1e-6) == []

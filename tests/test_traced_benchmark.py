"""The traced benchmark run (perfbench/run.py --trace 1) still reads verify.

perfbench/spans.py wraps weilflow's functions from outside the package. Its
ladder observer reads phi_ladder's count as the fifth positional argument
and the panel count as the third item of the result, and multiplies them.
This runs one E/F_5 verify under spans.Tracer, as the e5-battery workload
does, and checks that what it records is plain ints and JSON, that the
per-layer metrics bumps.tail_majorant.calls and .self_s still see one
majorant call per j, and that the formula.trace_j stage the benchmark's own
tests read is the route verify takes.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

import weilflow  # noqa: E402
from weilflow.bumps import BumpFunction  # noqa: E402
from weilflow.weil import parse_weil_datum  # noqa: E402


def test_traced_verify_records_plain_ladder_counts(tmp_path):
    datum = parse_weil_datum({"q": 5, "trace": 2})
    bump = BumpFunction(center=math.log(5), width=0.5)
    with spans.Tracer() as tracer:
        report = tracer.run_op(0, lambda: weilflow.verify(datum, bump, trunc_budget=0.25))
    assert report.passed
    assert weilflow.verify.__module__ == "weilflow.formula"  # unwrapped again
    names = [span[0] for span in tracer.spans]
    assert names[0] == spans.OP_SPAN and names.count("bumps.phi_ladder") == 1
    assert all(type(v) is int and v > 0 for v in tracer.ladder.values())
    assert tracer.ladder["points"] == 301
    # E/F_5 at budget 0.25: one majorant per j = 0, 1, 2, each at the floor
    assert names.count("bumps.tail_majorant") == 3
    assert [t.nu_max for t in report.spectral.per_j] == [300, 300, 300]
    # one formula.trace_j span, a child of formula.spectral_side_zero_sum,
    # and the ladder runs inside it
    (stage,) = [k for k, name in enumerate(names) if name == "formula.trace_j"]
    assert names[tracer.spans[stage][3]] == "formula.spectral_side_zero_sum"
    assert tracer.spans[names.index("bumps.phi_ladder")][3] == stage
    json.dumps(tracer.spans)
    json.dumps(tracer.ladder)
    path = tmp_path / "spans.jsonl"
    tracer.write(path, tracer.spans[0][1])
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == names

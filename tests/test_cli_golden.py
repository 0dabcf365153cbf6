"""Golden bytes of every command in every output format.

Each file under tests/golden/ holds the exact stdout of
`weilflow <command> --input <datum> --format <fmt>` plus the command's
arguments in ARGS, for one datum. A change that is meant to move these
bytes rewrites the files and says in CHANGES.md which numbers moved; any
other change must leave them alone. The `verify` files hold quadrature
sums to the last bit, so they also pin numpy's BLAS kernel: another CPU
or BLAS build may move T_j, `quad_error` and the certificate by ulps.
"""

import json
import math
from pathlib import Path

import pytest

from weilflow.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = {
    "e5a2": {"q": 5, "trace": 2},
    "g2": {"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25]},
}
EXTENSIONS = {"json": "json", "text": "txt", "csv": "csv"}
ARGS = {
    "validate": [],
    "zeta": [],
    "count": ["--max", "12"],
    "orbits": ["--max", "12"],
    "spectrum": [],
    "verify": ["--alpha", "c=%r,w=0.5" % math.log(5)],  # the default budget 0.25
}


@pytest.mark.parametrize("fmt", sorted(EXTENSIONS))
@pytest.mark.parametrize("command", sorted(ARGS))
@pytest.mark.parametrize("name", sorted(DATA))
def test_cli_output_matches_golden(capsys, tmp_path, name, command, fmt):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(DATA[name]))
    rc = main([command, "--input", str(path), "--format", fmt] + ARGS[command])
    out = capsys.readouterr()
    assert rc == 0
    assert out.err == ""
    expected = (GOLDEN / ("%s_%s.%s" % (name, command, EXTENSIONS[fmt]))).read_text()
    assert out.out == expected


# count --max 64 on a g = 4 product over F_9, where N_64 has about 250
# digits and the Smith forms have several divisors other than 1 and N_n
G4Q9 = {"q": 9, "g": 4, "weil_poly": [1, -5, 29, -94, 330, -846, 2349, -3645, 6561]}


@pytest.mark.parametrize("fmt", sorted(EXTENSIONS))
def test_count_at_scale_matches_golden(capsys, tmp_path, fmt):
    path = tmp_path / "g4q9.json"
    path.write_text(json.dumps(G4Q9))
    rc = main(["count", "--input", str(path), "--format", fmt, "--max", "64"])
    out = capsys.readouterr()
    assert rc == 0 and out.err == ""
    assert out.out == (GOLDEN / ("g4q9_count64.%s" % EXTENSIONS[fmt])).read_text()

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

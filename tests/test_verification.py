"""Answer checks raise VerificationError, and still run under python -O."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Z2Lattice.contains answers with the first basis tag alone: a wrong combination
# that every caller must catch before handing it back.
SCRIPT = """
import json
from fractions import Fraction

from jqforge import cli, hit, linalg, relations
from jqforge.errors import VerificationError
from jqforge.poly import parse_poly


def wrong_combination(self, target):
    return {next(iter(self.basis[0][2])): Fraction(1)}


linalg.Z2Lattice.contains = wrong_combination
out = {"debug": __debug__}
for name, call in [
    ("binary", lambda: relations.binary_decompose(5)),
    ("hit", lambda: hit.hit_decide_graded(parse_poly("x1^4 + x2^4", 2))),
]:
    try:
        call()
        out[name] = "returned"
    except VerificationError as exc:
        out[name] = "VerificationError: " + str(exc)
out["exit"] = cli.main(["decompose", "--k", "5", "--mode", "binary"])
print(json.dumps(out))
"""


def test_wrong_lattice_answer_is_caught_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["debug"] is False
    assert out["binary"].startswith("VerificationError: decomposition of Jq5 fails evaluation")
    assert out["hit"].startswith("VerificationError: hit certificate does not reconstruct")
    assert out["exit"] == 5
    assert proc.stderr.startswith("error: decomposition of Jq5 fails evaluation")

"""Answer checks raise VerificationError, and still run under python -O."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Z2Lattice.contains answers with its first coefficient one too large: a wrong
# combination that every caller must catch before handing it back.
SCRIPT = """
import json

from jqforge import cli, hit, linalg, relations
from jqforge.errors import VerificationError
from jqforge.poly import parse_poly


right_combination = linalg.Z2Lattice.contains


def wrong_combination(self, target):
    combo = right_combination(self, target)
    first = next(iter(combo))
    return {**combo, first: combo[first] + 1}


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


def run_optimized(script):
    """(last stdout line as JSON, stderr) of a script run under python -O."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_wrong_lattice_answer_is_caught_under_optimize():
    out, stderr = run_optimized(SCRIPT)
    assert out["debug"] is False
    assert out["binary"].startswith("VerificationError: decomposition of Jq5 fails evaluation")
    assert out["hit"].startswith("VerificationError: hit certificate does not reconstruct")
    assert out["exit"] == 5
    assert stderr.startswith("error: decomposition of Jq5 fails evaluation")


# The degree-by-degree series solver with a wrong step: each Jq^k image doubled.
# Its residual is built through the kernel's apply_element, which stays right.
SERIES_SCRIPT = """
import json

from jqforge import action, cli, series
from jqforge.errors import VerificationError
from jqforge.poly import parse_poly


def doubled(k, f):
    return 2 * action.apply_jq(k, f)


series.apply_jq = doubled
x = parse_poly("x1", 1)
out = {"debug": __debug__}
try:
    series.geometric_inverse(1, x, 6)
    out["geometric"] = "returned"
except VerificationError as exc:
    out["geometric"] = "VerificationError: " + str(exc)
out["exit"] = cli.main(["geom", "--k", "1", "--poly", "x1", "--order", "6"])
print(json.dumps(out))
"""


def test_wrong_series_step_is_caught_under_optimize():
    out, stderr = run_optimized(SERIES_SCRIPT)
    assert out["debug"] is False
    assert out["geometric"] == "VerificationError: geometric inverse of Jq1 fails its residual check"
    assert out["exit"] == 5
    assert stderr == "error: geometric inverse of Jq1 fails its residual check\n"


# The one-variable Adem gauge: a wrong combination from the echelon, and no
# combination at all, which the gauge's theorem rules out.
ADEM_SCRIPT = """
import json
from fractions import Fraction

from jqforge import cli, linalg, norms
from jqforge.errors import VerificationError
from jqforge.opalg import OpElement


def wrong_combination(self, target):
    _, combo = next(iter(self.rows.values()))
    return {next(iter(combo)): Fraction(1)}


def no_combination(self, target):
    return None


out = {"debug": __debug__}
for name, membership in [("wrong", wrong_combination), ("none", no_combination)]:
    linalg.SparseEchelon.membership = membership
    try:
        norms.adem_valuation(OpElement.jq(3))
        out[name] = "returned"
    except VerificationError as exc:
        out[name] = "VerificationError: " + str(exc)
linalg.SparseEchelon.membership = wrong_combination
out["exit"] = cli.main(["norm", "--which", "adem", "--op", "Jq3"])
print(json.dumps(out))
"""


def test_wrong_adem_witness_is_caught_under_optimize():
    out, stderr = run_optimized(ADEM_SCRIPT)
    assert out["debug"] is False
    assert out["wrong"] == "VerificationError: adem witness of Jq3 fails evaluation"
    assert out["none"] == "VerificationError: Jq3 is outside the span of its 3 long words"
    assert out["exit"] == 5
    assert stderr == "error: adem witness of Jq3 fails evaluation\n"

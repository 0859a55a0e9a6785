"""Byte-for-byte CLI outputs pinned in tests/data/cli_golden.json.

Each case is one argv run through `cli.main` in process, in text and in
--json form, with and without a JQFORGE_CONFIG file; the exact stdout,
stderr and exit code are compared.  The file was recorded before the
CLI was restructured around one payload per command, so it holds the
outputs every later form of the CLI must keep.

To record it again (only when an output changes on purpose):

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from jqforge.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

CONFIG_FILE = (
    "# every key set, none at its default\n"
    "nVars = 2\ndeg_bound = 6\nmaxJ = 3\norder = 6\ndigits = 6\nrho = 1/4\n"
)

PASS_SERIES = (
    '{"center":null,"order":6,"terms":{"1":"1","2":"1","3":"2","4":"6","5":"24","6":"120"}}'
)
FAIL_SERIES = '{"center":null,"order":4,"terms":{"0":"1","1":"1","2":"1","3":"1","4":"1"}}'
CENTERED_SERIES = (
    '{"center":"1","order":8,"terms":{"0":"1","1":"1","2":"-1/2","3":"1/2","4":"-1/2"}}'
)

# (argv, stdin); every entry runs four ways: text / --json, config file or not
BASE_CASES = [
    (["act", "--op", "Jq1", "--poly", "x1^3", "--vars", "1"], None),
    (["act", "--op", "Jq2.Jq1", "--poly", "1/3*x1^2 + x2", "--vars", "2", "--digits", "8"], None),
    (["act", "--op", "Jq1", "--poly", "1/3*x1^2 - 1/5*x1", "--vars", "1"], None),
    (["act", "--op", "Jq1", "--poly", "1/2*x1^2", "--vars", "1", "--digits", "8"], None),
    (["adem", "--k", "3"], None),
    (["adem", "--k", "4", "--partitions", "3"], None),
    (["adem", "--k", "3", "--words", "3 2,1 1,2 1,1,1"], None),
    (["chi", "--k", "4"], None),
    (["chi", "--k", "4", "--method", "partitions"], None),
    (["phi", "--op", "Jq2.Jq1 + Jq1.Jq2"], None),
    (["norm", "--which", "adem", "--op", "Jq3"], None),
    (["norm", "--which", "adem", "--op", "0"], None),
    # a relation: zero on one variable, so inf like the zero element
    (["norm", "--which", "adem", "--op", "3*Jq3 - 6*Jq2.Jq1 + 3*Jq1.Jq2 + Jq1.Jq1.Jq1"], None),
    # degree 20: decided by 20 words, where all words of degree 20 number 2^19
    (["norm", "--which", "adem", "--op", "Jq20"], None),
    (["norm", "--which", "ker", "--op", "Jq2.Jq1 - Jq1.Jq2"], None),
    (["norm", "--which", "ker", "--op", "0"], None),
    # j = 2: the only case that reaches the kernel-power loop past its first step
    (["norm", "--which", "ker", "--op", "Jq1.Jq1.Jq1.Jq1"], None),
    (["norm", "--which", "estimate", "--op", "Jq2", "--nvars", "2", "--deg-bound", "6"], None),
    (["norm", "--which", "estimate", "--op", "0"], None),
    # degree 17: the sweep reaches the element's own degree, whatever degBound says
    (["norm", "--which", "estimate", "--op", "Jq17"], None),
    (["norm", "--which", "degree", "--op", "Jq3"], None),
    (["norm", "--which", "degree", "--op", "Jq3", "--rho", "1/8"], None),
    (["hit", "--poly", "3*x1^7", "--vars", "1"], None),
    (["hit", "--poly", "4*x1^7", "--vars", "1"], None),
    (["hit", "--poly", "x1^2*x2 + x1*x2^2", "--vars", "2"], None),
    # x1^23 = Jq8((1/6435)*x1^15): the default cap of 6 misses it and says so
    (["hit", "--poly", "x1^23"], None),
    (["hit", "--poly", "x1^23", "--max-j", "22"], None),
    # hit in 3 and in 4 variables; refused mod 2; hit mod 2 but not 2-adically
    (["hit", "--poly", "x1^5*x2^4*x3^3", "--vars", "3"], None),
    (["hit", "--poly", "x1^2*x2^2*x3^2*x4^3", "--vars", "4"], None),
    (["hit", "--poly", "x1^3*x2^2*x3^2", "--vars", "3"], None),
    (["hit", "--poly", "2*x1^2 + 4*x1*x2", "--vars", "2"], None),
    (["cohit", "--d", "7"], None),
    (["cohit", "--d", "1"], None),
    # 2047 = 2^11 - 1: order 2 from the least valuation over 1023 binomials
    (["cohit", "--d", "2047"], None),
    (["ore", "--theta", "Jq1", "--eta", "Jq2"], None),
    (["decompose", "--k", "3", "--mode", "q12"], None),
    (["decompose", "--k", "4", "--mode", "q12", "--digits", "6"], None),
    (["decompose", "--k", "5", "--mode", "binary"], None),
    (["rank", "--d", "4"], None),
    # rank reads no degBound, so its flag is a usage error
    (["rank", "--d", "5", "--nvars", "2", "--deg-bound", "7"], None),
    # nVars reaches rank's config and its bounds
    (["rank", "--d", "5", "--nvars", "2"], None),
    (["sode", "--op", "Jq1 - 1", "--rhs", "0", "--center", "1", "--a0", "1", "--order", "8"], None),
    (["sode", "--op", "Jq1 - 1", "--rhs", "0", "--center", "1", "--a0", "1"], None),
    (["sode", "--op", "Jq1 - 1", "--rhs", "x1", "--center", "0", "--a0", "1"], None),
    # equation 0 reads 0 = 1: the first equation that contradicts those before it
    (["sode", "--op", "Jq2", "--rhs", "x1^2 + 1", "--center", "0", "--a0", "1", "--order", "7"], None),
    (["geom", "--k", "1", "--poly", "x1", "--order", "6"], None),
    (["geom", "--k", "2", "--poly", "x1^2 + 1/3*x1"], None),
    (["tate", "--series", "-"], PASS_SERIES),
    (["tate", "--series", "-"], FAIL_SERIES),
    (["tate", "--series", "-"], CENTERED_SERIES),
    (["verify-paper"], None),
    # one error of each kind: parse (2), domain (3), not found (4) is the
    # inconsistent sode above, usage (2, from argparse)
    (["act", "--op", "Jq1 +", "--poly", "x1", "--vars", "1"], None),
    (["sode", "--op", "Jq1", "--rhs", "0", "--center", "x", "--a0", "1"], None),
    (["cohit", "--d", "0"], None),
    # act reads no nVars, so its flag is a usage error; rank's meets the range check
    (["act", "--op", "Jq1", "--poly", "x1", "--nvars", "0"], None),
    (["rank", "--d", "5", "--nvars", "0"], None),
    # each flag has one spelling: a prefix of --digits is a usage error
    (["act", "--op", "Jq1", "--poly", "1/3*x1^2", "--d", "4"], None),
    (["norm", "--which", "degree", "--op", "Jq1", "--rho", "2"], None),
    (["chi", "--k", "2", "--bogus"], None),
    (["act", "--help"], None),
]


def expand_cases():
    cases = []
    for argv, stdin in BASE_CASES:
        for fmt in ([], ["--json"]):
            for config in (False, True):
                cases.append({"argv": argv + fmt, "stdin": stdin, "config": config})
    return cases


def run_case(case, config_path):
    """(exit code, stdout, stderr) of one case run through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    saved_env = {key: os.environ.pop(key, None) for key in ("JQFORGE_CONFIG", "COLUMNS")}
    saved_stdin = sys.stdin
    try:
        os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal width
        if case["config"]:
            os.environ["JQFORGE_CONFIG"] = str(config_path)
        if case["stdin"] is not None:
            sys.stdin = io.StringIO(case["stdin"])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(case["argv"]))
    finally:
        sys.stdin = saved_stdin
        for key, value in saved_env.items():
            os.environ.pop(key, None)
            if value is not None:
                os.environ[key] = value
    return rc, out.getvalue(), err.getvalue()


def case_id(case):
    return " ".join(case["argv"]) + (" +config" if case["config"] else "")


_RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {"cases": []}


def test_golden_file_matches_case_list():
    assert _RECORDED["config_file"] == CONFIG_FILE
    assert [(c["argv"], c["stdin"], c["config"]) for c in _RECORDED["cases"]] == [
        (c["argv"], c["stdin"], c["config"]) for c in expand_cases()
    ]


@pytest.mark.parametrize("case", _RECORDED["cases"], ids=case_id)
def test_cli_output_is_byte_identical(case, tmp_path):
    config_path = tmp_path / "jqforge.cfg"
    config_path.write_text(_RECORDED["config_file"], encoding="utf-8")
    assert run_case(case, config_path) == (case["rc"], case["out"], case["err"])


def record():
    import tempfile

    cases = expand_cases()
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "jqforge.cfg"
        config_path.write_text(CONFIG_FILE, encoding="utf-8")
        for case in cases:
            case["rc"], case["out"], case["err"] = run_case(case, config_path)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({"config_file": CONFIG_FILE, "cases": cases}, indent=1) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    record()

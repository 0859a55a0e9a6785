"""Start-up contract: a CLI query loads only the modules its command runs.

Each query is its own process, so every module it imports is loaded and
executed once per query.  These checks run in fresh interpreters, because
the test process itself has imported the whole package long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def loaded_after(code):
    """The names in sys.modules of a fresh interpreter after it runs code."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("JQFORGE_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def package(names):
    return {"jqforge." + name for name in names}


def test_importing_the_cli_loads_no_command_module():
    loaded = loaded_after("import jqforge.cli")
    assert "jqforge.cli" in loaded
    command_modules = package(["opalg", "relations", "witt", "norms", "hit", "series", "golden"])
    assert not loaded & (command_modules | {"dataclasses"})


def test_hit_skips_the_operator_algebra():
    loaded = loaded_after(
        "from jqforge import cli\ncli.main(['hit', '--poly', 'x1^5*x2^4*x3^3', '--vars', '3'])"
    )
    assert package(["hit", "linalg"]) <= loaded
    skipped = package(["opalg", "relations", "witt", "norms", "series", "golden"]) | {"dataclasses"}
    assert not loaded & skipped


def test_rank_loads_no_hit_norm_series_or_ledger_module():
    loaded = loaded_after("from jqforge import cli\ncli.main(['rank', '--d', '3'])")
    assert "jqforge.relations" in loaded
    assert not loaded & package(["hit", "norms", "series", "golden"])


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--k", "3", "--mode", "binary"],
        ["ore", "--theta", "Jq1", "--eta", "Jq1"],
        ["rank", "--d", "2"],
        ["verify-paper"],
    ],
)
def test_algebra_commands_load_the_coordinates(argv):
    loaded = loaded_after(f"from jqforge import cli\ncli.main({argv!r})")
    assert package(["relations", "witt"]) <= loaded


def test_lazy_reexports_resolve():
    lazy = ["OpElement", "chi", "eval_element", "format_op", "parse_op", "phi_reduce"]
    loaded = loaded_after(
        "import sys, jqforge\n"
        "assert 'jqforge.opalg' not in sys.modules\n"
        f"assert set({lazy!r}) <= set(dir(jqforge)), dir(jqforge)\n"
        "names = {}\n"
        "exec('from jqforge import *', names)\n"
        "assert set(jqforge.__all__) <= set(names), set(jqforge.__all__) - set(names)\n"
        "assert jqforge.OpElement is jqforge.opalg.OpElement\n"
        "from jqforge import OpElement\n"
        "assert OpElement is names['OpElement']\n"
    )
    assert "jqforge.opalg" in loaded

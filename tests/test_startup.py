"""Start-up and shutdown contracts of a CLI query.

Each query is its own process, so every module it imports is loaded and
executed once per query: a query loads only the modules its command
runs.  It also leaves without tearing the interpreter down, after the
atexit handlers and the flush of its output.  These checks run in fresh
interpreters, because the test process itself has imported the whole
package long before, and must not exit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jqforge.cli import main

ROOT = Path(__file__).resolve().parent.parent


def fresh(args, **kwargs):
    """Run a fresh interpreter with args on the package sources, capturing text output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("JQFORGE_CONFIG", None)
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *args], text=True, env=env, timeout=120, **kwargs)


def loaded_after(code):
    """The names in sys.modules of a fresh interpreter after it runs code."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = fresh(["-c", script])
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


def test_atexit_handlers_run_before_the_process_leaves():
    # cli.run calls the private atexit._run_exitfuncs: were it gone, run would
    # raise before os._exit and this would exit 1 with a traceback
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print('handler ran', file=sys.stderr))\n"
        "sys.argv = ['jqforge', 'cohit', '--d', '7']\n"
        "runpy.run_module('jqforge.cli', run_name='__main__')\n"
        "print('teardown reached', file=sys.stderr)\n"
    )
    proc = fresh(["-c", script])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "handler ran\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["cohit", "--d", "7"], 0),
        (["cohit", "--d", "x"], 2),
        (["cohit", "--d", "0"], 3),
        (["sode", "--op", "Jq1 - 1", "--rhs", "x1", "--center", "0", "--a0", "1"], 4),
    ],
)
def test_exit_codes_through_the_module_are_mains(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    proc = fresh(["-m", "jqforge.cli", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_the_ledger_text_arrives_whole_through_a_pipe(capsys):
    assert main(["verify-paper"]) == 0
    text = capsys.readouterr().out
    assert len(text) > 2048
    proc = fresh(["-m", "jqforge.cli", "verify-paper"])
    assert (proc.returncode, proc.stdout) == (0, text)


def test_a_closed_stdout_exits_120_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = fresh(["-m", "jqforge.cli", "verify-paper"], stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (120, "")


@pytest.mark.parametrize("argv", [["--help"], ["hit", "--help"]], ids=["top", "subcommand"])
def test_help_to_a_closed_stdout_exits_120_without_a_traceback(argv):
    # argparse swallows the write error of its help; the parser lets it
    # through.  The error shows at the write only with stdout unbuffered
    # (-u): buffered, it waits for run's final flush, which exits 120 anyway.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = fresh(["-u", "-m", "jqforge.cli", *argv], stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (120, "")


def test_a_usage_error_with_stderr_closed_exits_2():
    # started with fd 2 closed, sys.stderr is None: the error message is dropped
    proc = fresh(["-m", "jqforge.cli", "cohit", "--d", "x"], stderr=None, preexec_fn=lambda: os.close(2))
    assert proc.returncode == 2


def test_main_in_process_returns_its_code():
    proc = fresh(["-c", "from jqforge import cli\nprint('returned', cli.main(['cohit', '--d', '0']))"])
    assert (proc.returncode, proc.stdout) == (0, "returned 3\n")

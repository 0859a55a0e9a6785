import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jqforge import cli, golden
from jqforge.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_act_example(capsys):
    rc, out, _ = run(capsys, "act", "--op", "Jq1", "--poly", "x1^3", "--vars", "1")
    assert rc == 0
    assert out == "3*x1^4\n"


def test_adem_example(capsys):
    rc, out, _ = run(capsys, "adem", "--k", "3")
    assert rc == 0
    assert out == "basis [[3,-6,3,1]] over [Jq3, Jq2.Jq1, Jq1.Jq2, Jq1.Jq1.Jq1]\n"


def test_hit_example(capsys):
    # the text form is the canonical JSON of the decision
    rc, out, _ = run(capsys, "hit", "--poly", "3*x1^7", "--vars", "1")
    assert (rc, out) == (0, '{"hit":false}\n')
    rc, out, _ = run(capsys, "hit", "--poly", "4*x1^7", "--vars", "1")
    assert (rc, out) == (0, '{"hit":true,"witness":[{"cofactor":"x1^4","k":3}]}\n')


def test_hit_witness_text(capsys):
    rc, out, _ = run(capsys, "hit", "--poly", "2*x1^3", "--vars", "1")
    assert rc == 0
    assert json.loads(out) == {"hit": True, "witness": [{"cofactor": "x1^2", "k": 1}]}


def test_act_multivariable(capsys):
    rc, out, _ = run(
        capsys, "act", "--op", "Jq2.Jq1", "--poly", "x1^2 + x2", "--vars", "2"
    )
    assert rc == 0
    assert out == "x2^4 + 6*x1^5\n"


def test_json_report_embeds_config_and_is_byte_stable(capsys):
    argv = ("act", "--op", "Jq1", "--poly", "x1^3", "--vars", "1", "--json")
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["command"] == "act"
    assert obj["result"] == "3*x1^4"
    assert obj["config"] == {
        "nVars": 4,
        "degBound": 16,
        "maxJ": 6,
        "order": 12,
        "digits": 0,
        "rho": "1/2",
    }
    # canonical form: sorted keys, no whitespace
    assert out1.strip() == json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_adem_partitions_flag(capsys):
    rc, out, _ = run(capsys, "adem", "--k", "4", "--partitions", "3", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["words"] == ["Jq4", "Jq2.Jq1.Jq1", "Jq1.Jq2.Jq1", "Jq1.Jq1.Jq2", "Jq1.Jq1.Jq1.Jq1"]
    assert obj["basis"] == [["24", "-60", "60", "-12", "5"]]


def test_adem_explicit_words(capsys):
    rc, out, _ = run(capsys, "adem", "--k", "3", "--words", "3 2,1 1,2 1,1,1")
    assert rc == 0
    assert "basis [[3,-6,3,1]]" in out


def test_chi_text(capsys):
    rc, out, _ = run(capsys, "chi", "--k", "2")
    assert rc == 0
    assert out == "-Jq2 + Jq1.Jq1\n"


def test_chi_methods_agree(capsys):
    _, rec, _ = run(capsys, "chi", "--k", "5", "--method", "recursion")
    _, par, _ = run(capsys, "chi", "--k", "5", "--method", "partitions")
    assert rec == par


def test_phi_text(capsys):
    rc, out, _ = run(capsys, "phi", "--op", "Jq2.Jq1 + Jq1.Jq2")
    assert rc == 0
    assert out == "Sq3 + Sq2.Sq1\n"


def test_norm_adem_text(capsys):
    rc, out, _ = run(capsys, "norm", "--which", "adem", "--op", "Jq3")
    assert rc == 0
    assert out == "valuation 2, norm 1/4 (ademWordLength)\n"


def test_norm_degree_uses_rho(capsys):
    rc, out, _ = run(capsys, "norm", "--which", "degree", "--op", "Jq3", "--rho", "1/4")
    assert rc == 0
    assert "norm 1/64" in out


def test_cohit_values(capsys):
    rc, out, _ = run(capsys, "cohit", "--d", "7")
    assert (rc, out) == (0, "2\n")
    rc, out, _ = run(capsys, "cohit", "--d", "1")
    assert (rc, out) == (0, "infinite\n")


def test_cohit_of_a_large_degree_reads_digit_sums():
    # the least valuation over 20000 binomials of up to about 8,400 digits
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("JQFORGE_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-m", "jqforge.cli", "cohit", "--d", "40000"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (0, "1\n")


def test_rank_json_carries_bounds(capsys):
    rc, out, _ = run(capsys, "rank", "--d", "3", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["rank"] == 3
    assert obj["bounds"]["nVars"] == 3
    assert obj["bounds"]["degBound"] >= 5


def test_decompose_q12(capsys):
    rc, out, _ = run(capsys, "decompose", "--k", "3", "--mode", "q12")
    assert rc == 0
    assert out == "2*Jq2.Jq1 - Jq1.Jq2 - 1/3*Jq1.Jq1.Jq1\n"


def test_digits_flag_renders_unit_fractions(capsys):
    rc, out, _ = run(
        capsys, "act", "--op", "Jq1", "--poly", "1/3*x1^2", "--vars", "1", "--digits", "8"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "2/3*x1^3"
    # 2/3 doubles 1/3, shifting its digit stream left by one place
    assert lines[1] == "digits 2/3 = 01101010"


def test_digits_skip_values_without_expansion(capsys):
    # halves sit outside the dyadic integers, so no digit line appears
    rc, out, _ = run(
        capsys, "act", "--op", "Jq1", "--poly", "1/2*x1^2", "--vars", "1", "--digits", "8"
    )
    assert rc == 0
    assert out == "x1^3\n" or "digits" not in out


def test_sode_solve_and_residual(capsys):
    rc, out, _ = run(
        capsys,
        "sode",
        "--op", "Jq1 - 1",
        "--rhs", "0",
        "--center", "1",
        "--a0", "1",
        "--order", "8",
    )
    assert rc == 0
    first, second = out.splitlines()
    obj = json.loads(first)
    assert obj["terms"]["2"] == "-1/2"
    assert second == "residual verified through degree 7"


def test_sode_no_solution_exit_code(capsys):
    rc, out, err = run(
        capsys,
        "sode",
        "--op", "Jq1 - 1",
        "--rhs", "x1",
        "--center", "0",
        "--a0", "1",
    )
    assert rc == 4
    assert "index 0" in err


def test_geom_factorials(capsys):
    rc, out, _ = run(capsys, "geom", "--k", "1", "--poly", "x1", "--order", "6")
    assert rc == 0
    obj = json.loads(out)
    assert obj["terms"] == {"1": "1", "2": "1", "3": "2", "4": "6", "5": "24", "6": "120"}


def test_tate_from_file(tmp_path, capsys):
    path = tmp_path / "series.json"
    path.write_text(
        '{"center":null,"order":6,"terms":{"1":"1","2":"1","3":"2","4":"6","5":"24","6":"120"}}'
    )
    rc, out, _ = run(capsys, "tate", "--series", str(path))
    assert (rc, out) == (0, "pass\n")


def test_tate_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO('{"center":null,"order":4,"terms":{"0":"1","1":"1","2":"1","3":"1","4":"1"}}'),
    )
    rc, out, _ = run(capsys, "tate", "--series", "-")
    assert (rc, out) == (0, "fail\n")


@pytest.mark.parametrize(
    "text",
    [
        '{"order":3,"terms":[1,2]}',
        '{"order":"x","terms":{}}',
        '{"order":-1,"terms":{}}',
        '{"order":true,"terms":{}}',
        '{"order":3,"terms":{"a":"1"}}',
        '{"order":3,"terms":{"-1":"1"}}',
        '{"order":3,"terms":{"0":5}}',
        '{"order":3,"terms":{},"center":5}',
        '{"order":3,"terms":{},"arity":"2"}',
        '{"order":3,"terms":{"1":"1","1,2":"1"}}',
        '{"order":3,"arity":2,"terms":{"1":"1"}}',
        '{"order":3,"arity":0,"terms":{"1":"1"}}',
    ],
)
def test_tate_malformed_series_is_a_parse_error(capsys, monkeypatch, text):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, err = run(capsys, "tate", "--series", "-")
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ore_pair_prints_both_factors(capsys):
    rc, out, _ = run(capsys, "ore", "--theta", "Jq1", "--eta", "Jq2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("x = ")
    assert lines[1].startswith("y = ")


def test_ore_json_reports_the_variables_of_its_check(tmp_path, capsys, monkeypatch):
    # theta*x has degree 5, where a re-check in two variables is a proof,
    # whatever nVars the config holds
    cfg = tmp_path / "jqforge.cfg"
    for config in (None, "nVars = 1\n", "nVars = 7\n"):
        if config is not None:
            cfg.write_text(config)
            monkeypatch.setenv("JQFORGE_CONFIG", str(cfg))
        rc, out, _ = run(capsys, "ore", "--theta", "Jq1", "--eta", "Jq2", "--json")
        assert rc == 0
        assert json.loads(out)["bounds"] == {"nVars": 2}


def test_parse_error_exit_2(capsys):
    rc, _, err = run(capsys, "act", "--op", "Jq1 +", "--poly", "x1", "--vars", "1")
    assert rc == 2
    assert "error:" in err


def test_domain_error_exit_3(capsys):
    rc, _, err = run(capsys, "cohit", "--d", "0")
    assert rc == 3
    assert "error:" in err


def test_internal_error_exit_70_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "_cmd_cohit", broken)
    rc, out, err = run(capsys, "cohit", "--d", "3")
    assert (rc, out) == (70, "")
    assert err == "internal error: KeyError: 'lost'\n"


def test_unknown_flag_exit_2_with_usage(capsys):
    rc, _, err = run(capsys, "act", "--op", "Jq1", "--poly", "x1", "--bogus")
    assert rc == 2
    assert "usage:" in err


def test_an_abbreviated_flag_exit_2_with_usage(capsys):
    rc, out, err = run(capsys, "hit", "--po", "x1^3")
    assert (rc, out) == (2, "")
    assert "usage:" in err


def test_a_config_flag_the_command_does_not_read_is_a_usage_error(capsys):
    for argv in (
        ("cohit", "--d", "7", "--nvars", "3"),
        ("rank", "--d", "5", "--deg-bound", "7"),
        ("ore", "--theta", "Jq1", "--eta", "Jq2", "--nvars", "2"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert "usage:" in err
    rc, out, _ = run(capsys, "rank", "--d", "5", "--nvars", "2", "--json")
    assert rc == 0
    assert json.loads(out)["config"]["nVars"] == 2


def _is_args_config(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "config"
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    )


def config_reads(source):
    """{command: keys its `_cmd_<name>` body reads from args.config}.

    A read is a subscript by a string constant of args.config or of a local
    bound to it; any other use of either is recorded as the key "?".
    """
    reads = {}
    for func in ast.parse(source).body:
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("_cmd_")):
            continue
        aliases = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and _is_args_config(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        parents = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
        keys = set()
        for node in ast.walk(func):
            is_alias = isinstance(node, ast.Name) and node.id in aliases
            if not (_is_args_config(node) or is_alias and isinstance(node.ctx, ast.Load)):
                continue
            parent = parents[node]
            if isinstance(parent, ast.Assign) and parent.value is node:
                continue
            key = getattr(parent, "slice", None) if isinstance(parent, ast.Subscript) else None
            keys.add(key.value if isinstance(key, ast.Constant) and isinstance(key.value, str) else "?")
        reads[func.name[len("_cmd_"):].replace("_", "-")] = keys
    return reads


def undeclared_config_reads(source):
    """(command, keys read, keys whose `_CONFIG` row lists it) wherever the two differ."""
    return [
        (name, keys, declared)
        for name, keys in config_reads(source).items()
        if keys != (declared := {key.name for key in cli._CONFIG if name in key.commands})
    ]


def test_each_command_reads_exactly_the_config_keys_it_declares(capsys):
    source = Path(cli.__file__).read_text(encoding="utf-8")
    reads = config_reads(source)
    assert len(reads) == 14
    assert undeclared_config_reads(source) == []
    assert {name for key in cli._CONFIG for name in key.commands} <= set(reads)
    # and its subparser holds --json and exactly those config flags
    for name, keys in reads.items():
        rc, out, _ = run(capsys, name, "--help")
        assert rc == 0 and "--json" in out
        flags = {key.name for key in cli._CONFIG if f"--{key.dest.replace('_', '-')} " in out}
        assert flags == keys, name


def test_an_undeclared_config_read_is_flagged():
    source = (
        "def _cmd_act(args):\n"
        "    cfg = args.config\n"
        "    return cfg['digits'], cfg['maxJ']\n"
        "def _cmd_decompose(args):\n"
        "    return args.config['digits']\n"
        "def _cmd_rank(args):\n"
        "    return args.config.get('nVars')\n"
    )
    assert undeclared_config_reads(source) == [
        ("act", {"digits", "maxJ"}, {"digits"}),
        ("rank", {"?"}, {"nVars"}),
    ]


def test_unknown_subcommand_exit_2(capsys):
    rc, _, err = run(capsys, "frobnicate")
    assert rc == 2
    assert "usage:" in err


def test_config_file_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "jqforge.cfg"
    cfg.write_text("# local overrides\nnVars = 2\ndegBound=10\n")
    monkeypatch.setenv("JQFORGE_CONFIG", str(cfg))
    _, out, _ = run(capsys, "act", "--op", "Jq1", "--poly", "x1", "--vars", "1", "--json")
    obj = json.loads(out)
    assert obj["config"]["nVars"] == 2
    assert obj["config"]["degBound"] == 10
    _, out, _ = run(capsys, "rank", "--d", "2", "--json", "--nvars", "7")
    assert json.loads(out)["config"]["nVars"] == 7


def test_config_file_nvars_reaches_rank_bounds(tmp_path, capsys, monkeypatch):
    # rank reads nVars from the resolved config, capped at 3
    cfg = tmp_path / "jqforge.cfg"
    cfg.write_text("nVars = 2\n")
    monkeypatch.setenv("JQFORGE_CONFIG", str(cfg))
    _, out, _ = run(capsys, "rank", "--d", "4", "--json")
    obj = json.loads(out)
    assert obj["config"]["nVars"] == obj["bounds"]["nVars"] == 2
    assert (obj["rank"], obj["bounds"]["degBound"]) == (5, 6)
    cfg.write_text("nVars = 7\n")
    _, out, _ = run(capsys, "rank", "--d", "3", "--json")
    assert json.loads(out)["bounds"]["nVars"] == 3


def test_config_file_bad_key_exit_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "jqforge.cfg"
    cfg.write_text("bogusKey=3\n")
    monkeypatch.setenv("JQFORGE_CONFIG", str(cfg))
    rc, _, err = run(capsys, "act", "--op", "Jq1", "--poly", "x1", "--vars", "1")
    assert rc == 2
    assert "unknown config key" in err


def test_verify_paper_ledger(capsys):
    rc, out, _ = run(capsys, "verify-paper")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 27
    statuses = [line.split()[0] for line in lines[:-1]]
    assert statuses.count("PASS") == 13
    assert statuses.count("DIVERGES") == 13
    assert "FAIL" not in statuses
    assert lines[-1] == "13 pass, 13 diverge, 0 fail"


def test_verify_paper_fail_row_exits_1(capsys, monkeypatch):
    # a degree norm of 1 breaks the upper comparison the row backs
    monkeypatch.setattr(golden, "degree_norm", lambda e, rho: Fraction(1))
    rc, out, _ = run(capsys, "verify-paper")
    assert rc == 1
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL     norm-sandwich-upper: ")
    assert lines[-1] == "13 pass, 12 diverge, 1 fail"
    rc, out, _ = run(capsys, "verify-paper", "--json")
    obj = json.loads(out)
    assert rc == 1 and obj["counts"] == {"PASS": 13, "DIVERGES": 12, "FAIL": 1}


def test_verify_paper_crashed_row(capsys, monkeypatch):
    def broken(d):
        raise ValueError("no rank today")

    monkeypatch.setattr(golden, "rank_estimate", broken)
    rc, out, _ = run(capsys, "verify-paper")
    lines = out.splitlines()
    assert rc == 1
    assert "FAIL     rank-small-degrees: crashed: ValueError: no rank today" in lines
    assert lines[-1] == "12 pass, 13 diverge, 1 fail"

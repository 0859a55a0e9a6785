"""Benchmark for jqforge: wall time to a verified answer, end to end and by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single closed-loop client sends one query at a time, each in a fresh
interpreter through the CLI with --json, the way CLI users pay cold caches,
and checks every answer before sending the next one.  The workload's
queries form one pass; passes repeat while the next one still fits in
--seconds, and every time metric is the median over passes.

--trace 0 prints the end-to-end metrics: wall_s (first spawn to last
answer of a pass; the client's own answer checks run between queries,
off the clock), cpu_s (user+sys of the query processes), setup_s (median
of fresh interpreters doing `import jqforge.cli`) and peak_rss_mb.
--trace 1 alternates untraced and traced passes (bench/tracer.py) in the
same way and prints the per-layer self times, span counts and work
counters, plus the tracing overhead (median traced minus median untraced
pass).  The last line of stdout is the JSON result.

BENCHMARK.json lists the evaluation and lattice workloads; algebra is an
extra workload for runs by hand (bench/README.md says why).

Seeds: every workload builds its inputs from --seed alone.  Seed 1 is the
default; seed 7919 is held out, to re-check a gain on inputs not used
while writing it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
QUERY_LIMIT_S = 30.0  # a query that runs longer is killed and counted as failed
RUN_BUDGET_S = 165.0  # no query starts later than this into a run
SETUP_REPEATS = 11
MAX_J = 6  # the CLI's default precision cap for hit
LAYERS = ["action", "poly", "opalg", "relations", "linalg", "hit", "norms", "series", "cli"]
TEST_MONOMIALS = check.monomials(2, 8) + [mu for mu in check.monomials(3, 4) if sum(mu)]


@dataclass
class Query:
    argv: list
    check: object  # answer dict -> list of problems, empty when the answer is right


@dataclass
class Answer:
    ok: bool
    wall: float
    cpu: float
    rss_kb: int


# -- workloads ---------------------------------------------------------


def evaluation(seed):
    """Fixed queries: every word-on-monomial loop and evaluation sweep."""
    ref = REFERENCE["evaluation"]
    return [
        Query(["verify-paper"], lambda a: _check_ledger(a, ref["verify-paper"])),
        Query(["rank", "--d", "5"], lambda a: _expect(a["rank"], ref["rank"], "rank")),
        Query(["decompose", "--k", "7", "--mode", "binary"],
              lambda a: _check_decompose(a, 7, ref["decompose"])),
        Query(["ore", "--theta", "Jq1", "--eta", "Jq2"],
              lambda a: _check_ore(a, "Jq1", "Jq2", ref["ore"])),
    ]


LATTICE_SHAPES = [(3, 13), (4, 9), (2, 29)]
# shapes whose 2-adic lattice is the whole space, so that every input is hit
FULL_RANK_SHAPES = {tuple(s) for s in REFERENCE["lattice"]["every_input_hit"]}


def lattice(seed):
    """hit on seeded homogeneous polynomials: one unit-coefficient input and one
    image sum_i Jq^i(g_i) per shape, so both verdicts and certificates occur."""
    rng = random.Random(seed)
    queries = []
    for arity, d in LATTICE_SHAPES:
        unit = _unit_input(rng, arity, d)
        # not hit mod 2 proves "not hit"; in full-rank shapes everything is hit
        expect_unit = (arity, d) in FULL_RANK_SHAPES
        for f, expect in ((unit, expect_unit), (_image_input(rng, arity, d), True)):
            queries.append(Query(
                ["hit", "--poly", check.format_poly(f), "--vars", str(arity)],
                lambda a, f=f, arity=arity, d=d, expect=expect: _check_hit(a, f, arity, d, expect),
            ))
    return queries


def _homogeneous(arity, d):
    return [mu for mu in check.monomials(arity, d) if sum(mu) == d]


def _unit_input(rng, arity, d):
    """Six odd-coefficient terms; where the shape allows it, redrawn until not hit mod 2."""
    monomials = _homogeneous(arity, d)
    while True:
        f = {mu: Fraction(rng.choice((-3, -1, 1, 3, 5, 7))) for mu in rng.sample(monomials, 6)}
        if (arity, d) in FULL_RANK_SHAPES or not check.mod2_hit(f, MAX_J):
            return f


def _image_input(rng, arity, d):
    f = {}
    for i in range(1, min(MAX_J, d - 1) + 1):
        sources = _homogeneous(arity, d - i)
        g = {mu: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)) for mu in rng.sample(sources, 2)}
        for e, c in check.act(i, g).items():
            check.add_term(f, e, c)
    return f


SODES = [  # operator, right-hand side, order
    ("Jq1 - 1", "0", 64),
    ("Jq2 - Jq1 + 1/2", "x1", 56),
    ("Jq3 + Jq1.Jq1 - 3", "x1^2 + 1", 48),
]


def algebra(seed):
    """chi, three series solves at seeded centres, one kernel valuation."""
    rng = random.Random(seed)
    queries = [Query(["chi", "--k", "14"], lambda a: _check_chi(a, 14))]
    for op, rhs, order in SODES:
        centre = Fraction(rng.choice((2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13)), 7)
        a0 = Fraction(rng.randint(1, 9), rng.choice((1, 3, 5)))
        queries.append(Query(
            ["sode", "--op", op, "--rhs", rhs, "--center", str(centre), "--a0", str(a0),
             "--order", str(order)],
            lambda a, op=op, rhs=rhs, centre=centre, order=order:
                _check_sode(a, check.parse_op(op), check.parse_poly(rhs, 1), centre, order),
        ))
    norms = REFERENCE["algebra"]["norm_ker"]
    element = rng.choice(sorted(norms))
    queries.append(Query(["norm", "--which", "ker", "--op", element],
                         lambda a: _expect(a["report"]["value"], norms[element], "valuation")))
    return queries


WORKLOADS = {"evaluation": evaluation, "lattice": lattice, "algebra": algebra}


# -- answer checks -----------------------------------------------------


def _expect(got, want, what):
    return [] if got == want else [f"{what}: got {got!r}, reference {want!r}"]


def _check_ledger(answer, ref):
    rows = [[r["slug"], r["status"]] for r in answer["rows"]]
    return _expect(answer["counts"], ref["counts"], "counts") + _expect(rows, ref["rows"], "rows")


def _check_decompose(answer, k, ref):
    problems = _expect(answer["result"], ref, "result")
    op = check.parse_op(answer["result"])
    if any(letter & (letter - 1) for word in op for letter in word):
        problems.append("a word has a letter that is not a power of two")
    if not check.odd_denominators(op.values()):
        problems.append("a coefficient is not 2-adically integral")
    op[(k,)] = op.get((k,), 0) - 1
    if not check.vanishes_on(op, TEST_MONOMIALS):
        problems.append(f"Jq{k} minus the result does not vanish on the test monomials")
    return problems


def _check_ore(answer, theta, eta, ref):
    problems = _expect([answer["x"], answer["y"]], [ref["x"], ref["y"]], "x, y")
    x, y = check.parse_op(answer["x"]), check.parse_op(answer["y"])
    if not x or not y:
        problems.append("degenerate pair")
    lhs = check.op_mul(check.parse_op(theta), x)
    for w, c in check.op_mul(check.parse_op(eta), y).items():
        check.add_term(lhs, w, -c)
    if not check.vanishes_on(lhs, TEST_MONOMIALS):
        problems.append("theta*x - eta*y does not vanish on the test monomials")
    return problems


def _check_chi(answer, k):
    if check.parse_op(answer["result"]) != check.chi_by_compositions(k):
        return ["antipode differs from the sum over compositions"]
    return []


def _check_hit(answer, f, arity, d, expect):
    problems = _expect(answer["hit"], expect, "verdict")
    if answer["hit"]:
        rebuilt = {}
        for pair in answer["witness"]:
            k, cofactor = pair["k"], check.parse_poly(pair["cofactor"], arity)
            if not 1 <= k <= min(MAX_J, d - 1):
                problems.append(f"operator index {k} outside 1..{min(MAX_J, d - 1)}")
            if not check.odd_denominators(cofactor.values()):
                problems.append("a cofactor coefficient is not 2-adically integral")
            for e, c in check.act(k, cofactor).items():
                check.add_term(rebuilt, e, c)
        if rebuilt != f:
            problems.append("certificate does not reconstruct the input")
    return problems


def _check_sode(answer, op, rhs, centre, order):
    degree = max(sum(w) for w in op)
    through = order - degree
    problems = _expect(answer["residual"], {"status": "verified", "through": through}, "residual")
    terms = {int(n): Fraction(c) for n, c in answer["solution"]["terms"].items()}
    if Fraction(answer["solution"]["center"]) != centre:
        problems.append("solution centred elsewhere")
    # expand sum a_n (x - c)^n, apply the operator, re-centre, compare with rhs
    expanded = {}
    for n, a in terms.items():
        for j in range(n + 1):
            check.add_term(expanded, (j,), a * comb(n, j) * (-centre) ** (n - j))
    lhs = _recentre(check.act_op(op, expanded), centre, through)
    if lhs != _recentre(rhs, centre, through):
        problems.append(f"residual nonzero through degree {through}")
    return problems


def _recentre(f, centre, top):
    out = {}
    for (j,), b in f.items():
        for m in range(min(j, top) + 1):
            check.add_term(out, m, b * comb(j, m) * centre ** (j - m))
    return out


# -- running queries ---------------------------------------------------


class Client:
    """Spawns one query process at a time and reads its rusage at exit."""

    def __init__(self, tmp_dir, deadline):
        self.env = {k: v for k, v in os.environ.items() if k != "JQFORGE_CONFIG"}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.tmp_dir = tmp_dir
        self.deadline = deadline

    def spawn(self, argv, stdout):
        """Run argv to completion; returns (exit code, stdout, wall s, cpu s, max rss KB)."""
        limit = min(QUERY_LIMIT_S, self.deadline - time.monotonic())
        if limit <= 0:
            return None, b"", 0.0, 0.0, 0
        with tempfile.TemporaryFile(dir=self.tmp_dir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read() if stdout == subprocess.PIPE else b""
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no query running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.stdout:
                proc.stdout.close()
            if proc.returncode != 0:
                err.seek(0)
                tail = err.read()[-400:].decode(errors="replace")
                print(f"  exit {proc.returncode}: {' '.join(argv[-6:])}\n  {tail}", file=sys.stderr)
        return proc.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def query(self, q, tracer_summary=None):
        if tracer_summary is None:
            argv = [sys.executable, "-m", "jqforge.cli", *q.argv, "--json"]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), tracer_summary, *q.argv, "--json"]
        code, out, wall, cpu, rss = self.spawn(argv, subprocess.PIPE)
        if code != 0:
            return Answer(False, wall, cpu, rss)
        try:
            problems = q.check(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable answer: {type(exc).__name__}: {exc}"]
        for p in problems:
            print(f"  wrong answer to {' '.join(q.argv)[:80]}: {p}", file=sys.stderr)
        return Answer(not problems, wall, cpu, rss)

    def setup_time(self):
        code, _, wall, _, _ = self.spawn([sys.executable, "-c", "import jqforge.cli"], subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError("cannot import jqforge.cli")
        return wall


def run_pass(client, queries, traced=False):
    answers, layers = [], None
    for i, q in enumerate(queries):
        summary = None
        if traced:
            summary = str(Path(client.tmp_dir) / f"trace-{i}.json")
        answers.append(client.query(q, summary))
        if traced and answers[-1].ok:
            layers = _merge(layers, json.loads(Path(summary).read_text(encoding="utf-8")))
    return answers, layers


def _merge(acc, summary):
    if acc is None:
        return summary
    for name, rec in summary["layers"].items():
        for key, value in rec.items():
            acc["layers"][name][key] += value
    for key, value in summary["counts"].items():
        acc["counts"][key] += value
    return acc


# -- reporting ---------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def repeat(client, seconds, step):
    """Call step() -> (answers, seconds taken) while the next call still fits."""
    results, start = [], time.monotonic()
    while True:
        answers, took = step()
        results.append(answers)
        print(f"pass {len(results)}: {took:.3f} s, "
              f"{sum(not a.ok for a in answers)} of {len(answers)} failed", flush=True)
        now = time.monotonic()
        if now - start + took > seconds or now + took > client.deadline:
            return results


def end_to_end(client, queries, seconds):
    setup = [client.setup_time() for _ in range(SETUP_REPEATS)]

    def step():
        answers, _ = run_pass(client, queries)
        return answers, sum(a.wall for a in answers)

    passes = repeat(client, seconds, step)
    metrics = {
        "wall_s": _metric(statistics.median(sum(a.wall for a in p) for p in passes), "s"),
        "cpu_s": _metric(statistics.median(sum(a.cpu for a in p) for p in passes), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(max(a.rss_kb for p in passes for a in p) / 1024, "MB"),
    }
    return [a for p in passes for a in p], metrics


def per_layer(client, queries, seconds):
    """Alternate untraced and traced passes; medians of each over the pairs."""
    plain_walls, traced_walls, layer_metrics = [], [], []

    def step():
        plain, _ = run_pass(client, queries)
        traced, layers = run_pass(client, queries, traced=True)
        plain_walls.append(sum(a.wall for a in plain))
        traced_walls.append(sum(a.wall for a in traced))
        if layers is not None:
            layer_metrics.append(_layer_metrics(layers))
        return plain + traced, plain_walls[-1] + traced_walls[-1]

    answers = [a for p in repeat(client, seconds, step) for a in p]
    if not layer_metrics:
        return answers, {}
    metrics = {
        key: _metric(statistics.median(m[key]["value"] for m in layer_metrics), unit["unit"])
        for key, unit in layer_metrics[0].items()
    }
    plain_wall, traced_wall = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")
    metrics["trace.overhead_frac"] = _metric((traced_wall - plain_wall) / plain_wall, "ratio")
    return answers, metrics


def _layer_metrics(layers):
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = _metric(layers["layers"][name]["self_s"], "s")
        metrics[f"{name}.calls"] = _metric(layers["layers"][name]["calls"], "count")
    counts = layers["counts"]
    for key in ("action.images", "poly.constructed", "opalg.sweep_monomials",
                "opalg.elements_built", "linalg.rows_in", "linalg.nnz_in", "linalg.pivots"):
        metrics[key] = _metric(counts[key], "count")
    metrics["action.distinct_image_ratio"] = _metric(
        counts["action.distinct_images"] / counts["action.images"] if counts["action.images"] else 0.0,
        "ratio")
    metrics["linalg.useful_row_ratio"] = _metric(
        counts["linalg.pivots"] / counts["linalg.rows_in"] if counts["linalg.rows_in"] else 0.0,
        "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jqforge" / "cli.py").is_file():
        print(f"error: no jqforge sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, killing the running query
    queries = WORKLOADS[args.workload](args.seed)
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp_dir:
        client = Client(tmp_dir, time.monotonic() + RUN_BUDGET_S)
        client.setup_time()  # writes bytecode once, as an installed package has it
        if args.trace:
            answers, metrics = per_layer(client, queries, args.seconds)
        else:
            answers, metrics = end_to_end(client, queries, args.seconds)
    failed = sum(not a.ok for a in answers)
    print(f"{args.workload} seed {args.seed}: {len(answers)} queries, "
          f"failed_frac {failed / len(answers):.3f}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(answers),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

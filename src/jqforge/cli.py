"""Command line front end.

One subcommand per capability.  Each `_cmd_<name>(args)` computes its
answer once and returns one payload: the dict that is the body of the
command's --json report.  `main` is the only place that writes output.
With --json it prints `{"command", "config", **payload}` as canonical
JSON (sorted keys, no whitespace); otherwise it prints the lines that the
command's text renderer (`_text_*`) draws from the payload alone, so the
two forms cannot disagree.

Each query runs in its own process, and start-up is most of a typical
one: compiling a module the command never calls costs as much as the
command's own algebra.  So the module imports only the standard library,
`errors`, `scalar2` and `poly`, and each `_cmd_<name>` imports the
package modules it calls at the top of its own body: `hit` loads
`hit` and `linalg`, never `opalg`, `relations`, `norms`, `series` or
`golden`.

Every run resolves an effective config: the defaults, then an optional
key=value file named by JQFORGE_CONFIG, then flags.  The six keys are
described once, in `_CONFIG` (key, flag dest, value parser, default,
help, range check, the commands that read it); the defaults, the
config-file keys (matched ignoring case and underscores), the flags and
the validation all come from that table.  A command takes the flag of a
key only when it reads that key, so a flag it would ignore is a usage
error.  Each flag has one spelling: argparse's prefix matching is off,
so an abbreviation is a usage error too.  The file may still set every
key, and --json reports embed the whole resolved config verbatim, so
results can be reproduced from the report alone.

Exit codes: 0 success, then one table (`_EXIT_CODES`) for the package
errors: 2 parse or usage error, 3 domain error, 4 nothing found / no
solution, 5 a computed answer failed its own verification
(VerificationError).  70 internal error: any other exception, reported as
one "internal error: <Type>: <message>" line on stderr (70 is EX_SOFTWARE
in sysexits.h).  verify-paper exits 1 when its payload counts FAIL rows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, NotFoundError, ParseError, VerificationError
from .scalar2 import INF, format_scalar, in_z2, parse_scalar, two_adic_digits
from .poly import format_poly, parse_poly

# check: (predicate, "must ..." phrase) beyond the nonnegativity of every int key;
# commands: the subcommands whose bodies read the key, and so take its flag
_Key = namedtuple("_Key", "name dest parse default help check commands")
_CONFIG = (
    _Key("nVars", "nvars", int, 4, "ambient variable count", (lambda v: v >= 1, "be positive"),
         ("norm", "rank")),
    _Key("degBound", "deg_bound", int, 16, "largest degree norm --which ker accepts, capped at 8",
         None, ("norm",)),
    _Key("maxJ", "max_j", int, 6, "filtration / precision depth", None, ("hit", "norm")),
    _Key("order", "order", int, 12, "series truncation order", None, ("geom", "sode")),
    _Key("digits", "digits", int, 0, "2-adic digit count for unit coefficients", None,
         ("act", "decompose")),
    _Key("rho", "rho", parse_scalar, Fraction(1, 2), "radius for the degree norm",
         (lambda v: 0 < v < 1, "lie strictly between 0 and 1"), ("norm",)),
)

# shared-flag help that reads differently for one command
_HELP = {("hit", "maxJ"): "largest operator index Jq^k tried (reported under bounds "
         "when below half the degree)"}

_EXIT_CODES = {ParseError: 2, NotFoundError: 4, DomainError: 3, VerificationError: 5}


def _load_config_file(path):
    by_name = {key.name.lower(): key for key in _CONFIG}
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        name, _, val = line.partition("=")
        key = by_name.get(name.strip().lower().replace("_", ""))
        if key is None:
            raise ParseError(f"{path}:{lineno}: unknown config key {name.strip()!r}")
        val = val.strip()
        try:
            values[key.name] = key.parse(val)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad value for {key.name}: {val!r}")
    return values


def _resolve_config(args):
    """The effective config as {key: value}: defaults, then file, then flags."""
    config = {key.name: key.default for key in _CONFIG}
    env_path = os.environ.get("JQFORGE_CONFIG")
    if env_path:
        config.update(_load_config_file(env_path))
    for key in _CONFIG:
        value = getattr(args, key.dest, None)  # None also where the command has no such flag
        if value is not None:
            config[key.name] = value
    for key in _CONFIG:
        if key.parse is int and config[key.name] < 0:
            raise DomainError(f"config {key.name} must be nonnegative")
    for key in _CONFIG:
        if key.check is not None and not key.check[0](config[key.name]):
            raise DomainError(f"config {key.name} must {key.check[1]}")
    return config


def _canonical(obj):
    """Canonical JSON; exact scalars (the config's rho) encode as scalar strings."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=format_scalar)


def _with_digits(payload, count, scalars):
    """payload plus a "digits" entry when count > 0 and some scalar needs one.

    The entry maps each fractional 2-adic unit among scalars to its first
    count digits.  Integer coefficients are left alone; values outside the
    dyadic integers have no digit expansion at all.  Keys come in
    increasing order of value, the order of the text lines.
    """
    if count > 0:
        units = {s for s in map(Fraction, scalars) if s.denominator != 1 and in_z2(s)}
        if units:
            payload["digits"] = {format_scalar(s): two_adic_digits(s, count) for s in sorted(units)}
    return payload


def _parse_scalar_arg(text, what):
    try:
        return parse_scalar(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}")


def _parse_words_arg(text):
    """Words as comma-separated factors, separated by spaces or semicolons."""
    words = []
    for chunk in text.replace(";", " ").split():
        try:
            word = tuple(int(p) for p in chunk.split(","))
        except ValueError:
            raise ParseError(f"bad word {chunk!r}")
        if not word or any(k < 1 for k in word):
            raise ParseError(f"bad word {chunk!r}: factors must be positive")
        words.append(word)
    if not words:
        raise ParseError("empty word list")
    return words


# subcommand bodies: each returns its payload


def _cmd_act(args):
    from .opalg import eval_element, format_op, parse_op
    f = parse_poly(args.poly, args.vars)
    e = parse_op(args.op)
    out = eval_element(e, f)
    payload = {"op": format_op(e), "input": format_poly(f), "result": format_poly(out)}
    return _with_digits(payload, args.config["digits"], out.terms.values())


def _cmd_adem(args):
    from . import relations
    if args.words is not None:
        words = _parse_words_arg(args.words)
    elif args.partitions is not None:
        words = relations.t_partition_words(args.k, args.partitions)
    else:
        words = None
    return relations.adem_nullspace(args.k, words=words).json_obj()


def _cmd_chi(args):
    from .opalg import chi, format_op
    out = chi(args.k, method=args.method)
    return {"k": args.k, "method": args.method, "result": format_op(out)}


def _cmd_phi(args):
    from .opalg import format_classical, format_op, parse_op, phi_reduce
    e = parse_op(args.op)
    return {"op": format_op(e), "result": format_classical(phi_reduce(e))}


def _cmd_norm(args):
    from . import norms as norms_mod
    from .opalg import parse_op
    e = parse_op(args.op)
    cfg = args.config
    if args.which == "degree":
        value = norms_mod.degree_norm(e, cfg["rho"])
        return {"which": "degree", "norm": format_scalar(value), "rho": format_scalar(cfg["rho"])}
    if args.which == "adem":
        rep = norms_mod.adem_valuation(e)
    elif args.which == "ker":
        bound = min(cfg["degBound"], 8)
        rep = norms_mod.ker_adic_valuation(e, max_j=cfg["maxJ"], degree_bound=bound)
    else:
        rep = norms_mod.operator_norm_estimate(e, n_vars=cfg["nVars"])
    return {"which": args.which, "report": rep.json_obj()}


def _cmd_hit(args):
    from . import hit as hit_mod
    f = parse_poly(args.poly, args.vars)
    max_j = args.config["maxJ"]
    is_hit, cert = hit_mod.hit_decide_graded(f, precision_j=max_j)
    payload = {"hit": is_hit}
    if cert is not None:
        payload["witness"] = cert.witness_json()
    # Jq^k kills every monomial of degree below k, so in degree d only k <= d // 2
    # has columns: a smaller cap can turn the answer and is reported
    if max_j < f.degree() // 2:
        payload["bounds"] = {"maxJ": max_j}
    return payload


def _cmd_cohit(args):
    from . import hit as hit_mod
    order = hit_mod.cohit_order(args.d)
    return {"d": args.d, "order": "infinite" if order == INF else order}


def _cmd_ore(args):
    from . import relations
    from .opalg import format_op, parse_op
    theta = parse_op(args.theta)
    eta = parse_op(args.eta)
    x, y = relations.ore_solve(theta, eta)
    return {
        "theta": format_op(theta),
        "eta": format_op(eta),
        "x": format_op(x),
        "y": format_op(y),
        "bounds": {"nVars": relations.check_vars(theta.degree() + x.degree())},
    }


def _cmd_decompose(args):
    from . import relations
    from .opalg import format_op
    if args.mode == "binary":
        out = relations.binary_decompose(args.k)
    else:
        out = relations.q12_decompose(args.k)
    payload = {
        "k": args.k,
        "mode": args.mode,
        "result": format_op(out),
        "bounds": {"nVars": relations.check_vars(args.k)},
    }
    return _with_digits(payload, args.config["digits"], out.terms.values())


def _cmd_rank(args):
    from . import relations
    n_vars = min(args.config["nVars"], 3)
    r = relations.rank_estimate(args.d, n_vars=n_vars)
    return {"d": args.d, "rank": r, "bounds": {"nVars": n_vars, "degBound": args.d + 2}}


def _cmd_sode(args):
    from . import series as series_mod
    from .opalg import format_op, parse_op
    e = parse_op(args.op)
    rhs = parse_poly(args.rhs, 1)
    center = _parse_scalar_arg(args.center, "center")
    a0 = _parse_scalar_arg(args.a0, "a0")
    order = args.config["order"]
    eq = series_mod.Sode(e, rhs)
    sol = series_mod.sode_solve(eq, center, a0, order)
    report = series_mod.sode_residual(eq, sol, order)
    return {
        "op": format_op(e),
        "rhs": format_poly(rhs),
        "solution": sol.json_obj(),
        "residual": report.json_obj(),
    }


def _cmd_geom(args):
    from . import series as series_mod
    f = parse_poly(args.poly, 1)
    out = series_mod.geometric_inverse(args.k, f, args.config["order"])
    return {"k": args.k, "input": format_poly(f), "result": out.json_obj()}


def _cmd_tate(args):
    from . import series as series_mod
    if args.series == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.series, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read series file {args.series}: {exc}")
    return series_mod.tate_check(series_mod.TruncatedSeries.from_json(text)).json_obj()


def _cmd_verify_paper(args):
    from . import golden
    rows = golden.run_ledger()
    counts = {"PASS": 0, "DIVERGES": 0, "FAIL": 0}
    for row in rows:
        counts[row["status"]] += 1
    return {"rows": rows, "counts": counts}


# text renderers: each draws its lines from a payload alone


def _text_result(p):
    return [p["result"], *(f"digits {name} = {digs}" for name, digs in p.get("digits", {}).items())]


def _text_adem(p):
    rows = ",".join("[" + ",".join(row) + "]" for row in p["basis"])
    return [f"basis [{rows}] over [{', '.join(p['words'])}]"]


def _text_norm(p):
    if p["which"] == "degree":
        return [f"norm {p['norm']} (degree, rho = {p['rho']})"]
    rep = p["report"]
    return [f"valuation {rep['value']}, norm {rep['norm']} ({rep['method']})"]


def _text_sode(p):
    res = p["residual"]
    if res["status"] == "verified":
        status = f"residual verified through degree {res['through']}"
    else:
        status = f"residual fails at degree {res['degree']}"
    return [_canonical(p["solution"]), status]


def _text_verify_paper(p):
    lines = [f"{row['status']:<8} {row['slug']}: {row['detail']}" for row in p["rows"]]
    c = p["counts"]
    return lines + [f"{c['PASS']} pass, {c['DIVERGES']} diverge, {c['FAIL']} fail"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jqforge",
        description="Exact dyadic Steenrod algebra calculator.",
        allow_abbrev=False,
    )
    sp = parser.add_subparsers(dest="command", required=True)

    p = sp.add_parser("act", help="apply an operator expression to a polynomial")
    p.add_argument("--op", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", type=int, default=1)
    p.set_defaults(func=_cmd_act, text=_text_result)

    p = sp.add_parser("adem", help="relation basis in a fixed degree")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--partitions", type=int, default=None, help="factor count for the word set")
    p.add_argument("--words", default=None, help="explicit word list, e.g. '3 2,1 1,2 1,1,1'")
    p.set_defaults(func=_cmd_adem, text=_text_adem)

    p = sp.add_parser("chi", help="antipode of a generator")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["recursion", "partitions"], default="recursion")
    p.set_defaults(func=_cmd_chi, text=_text_result)

    p = sp.add_parser("phi", help="mod-2 reduction of an operator expression")
    p.add_argument("--op", required=True)
    p.set_defaults(func=_cmd_phi, text=_text_result)

    p = sp.add_parser("norm", help="valuation and norm reports")
    p.add_argument("--which", choices=["adem", "ker", "estimate", "degree"], required=True)
    p.add_argument("--op", required=True)
    p.set_defaults(func=_cmd_norm, text=_text_norm)

    p = sp.add_parser("hit", help="decide divisibility by the operator images")
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", type=int, default=1)
    p.set_defaults(func=_cmd_hit, text=lambda out: [_canonical(out)])

    p = sp.add_parser("cohit", help="order of the degree-d quotient")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_cohit, text=lambda out: [str(out["order"])])

    p = sp.add_parser("ore", help="common right multiple of two operators")
    p.add_argument("--theta", required=True)
    p.add_argument("--eta", required=True)
    p.set_defaults(func=_cmd_ore, text=lambda out: [f"x = {out['x']}", f"y = {out['y']}"])

    p = sp.add_parser("decompose", help="rewrite a generator over a smaller alphabet")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["binary", "q12"], required=True)
    p.set_defaults(func=_cmd_decompose, text=_text_result)

    p = sp.add_parser("rank", help="operator rank of the degree-d words")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_rank, text=lambda out: [str(out["rank"])])

    p = sp.add_parser("sode", help="solve an operator equation by power series")
    p.add_argument("--op", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--center", required=True)
    p.add_argument("--a0", required=True)
    p.set_defaults(func=_cmd_sode, text=_text_sode)

    p = sp.add_parser("geom", help="invert 1 minus an operator on a polynomial")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_geom, text=lambda out: [_canonical(out["result"])])

    p = sp.add_parser("tate", help="convergence check for a series file")
    p.add_argument("--series", required=True, help="path to a series JSON file, or - for stdin")
    p.set_defaults(func=_cmd_tate, text=lambda out: [out["verdict"]])

    p = sp.add_parser("verify-paper", help="recompute the published reference values")
    p.set_defaults(func=_cmd_verify_paper, text=_text_verify_paper)

    # each flag has one spelling (no prefix is taken for it), and the shared
    # flags come last in every subcommand's usage line
    for name, p in sp.choices.items():
        p.allow_abbrev = False
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        for key in (key for key in _CONFIG if name in key.commands):
            flag = "--" + key.dest.replace("_", "-")
            help_text = _HELP.get((name, key.name), key.help)
            p.add_argument(flag, type=key.parse, default=None, help=help_text)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        args.config = _resolve_config(args)
        payload = args.func(args)
        if args.json:
            lines = [_canonical({"command": args.command, "config": args.config, **payload})]
        else:
            lines = args.text(payload)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    except Exception as exc:  # a fault in the program, kept apart from verify-paper's exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70
    print("\n".join(lines))
    # verify-paper: FAIL rows in the ledger
    return 1 if payload.get("counts", {}).get("FAIL") else 0


if __name__ == "__main__":
    sys.exit(main())

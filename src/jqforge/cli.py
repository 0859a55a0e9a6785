"""Command line front end.

One subcommand per capability.  Every run resolves an effective config
(defaults, then an optional key=value file named by JQFORGE_CONFIG, then
flags), and --json reports embed that config verbatim so results can be
reproduced from the report alone.

Exit codes: 0 success, 2 parse or usage error, 3 domain error,
4 nothing found / no solution, 5 a computed answer failed its own
verification (VerificationError), 70 internal error: any other exception,
reported as one "internal error: <Type>: <message>" line on stderr (70 is
EX_SOFTWARE in sysexits.h).  verify-paper exits 1 when the ledger has
FAIL rows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import DomainError, NoSolutionError, NotFoundError, ParseError, VerificationError
from .scalar2 import INF, format_scalar, in_z2, parse_scalar, two_adic_digits
from .poly import Polynomial, format_poly, parse_poly
from .action import apply_jq
from .opalg import (
    OpElement,
    chi,
    eval_element,
    format_op,
    format_word,
    parse_op,
    phi_reduce,
    format_classical,
)
from . import relations
from . import norms as norms_mod
from . import hit as hit_mod
from . import series as series_mod
from . import golden

DEFAULTS = {
    "nVars": 4,
    "degBound": 16,
    "maxJ": 6,
    "order": 12,
    "digits": 0,
    "rho": Fraction(1, 2),
}

_CONFIG_KEYS = {
    "nvars": "nVars",
    "degbound": "degBound",
    "maxj": "maxJ",
    "order": "order",
    "digits": "digits",
    "rho": "rho",
}


def _load_config_file(path):
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
        key, _, val = line.partition("=")
        canon = _CONFIG_KEYS.get(key.strip().lower().replace("_", ""))
        if canon is None:
            raise ParseError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        val = val.strip()
        try:
            if canon == "rho":
                values[canon] = parse_scalar(val)
            else:
                values[canon] = int(val)
        except (ValueError, ParseError):
            raise ParseError(f"{path}:{lineno}: bad value for {canon}: {val!r}")
    return values


class Config:
    __slots__ = ("n_vars", "deg_bound", "max_j", "order", "digits", "rho")

    def __init__(self, n_vars, deg_bound, max_j, order, digits, rho):
        self.n_vars = n_vars
        self.deg_bound = deg_bound
        self.max_j = max_j
        self.order = order
        self.digits = digits
        self.rho = rho

    def json_obj(self):
        return {
            "nVars": self.n_vars,
            "degBound": self.deg_bound,
            "maxJ": self.max_j,
            "order": self.order,
            "digits": self.digits,
            "rho": format_scalar(self.rho),
        }


def _resolve_config(args):
    merged = dict(DEFAULTS)
    env_path = os.environ.get("JQFORGE_CONFIG")
    if env_path:
        merged.update(_load_config_file(env_path))
    flag_map = {
        "nVars": getattr(args, "nvars", None),
        "degBound": getattr(args, "deg_bound", None),
        "maxJ": getattr(args, "max_j", None),
        "order": getattr(args, "order", None),
        "digits": getattr(args, "digits", None),
        "rho": getattr(args, "rho", None),
    }
    for key, val in flag_map.items():
        if val is not None:
            merged[key] = val
    for key in ("nVars", "degBound", "maxJ", "order", "digits"):
        if merged[key] < 0:
            raise DomainError(f"config {key} must be nonnegative")
    if merged["nVars"] < 1:
        raise DomainError("config nVars must be positive")
    if not 0 < merged["rho"] < 1:
        raise DomainError("config rho must lie strictly between 0 and 1")
    return Config(
        merged["nVars"],
        merged["degBound"],
        merged["maxJ"],
        merged["order"],
        merged["digits"],
        merged["rho"],
    )


def _emit_json(args, command, payload):
    obj = {"command": command, "config": args.config.json_obj()}
    obj.update(payload)
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _digits(config, scalars):
    """{scalar: digit string} for the fractional 2-adic units among scalars.

    Integer coefficients are left alone; values outside the dyadic
    integers have no digit expansion at all.  Keys come in increasing
    order of value, the order of the text lines.
    """
    if config.digits <= 0:
        return {}
    units = {s for s in map(Fraction, scalars) if s.denominator != 1 and in_z2(s)}
    return {format_scalar(s): two_adic_digits(s, config.digits) for s in sorted(units)}


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


# subcommand bodies


def _cmd_act(args):
    f = parse_poly(args.poly, args.vars)
    e = parse_op(args.op)
    out = eval_element(e, f)
    digits = _digits(args.config, out.terms.values())
    if args.json:
        payload = {
            "op": format_op(e),
            "input": format_poly(f),
            "result": format_poly(out),
        }
        if digits:
            payload["digits"] = digits
        _emit_json(args, "act", payload)
    else:
        print(format_poly(out))
        for name, digs in digits.items():
            print(f"digits {name} = {digs}")
    return 0


def _cmd_adem(args):
    if args.words is not None:
        words = _parse_words_arg(args.words)
        rb = relations.adem_nullspace(args.k, words=words)
    elif args.partitions is not None:
        words = relations.t_partition_words(args.k, args.partitions)
        rb = relations.adem_nullspace(args.k, words=words)
    else:
        rb = relations.adem_nullspace(args.k)
    if args.json:
        _emit_json(args, "adem", json.loads(rb.to_json()))
    else:
        rows = [
            "[" + ",".join(format_scalar(c) for c in row) + "]" for row in rb.basis
        ]
        names = ", ".join(format_word(w) for w in rb.words)
        print(f"basis [{','.join(rows)}] over [{names}]")
    return 0


def _cmd_chi(args):
    out = chi(args.k, method=args.method)
    if args.json:
        _emit_json(args, "chi", {"k": args.k, "method": args.method, "result": format_op(out)})
    else:
        print(format_op(out))
    return 0


def _cmd_phi(args):
    e = parse_op(args.op)
    out = phi_reduce(e)
    if args.json:
        _emit_json(args, "phi", {"op": format_op(e), "result": format_classical(out)})
    else:
        print(format_classical(out))
    return 0


def _cmd_norm(args):
    e = parse_op(args.op)
    cfg = args.config
    if args.which == "degree":
        value = norms_mod.degree_norm(e, cfg.rho)
        if args.json:
            _emit_json(
                args,
                "norm",
                {
                    "which": "degree",
                    "norm": format_scalar(value),
                    "rho": format_scalar(cfg.rho),
                },
            )
        else:
            print(f"norm {format_scalar(value)} (degree, rho = {format_scalar(cfg.rho)})")
        return 0
    if args.which == "adem":
        rep = norms_mod.adem_valuation(e)
    elif args.which == "ker":
        rep = norms_mod.ker_adic_valuation(e, max_j=cfg.max_j, degree_bound=min(cfg.deg_bound, 8))
    else:
        rep = norms_mod.operator_norm_estimate(e, n_vars=cfg.n_vars, deg_bound=cfg.deg_bound)
    if args.json:
        _emit_json(args, "norm", {"which": args.which, "report": json.loads(rep.to_json())})
    else:
        val = "inf" if rep.value == INF else format_scalar(rep.value)
        print(f"valuation {val}, norm {format_scalar(rep.norm)} ({rep.method})")
    return 0


def _cmd_hit(args):
    f = parse_poly(args.poly, args.vars)
    is_hit, cert = hit_mod.hit_decide_graded(f, precision_j=args.config.max_j)
    if args.json:
        payload = {"hit": is_hit}
        if cert is not None:
            payload["witness"] = cert.witness_json()
        _emit_json(args, "hit", payload)
    else:
        print(hit_mod.decision_json(is_hit, cert))
    return 0


def _cmd_cohit(args):
    order = hit_mod.cohit_order(args.d)
    if args.json:
        _emit_json(
            args,
            "cohit",
            {"d": args.d, "order": "infinite" if order == INF else order},
        )
    else:
        print("infinite" if order == INF else str(order))
    return 0


def _cmd_ore(args):
    theta = parse_op(args.theta)
    eta = parse_op(args.eta)
    n_vars = min(args.config.n_vars, 3)
    x, y = relations.ore_solve(theta, eta, n_vars=n_vars, deg_bound=None)
    if args.json:
        _emit_json(
            args,
            "ore",
            {
                "theta": format_op(theta),
                "eta": format_op(eta),
                "x": format_op(x),
                "y": format_op(y),
                "bounds": {"nVars": n_vars},
            },
        )
    else:
        print(f"x = {format_op(x)}")
        print(f"y = {format_op(y)}")
    return 0


def _cmd_decompose(args):
    if args.mode == "binary":
        out = relations.binary_decompose(args.k)
    else:
        out = relations.q12_decompose(args.k)
    digits = _digits(args.config, out.terms.values())
    if args.json:
        payload = {"k": args.k, "mode": args.mode, "result": format_op(out)}
        if digits:
            payload["digits"] = digits
        _emit_json(args, "decompose", payload)
    else:
        print(format_op(out))
        for name, digs in digits.items():
            print(f"digits {name} = {digs}")
    return 0


def _cmd_rank(args):
    # the search has its own default bounds; widen only on an explicit flag
    n_vars = min(args.nvars, 3) if args.nvars is not None else 3
    deg_bound = args.deg_bound if args.deg_bound is not None else args.d + 2
    deg_bound = max(deg_bound, args.d + 1)
    r = relations.rank_estimate(args.d, n_vars=n_vars, deg_bound=deg_bound)
    if args.json:
        _emit_json(
            args,
            "rank",
            {
                "d": args.d,
                "rank": r,
                "bounds": {"nVars": n_vars, "degBound": deg_bound},
            },
        )
    else:
        print(str(r))
    return 0


def _cmd_sode(args):
    e = parse_op(args.op)
    rhs = parse_poly(args.rhs, 1)
    center = _parse_scalar_arg(args.center, "center")
    a0 = _parse_scalar_arg(args.a0, "a0")
    order = args.order if args.order is not None else args.config.order
    eq = series_mod.Sode(e, rhs)
    sol = series_mod.sode_solve(eq, center, a0, order)
    report = series_mod.sode_residual(eq, sol, order)
    if args.json:
        _emit_json(
            args,
            "sode",
            {
                "op": format_op(e),
                "rhs": format_poly(rhs),
                "solution": sol.json_obj(),
                "residual": report.json_obj(),
            },
        )
    else:
        print(sol.to_json())
        status = (
            f"residual verified through degree {report.verified_through}"
            if report.ok
            else f"residual fails at degree {report.failure_degree}"
        )
        print(status)
    return 0


def _cmd_geom(args):
    f = parse_poly(args.poly, 1)
    order = args.order if args.order is not None else args.config.order
    out = series_mod.geometric_inverse(args.k, f, order)
    if args.json:
        _emit_json(
            args,
            "geom",
            {"k": args.k, "input": format_poly(f), "result": out.json_obj()},
        )
    else:
        print(out.to_json())
    return 0


def _cmd_tate(args):
    if args.series == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.series, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read series file {args.series}: {exc}")
    s = series_mod.TruncatedSeries.from_json(text)
    rep = series_mod.tate_check(s)
    if args.json:
        _emit_json(args, "tate", json.loads(json.dumps(rep.json_obj())))
    else:
        print(rep.verdict)
    return 0


def _cmd_verify_paper(args):
    rows = golden.run_ledger()
    counts = {"PASS": 0, "DIVERGES": 0, "FAIL": 0}
    for row in rows:
        counts[row["status"]] += 1
    if args.json:
        _emit_json(args, "verify-paper", {"rows": rows, "counts": counts})
    else:
        for row in rows:
            print(f"{row['status']:<8} {row['slug']}: {row['detail']}")
        print(
            f"{counts['PASS']} pass, {counts['DIVERGES']} diverge, "
            f"{counts['FAIL']} fail"
        )
    return 0 if counts["FAIL"] == 0 else 1


def _add_common(sub):
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--nvars", type=int, default=None, help="ambient variable count")
    sub.add_argument("--deg-bound", type=int, default=None, help="evaluation degree bound")
    sub.add_argument("--max-j", type=int, default=None, help="filtration / precision depth")
    sub.add_argument("--order", type=int, default=None, help="series truncation order")
    sub.add_argument("--digits", type=int, default=None, help="2-adic digit count for unit coefficients")
    sub.add_argument("--rho", type=parse_scalar, default=None, help="radius for the degree norm")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jqforge",
        description="Exact dyadic Steenrod algebra calculator.",
    )
    sp = parser.add_subparsers(dest="command", required=True)

    p = sp.add_parser("act", help="apply an operator expression to a polynomial")
    p.add_argument("--op", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_act)

    p = sp.add_parser("adem", help="relation basis in a fixed degree")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--partitions", type=int, default=None, help="factor count for the word set")
    p.add_argument("--words", default=None, help="explicit word list, e.g. '3 2,1 1,2 1,1,1'")
    _add_common(p)
    p.set_defaults(func=_cmd_adem)

    p = sp.add_parser("chi", help="antipode of a generator")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["recursion", "partitions"], default="recursion")
    _add_common(p)
    p.set_defaults(func=_cmd_chi)

    p = sp.add_parser("phi", help="mod-2 reduction of an operator expression")
    p.add_argument("--op", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_phi)

    p = sp.add_parser("norm", help="valuation and norm reports")
    p.add_argument("--which", choices=["adem", "ker", "estimate", "degree"], required=True)
    p.add_argument("--op", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_norm)

    p = sp.add_parser("hit", help="decide divisibility by the operator images")
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_hit)

    p = sp.add_parser("cohit", help="order of the degree-d quotient")
    p.add_argument("--d", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_cohit)

    p = sp.add_parser("ore", help="common right multiple of two operators")
    p.add_argument("--theta", required=True)
    p.add_argument("--eta", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_ore)

    p = sp.add_parser("decompose", help="rewrite a generator over a smaller alphabet")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["binary", "q12"], required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sp.add_parser("rank", help="operator rank of the degree-d words")
    p.add_argument("--d", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_rank)

    p = sp.add_parser("sode", help="solve an operator equation by power series")
    p.add_argument("--op", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--center", required=True)
    p.add_argument("--a0", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_sode)

    p = sp.add_parser("geom", help="invert 1 minus an operator on a polynomial")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--poly", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_geom)

    p = sp.add_parser("tate", help="convergence check for a series file")
    p.add_argument("--series", required=True, help="path to a series JSON file, or - for stdin")
    _add_common(p)
    p.set_defaults(func=_cmd_tate)

    p = sp.add_parser("verify-paper", help="recompute the published reference values")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        args.config = _resolve_config(args)
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # a fault in the program, kept apart from verify-paper's exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())

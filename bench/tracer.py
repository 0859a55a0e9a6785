"""Run one jqforge CLI query with every layer boundary traced.

    python3 bench/tracer.py SUMMARY.json <cli arguments...>

The public functions and methods of each `jqforge` module are wrapped from
here, without touching the package: every module that imported a wrapped
name gets the wrapper bound in its place (``hit`` binds ``apply_jq`` at
import, so patching ``action`` alone would miss those calls).  A call that
crosses into another layer opens a span; a call within the layer that is
already innermost is counted once, as part of the open span.  Spans are
kept in memory and reduced at exit to per-layer self time (span minus
child-layer spans) and span counts, both including the import of the
layer's modules, written to SUMMARY.json together with
deterministic work counters.  The CLI's own output and exit code pass
through unchanged.

Generator functions (``monomials_upto``, ``compositions``) are not wrapped,
because a span around the call would not cover the iteration; their time
counts toward the consumer.  ``scalar2.binom`` is too hot to wrap, so its
time counts toward the caller.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import inspect
import json
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module -> layer; golden is the ledger behind the cli's verify-paper
MODULE_LAYERS = {
    "action": "action",
    "poly": "poly",
    "opalg": "opalg",
    "relations": "relations",
    "linalg": "linalg",
    "hit": "hit",
    "norms": "norms",
    "series": "series",
    "cli": "cli",
    "golden": "cli",
}
LAYERS = ["action", "poly", "opalg", "relations", "linalg", "hit", "norms", "series", "cli"]
COUNTERS = [
    "action.images",
    "action.distinct_images",
    "poly.constructed",
    "opalg.sweep_monomials",
    "opalg.elements_built",
    "linalg.rows_in",
    "linalg.nnz_in",
    "linalg.pivots",
]
# dunder methods that do the arithmetic; __bool__, __repr__ and friends are left alone
WRAPPED_DUNDERS = {
    "__init__", "__add__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__eq__",
}


class Tracer:
    def __init__(self):
        self.span_layer = array("b")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.open_layers = [-1]
        self.open_spans = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.distinct_images = set()
        self.deferred_ranks = []

    def span(self, layer, fn):
        """fn wrapped so that entering it from another layer records a span."""
        layer_id = LAYERS.index(layer)
        open_layers, open_spans = self.open_layers, self.open_spans
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_layers[-1] == layer_id:
                return fn(*args, **kwargs)
            idx = len(span_start)
            span_layer.append(layer_id)
            span_parent.append(open_spans[-1])
            span_end.append(0)
            open_layers.append(layer_id)
            open_spans.append(idx)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                open_layers.pop()
                open_spans.pop()

        return wrapper

    def summary(self):
        n = len(self.span_start)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0] * n
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        self_ns = [0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        for i, layer_id in enumerate(self.span_layer):
            self_ns[layer_id] += dur[i] - child[i]
            calls[layer_id] += 1
        counts = dict(self.counts)
        counts["action.distinct_images"] = len(self.distinct_images)
        counts["linalg.pivots"] += sum(rank_mod_p(rows) for rows in self.deferred_ranks)
        return {
            "layers": {
                name: {"self_s": self_ns[i] / 1e9, "calls": calls[i]}
                for i, name in enumerate(LAYERS)
            },
            "counts": counts,
        }


def rank_mod_p(rows, p=(1 << 61) - 1):
    """Rank of a rational matrix modulo the prime p, by Gaussian elimination.

    Never more than the rank over Q, and equal to it unless p divides every
    nonzero maximal minor; used for solve_affine, which does not return its
    rank and whose exact re-elimination at exit would cost as much as the
    solve itself.
    """
    mat = [[x.numerator * pow(x.denominator, -1, p) % p for x in map(Fraction, r)] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] * inv % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _nnz(row):
    values = row.values() if isinstance(row, dict) else row
    return sum(1 for v in values if v != 0)


def _count_rows(tracer, rows):
    tracer.counts["linalg.rows_in"] += len(rows)
    tracer.counts["linalg.nnz_in"] += sum(_nnz(r) for r in rows)


def _counting_shims(tracer):
    """Counters that run on every call, nested or not, around the span wrappers.

    Keyed by (module, qualified name); each factory takes the span-wrapped
    callable and returns the callable to install.
    """
    counts = tracer.counts

    def apply_jq(inner):
        def shim(k, f):
            counts["action.images"] += len(f.terms)
            tracer.distinct_images.update((k, e) for e in f.terms)
            return inner(k, f)
        return shim

    def constructed(key):
        def factory(inner):
            def shim(*args, **kwargs):
                counts[key] += 1
                return inner(*args, **kwargs)
            return shim
        return factory

    def rref(inner):
        def shim(rows):
            rows = list(rows)
            _count_rows(tracer, rows)
            out = inner(rows)
            counts["linalg.pivots"] += len(out[1])
            return out
        return shim

    def solve_affine(inner):
        # the rank is not returned; it is computed at exit, off every span
        def shim(rows, rhs):
            _count_rows(tracer, rows)
            tracer.deferred_ranks.append(rows)
            return inner(rows, rhs)
        return shim

    def echelon_insert(inner):
        def shim(self, row, tag):
            _count_rows(tracer, [row])
            grew = inner(self, row, tag)
            counts["linalg.pivots"] += bool(grew)
            return grew
        return shim

    def one_row(inner):
        def shim(self, row):
            _count_rows(tracer, [row])
            return inner(self, row)
        return shim

    def lattice_init(inner):
        def shim(self, generators):
            generators = list(generators)
            _count_rows(tracer, [row for _, row in generators])
            inner(self, generators)
            counts["linalg.pivots"] += len(self.basis)
        return shim

    return {
        ("action", "apply_jq"): apply_jq,
        ("poly", "Polynomial.__init__"): constructed("poly.constructed"),
        ("opalg", "OpElement.__init__"): constructed("opalg.elements_built"),
        ("linalg", "rref"): rref,
        ("linalg", "solve_affine"): solve_affine,
        ("linalg", "SparseEchelon.insert"): echelon_insert,
        ("linalg", "SparseEchelon.membership"): one_row,
        ("linalg", "Z2Lattice.__init__"): lattice_init,
        ("linalg", "Z2Lattice.contains"): one_row,
    }


def _wrappable(obj, module_name):
    if isinstance(obj, type) or not callable(obj):
        return False
    if getattr(obj, "__module__", None) != module_name:
        return False
    return not inspect.isgeneratorfunction(inspect.unwrap(obj))


def import_layers(tracer):
    """Import the package with each layer module's body run inside a span of its layer.

    Module bodies build tables and classes; timing them per layer shows work
    moved into import, and gives every layer a measured self time even on a
    workload that never calls it.
    """
    loader = importlib.machinery.SourceFileLoader
    plain = loader.exec_module  # inherited, so restored by deleting the override

    def exec_module(self, module):
        package, _, name = module.__name__.rpartition(".")
        if package != "jqforge" or name not in MODULE_LAYERS:
            return plain(self, module)
        return tracer.span(MODULE_LAYERS[name], plain)(self, module)

    loader.exec_module = exec_module
    try:
        return {name: importlib.import_module(f"jqforge.{name}") for name in MODULE_LAYERS}
    finally:
        del loader.exec_module


def install(mods, tracer):
    """Wrap every layer's public callables and rebind them across the package."""
    shims = _counting_shims(tracer)

    def wrap(mod_name, qualname, fn):
        wrapped = tracer.span(MODULE_LAYERS[mod_name], fn)
        shim = shims.get((mod_name, qualname))
        return shim(wrapped) if shim else wrapped

    replaced = {}
    for mod_name, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                _wrap_class(obj, mod_name, wrap)
            elif _wrappable(obj, mod.__name__):
                replaced[id(obj)] = (obj, wrap(mod_name, name, obj))

    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "jqforge" and not mod_name.startswith("jqforge."):
            continue
        for name, obj in list(vars(mod).items()):
            found = replaced.get(id(obj))
            if found is not None and found[0] is obj:
                setattr(mod, name, found[1])

    # monomials scanned by equal_by_evaluation, the only opalg user of monomials_upto
    opalg = mods["opalg"]
    sweep = opalg.monomials_upto

    def counted_sweep(*args):
        for mu in sweep(*args):
            tracer.counts["opalg.sweep_monomials"] += 1
            yield mu

    opalg.monomials_upto = counted_sweep


def _wrap_class(cls, mod_name, wrap):
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in WRAPPED_DUNDERS:
            continue
        qualname = f"{cls.__name__}.{name}"
        if isinstance(attr, classmethod):
            setattr(cls, name, classmethod(wrap(mod_name, qualname, attr.__func__)))
        elif isinstance(attr, staticmethod):
            setattr(cls, name, staticmethod(wrap(mod_name, qualname, attr.__func__)))
        elif isinstance(attr, property) and attr.fget is not None:
            setattr(cls, name, property(wrap(mod_name, qualname, attr.fget), attr.fset, attr.fdel))
        elif inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
            setattr(cls, name, wrap(mod_name, qualname, attr))


def main(argv):
    summary_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    mods = import_layers(tracer)
    install(mods, tracer)
    code = mods["cli"].main(cli_args)
    sys.stdout.flush()
    Path(summary_path).write_text(json.dumps(tracer.summary()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Exact calculator for the dyadic lift of the Steenrod operations.

Coefficients live in Z localized at the odd primes, represented as
`fractions.Fraction` with odd denominator where the context demands it.
The generators Jq^k act on integral polynomial rings by a twisted power
rule; everything downstream (relation bases, antipodes, norms, hit
decisions, series solutions) is computed exactly, with no floating
point anywhere.

The main entry points:

- :mod:`jqforge.poly` and :mod:`jqforge.action` for polynomials and the
  generator action,
- :mod:`jqforge.opalg` for words, operator elements, antipode, and the
  mod-2 reduction,
- :mod:`jqforge.relations` for relation nullspaces, decompositions,
  common multiples, and rank counts,
- :mod:`jqforge.norms` for filtration valuations and norm estimates,
- :mod:`jqforge.hit` for hit decisions with certificates,
- :mod:`jqforge.series` for truncated series, equation solving, and
  convergence checks,
- :mod:`jqforge.cli` for the command line front end.

Importing the package loads `errors`, `scalar2`, `poly` and `action`.  The
`opalg` re-exports `OpElement`, `chi`, `eval_element`, `format_op`,
`parse_op` and `phi_reduce` are resolved on first access by the module
`__getattr__` (PEP 562): a query that never uses them never compiles `opalg`.
"""

from .errors import (
    DomainError,
    IndecomposableError,
    JqError,
    NoSolutionError,
    NotFoundError,
    NotInZ2Error,
    ParseError,
    ResolutionFailedError,
    VerificationError,
)
from .poly import Polynomial, format_poly, parse_poly
from .action import apply_jq, apply_word

__version__ = "0.1.0"

_OPALG_EXPORTS = ("OpElement", "chi", "eval_element", "format_op", "parse_op", "phi_reduce")

__all__ = [
    "JqError",
    "ParseError",
    "DomainError",
    "NotInZ2Error",
    "IndecomposableError",
    "NotFoundError",
    "ResolutionFailedError",
    "NoSolutionError",
    "VerificationError",
    "Polynomial",
    "parse_poly",
    "format_poly",
    "apply_jq",
    "apply_word",
    "OpElement",
    "parse_op",
    "format_op",
    "eval_element",
    "chi",
    "phi_reduce",
    "__version__",
]


def __getattr__(name):
    if name in _OPALG_EXPORTS:
        from . import opalg

        return getattr(opalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OPALG_EXPORTS})

"""Sparse polynomials with rational coefficients in a fixed set of variables.

``Terms`` is the one container under both ``Polynomial`` and
``opalg.OpElement``: a dict mapping tuple keys to nonzero Fraction
coefficients, with its normalisation, addition, products and equality.
A Polynomial adds an arity n, and its keys are exponent tuples of length
n.  Instances are treated as immutable: every operation builds a new one
and nothing here mutates terms after construction.

The text grammar accepts forms like ``3*x1^2*x2 - 1/3*x2^4``; a bare rational
is a constant term.  Display uses graded order, ties broken by descending
exponent tuple, so lower-degree terms come first.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, ParseError
from .scalar2 import format_scalar, parse_scalar

_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def add_term(terms: dict, key, c) -> None:
    """Add c at key in place; a key whose coefficient cancels is deleted.

    A key keeps its place while its coefficient stays nonzero, so the
    order of terms is that of adding one term at a time.
    """
    old = terms.get(key)
    if old is not None:
        c += old
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


class Terms:
    """A finite combination of tuple keys with nonzero Fraction coefficients.

    The constructor makes each key a tuple, checks it by the subclass's key
    rule ``_check_key`` and merges the terms with add_term.  A subclass also
    gives the product of two keys (``_mul_keys``).  ``+`` and ``-`` take a
    value of the same kind only; ``*`` also takes a scalar.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
            key = tuple(key)
            self._check_key(key)
            add_term(clean, key, Fraction(c))
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _space(self):
        """The space a value lives in; values in two spaces are never equal."""
        return None

    def _like(self, terms):
        """A value of this kind in self's space with the given terms."""
        return type(self)(terms)

    def _operand(self, other) -> bool:
        """Whether other is a value of this kind, which + and * combine with self."""
        return type(other) is type(self)

    def __add__(self, other):
        if not self._operand(other):
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            add_term(terms, key, c)
        return self._like(terms)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not self._operand(other):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not self._operand(other):
            c = Fraction(other)
            return self._like({key: c * v for key, v in self.terms.items()})
        # every pair is summed before zeros drop, so a key that cancels
        # midway keeps its first place
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = self._mul_keys(k1, k2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return self._like(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Largest total degree of a key; -1 for the zero value."""
        if not self.terms:
            return -1
        return max(sum(key) for key in self.terms)

    def is_homogeneous(self) -> bool:
        return len({sum(key) for key in self.terms}) <= 1


class Polynomial(Terms):
    """A polynomial in ``arity`` variables; keys are exponent tuples."""

    __slots__ = ("arity",)

    def __init__(self, arity: int, terms=None):
        if arity < 0:
            raise DomainError("arity must be nonnegative")
        object.__setattr__(self, "arity", arity)
        super().__init__(terms)

    def _check_key(self, exps):
        if len(exps) != self.arity:
            raise DomainError(f"exponent tuple {exps} does not match arity {self.arity}")
        if any(e < 0 for e in exps):
            raise DomainError(f"negative exponent in {exps}")

    @staticmethod
    def _mul_keys(e1, e2):
        return tuple(a + b for a, b in zip(e1, e2))

    def _space(self):
        return self.arity

    def _like(self, terms):
        return Polynomial(self.arity, terms)

    def _operand(self, other) -> bool:
        if type(other) is Polynomial and other.arity != self.arity:
            raise DomainError(f"arity mismatch: {self.arity} vs {other.arity}")
        return super()._operand(other)

    @classmethod
    def zero(cls, arity: int) -> "Polynomial":
        return cls(arity, {})

    def __repr__(self):
        return f"Polynomial({self.arity}, {format_poly(self)!r})"

    def graded_part(self, d: int) -> "Polynomial":
        return Polynomial(self.arity, {e: c for e, c in self.terms.items() if sum(e) == d})


def _term_sort_key(exps):
    return (sum(exps), tuple(-e for e in exps))


def format_terms(items) -> str:
    """The signed sum of (coefficient, rendered key) pairs, in the given order.

    A unit coefficient is dropped and any other prints as ``|c|*key``; an
    empty key is a constant, which prints its scalar alone.  The first
    term carries its own ``-`` and later ones join with `` + `` or
    `` - ``.  The empty sum is ``0``.
    """
    pieces = []
    for c, key in items:
        if not key:
            body = format_scalar(abs(c))
        elif abs(c) == 1:
            body = key
        else:
            body = f"{format_scalar(abs(c))}*{key}"
        if pieces:
            pieces.append((" + " if c > 0 else " - ") + body)
        else:
            pieces.append(body if c > 0 else "-" + body)
    return "".join(pieces) or "0"


def format_poly(f: Polynomial) -> str:
    def monomial(exps):
        return "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exps) if e)

    return format_terms((f.terms[e], monomial(e)) for e in sorted(f.terms, key=_term_sort_key))


def split_signed_terms(s: str):
    """Split an additive expression into (sign, chunk) pairs.

    A +/- separates terms unless it directly follows *, / or ^.  Runs of
    signs between terms multiply out, so '3 - -2' is two positive chunks.
    """
    chunks = []
    sign = 1
    i, n = 0, len(s)
    while i < n and s[i] in "+- ":
        if s[i] == "-":
            sign = -sign
        i += 1
    start = i
    last_sig = ""
    while i < n:
        ch = s[i]
        if ch in "+-" and last_sig and last_sig not in "*/^":
            chunks.append((sign, s[start:i].strip()))
            sign = 1 if ch == "+" else -1
            i += 1
            while i < n and s[i] in "+- ":
                if s[i] == "-":
                    sign = -sign
                i += 1
            start = i
            last_sig = ""
            continue
        if ch != " ":
            last_sig = ch
        i += 1
    chunk = s[start:].strip()
    if not chunk:
        raise ParseError(f"dangling sign in {s!r}")
    chunks.append((sign, chunk))
    return chunks


def parse_poly(text: str, arity: int) -> Polynomial:
    """Parse the additive polynomial grammar into a Polynomial of given arity."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial expression")
    chunks = split_signed_terms(s)
    if arity < 0:
        raise DomainError("arity must be nonnegative")
    terms = {}
    for sgn, chunk in chunks:
        coeff = Fraction(sgn)
        exps = [0] * arity
        for factor in (p.strip() for p in chunk.split("*")):
            if not factor:
                raise ParseError(f"empty factor in {chunk!r}")
            m = _VAR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                if idx < 1:
                    raise ParseError(f"no variable x{idx}: variables start at x1")
                if idx > arity:
                    raise ParseError(f"variable x{idx} exceeds arity {arity}")
                exps[idx - 1] += int(m.group(2)) if m.group(2) else 1
            else:
                try:
                    coeff *= parse_scalar(factor)
                except ParseError:
                    raise ParseError(f"bad factor {factor!r} in {text!r}") from None
        add_term(terms, tuple(exps), coeff)
    return Polynomial(arity, terms)


def monomials_upto(arity: int, max_deg: int):
    """Yield all exponent tuples with total degree between 0 and max_deg.

    They are the tuples of degree max_deg in one more variable, in
    monomials_of_degree's order, with the last entry, which takes up the
    slack, dropped.  max_deg must be nonnegative.
    """
    for exps in monomials_of_degree(arity + 1, max_deg):
        yield exps[:-1]


def monomials_of_degree(arity: int, d: int):
    """Yield the exponent tuples of total degree d, the first entry slowest."""
    def rec(pos, remaining, acc):
        if pos == arity - 1:
            yield tuple(acc + [remaining])
            return
        for e in range(remaining + 1):
            yield from rec(pos + 1, remaining - e, acc + [e])

    if arity == 0:
        if d == 0:
            yield ()
    elif arity > 0 and d >= 0:
        yield from rec(0, d, [])

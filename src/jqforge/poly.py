"""Sparse polynomials with rational coefficients in a fixed set of variables.

A Polynomial holds an arity n and a dict mapping exponent tuples of length n
to nonzero Fraction coefficients.  Instances are treated as immutable: every
operation builds a new one and nothing here mutates terms after construction.

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


class Polynomial:
    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        if arity < 0:
            raise DomainError("arity must be nonnegative")
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != arity:
                raise DomainError(f"exponent tuple {exps} does not match arity {arity}")
            if any(e < 0 for e in exps):
                raise DomainError(f"negative exponent in {exps}")
            c = Fraction(c)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "Polynomial":
        return cls(arity, {})

    @classmethod
    def constant(cls, c, arity: int) -> "Polynomial":
        return cls(arity, {(0,) * arity: Fraction(c)})

    @classmethod
    def monomial(cls, exps, coeff=1) -> "Polynomial":
        exps = tuple(exps)
        return cls(len(exps), {exps: Fraction(coeff)})

    # -- ring operations ----------------------------------------------

    def _check_arity(self, other: "Polynomial"):
        if self.arity != other.arity:
            raise DomainError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._check_arity(other)
            terms = dict(self.terms)
            for exps, c in other.terms.items():
                terms[exps] = terms.get(exps, Fraction(0)) + c
            return Polynomial(self.arity, terms)
        return self + Polynomial.constant(other, self.arity)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        return self + Polynomial.constant(-Fraction(other), self.arity)

    def __rsub__(self, other):
        return Polynomial.constant(other, self.arity) - self

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_arity(other)
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    terms[key] = terms.get(key, Fraction(0)) + c1 * c2
            return Polynomial(self.arity, terms)
        c = Fraction(other)
        return Polynomial(self.arity, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.arity == other.arity and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other, self.arity)
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Polynomial({self.arity}, {format_poly(self)!r})"

    # -- structure ----------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def graded_part(self, d: int) -> "Polynomial":
        return Polynomial(self.arity, {e: c for e, c in self.terms.items() if sum(e) == d})

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1


def _term_sort_key(exps):
    return (sum(exps), tuple(-e for e in exps))


def format_poly(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    pieces = []
    for exps in sorted(f.terms, key=_term_sort_key):
        c = f.terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        if not factors:
            body = format_scalar(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_scalar(abs(c))] + factors)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


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
            chunk = s[start:i].strip()
            if not chunk:
                raise ParseError(f"empty term in {s!r}")
            chunks.append((sign, chunk))
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

    total = Polynomial.zero(arity)
    for sgn, chunk in chunks:
        coeff = Fraction(sgn)
        exps = [0] * arity
        for factor in (p.strip() for p in chunk.split("*")):
            if not factor:
                raise ParseError(f"empty factor in {chunk!r}")
            m = _VAR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= arity:
                    raise ParseError(f"variable x{idx} exceeds arity {arity}")
                exps[idx - 1] += int(m.group(2)) if m.group(2) else 1
            else:
                try:
                    coeff *= parse_scalar(factor)
                except ParseError:
                    raise ParseError(f"bad factor {factor!r} in {text!r}") from None
        total = total + Polynomial.monomial(tuple(exps), coeff)
    if total.arity != arity:
        raise ParseError("internal arity mismatch")
    return total


def monomials_upto(arity: int, max_deg: int):
    """Yield all exponent tuples with total degree between 0 and max_deg."""
    def rec(pos, remaining, acc):
        if pos == arity - 1:
            for e in range(remaining + 1):
                yield tuple(acc + [e])
            return
        for e in range(remaining + 1):
            yield from rec(pos + 1, remaining - e, acc + [e])

    if arity == 0:
        yield ()
        return
    yield from rec(0, max_deg, [])


def monomials_of_degree(arity: int, d: int):
    """Yield the exponent tuples of total degree d, in monomials_upto's order."""
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

"""Operator elements: rational combinations of words, and what acts on them.

A word is a tuple of positive integers naming a composite of graded
operations; the empty word is the identity.  The tuple (2, 1) means the
degree-1 piece acts first and the degree-2 piece second, consistent with
how apply_word composes.  Elements are finite rational combinations of
words with the concatenation product, held in the term container
``poly.Terms`` that polynomials use too.

The module also carries their text form, the conjugation chi(Jq^k), the
mod-2 reduction onto admissible classical words, and equality decided by
exact evaluation sweeps.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .action import apply_element, element_image
from .errors import DomainError, NotInZ2Error, ParseError
from .poly import (
    Polynomial,
    Terms,
    add_term,
    format_terms,
    monomials_of_degree,
    monomials_upto,
    split_signed_terms,
)
from .scalar2 import in_z2, parse_scalar, scale_to_ints

_WORD_RE = re.compile(r"^Jq(\d+)$")


def compositions(d: int, length=None):
    """Yield compositions of d in canonical word order, optionally of one length.

    A composition is an ordered tuple of positive integers summing to d.
    Those of length r are the exponent tuples of degree d - r in r
    variables, each entry plus 1.  Lengths ascend, and within a length
    the entries descend lexicographically (the exponent tuples read in
    reverse), which is the `word_key` order.  This is the one place that
    order is decided: every word set of the package is this sequence,
    at most filtered, and none is sorted again.  d = 0 yields only the
    empty tuple (and only when length is 0 or None).
    """
    if d < 0:
        raise DomainError("cannot compose a negative integer")
    for r in range(d + 1) if length is None else (length,):
        for exps in reversed(list(monomials_of_degree(r, d - r))):
            yield tuple(e + 1 for e in exps)


def word_key(w):
    """Canonical sort key: degree, then length, then descending entries.

    `compositions` yields each degree in this order; the key sorts only
    the words of an element or a classical sum for display.
    """
    return (sum(w), len(w), tuple(-x for x in w))


class OpElement(Terms):
    """A rational combination of words; keys are words, products concatenate."""

    __slots__ = ()

    def __init__(self, terms=None):
        # its own method, so that bench/tracer.py can count elements built
        super().__init__(terms)

    def _check_key(self, w):
        if any(k <= 0 for k in w):
            raise DomainError(f"word entries must be positive, got {w}")

    @staticmethod
    def _mul_keys(w1, w2):
        return w1 + w2

    @classmethod
    def zero(cls) -> "OpElement":
        return cls({})

    @classmethod
    def one(cls) -> "OpElement":
        return cls({(): Fraction(1)})

    @classmethod
    def jq(cls, k: int) -> "OpElement":
        if k < 0:
            raise DomainError("generator index must be nonnegative")
        return cls({(): Fraction(1)}) if k == 0 else cls({(k,): Fraction(1)})

    @classmethod
    def from_word(cls, w) -> "OpElement":
        return cls({tuple(w): Fraction(1)})

    def __repr__(self):
        return f"OpElement({format_op(self)!r})"


# -- text form --------------------------------------------------------


def format_word(w) -> str:
    if not w:
        return "Jq0"
    return ".".join(f"Jq{k}" for k in w)


def format_op(e: OpElement) -> str:
    return format_terms((e.terms[w], format_word(w)) for w in sorted(e.terms, key=word_key))


def parse_op(text: str) -> OpElement:
    """Parse the operator grammar, e.g. '3*Jq3 - 6*Jq2.Jq1 + Jq1.Jq1.Jq1'."""
    s = text.strip()
    if not s:
        raise ParseError("empty operator expression")
    terms = {}
    for sgn, chunk in split_signed_terms(s):
        coeff = Fraction(sgn)
        word = []
        saw_word = False
        for factor in (p.strip() for p in chunk.split("*")):
            if not factor:
                raise ParseError(f"empty factor in {chunk!r}")
            if _WORD_RE.match(factor.split(".")[0].strip()):
                if saw_word:
                    raise ParseError(f"two word factors in {chunk!r}; use '.' to compose")
                saw_word = True
                for piece in factor.split("."):
                    m = _WORD_RE.match(piece.strip())
                    if not m:
                        raise ParseError(f"bad word factor {piece!r} in {text!r}")
                    k = int(m.group(1))
                    if k > 0:
                        word.append(k)
            else:
                try:
                    coeff *= parse_scalar(factor)
                except ParseError:
                    raise ParseError(f"bad factor {factor!r} in {text!r}") from None
        add_term(terms, tuple(word), coeff)
    return OpElement(terms)


# -- conjugation ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _chi_recursion(k: int) -> OpElement:
    if k == 0:
        return OpElement.one()
    acc = OpElement.zero()
    for i in range(1, k + 1):
        acc = acc + OpElement.jq(i) * _chi_recursion(k - i)
    return -acc


def chi(k: int, method: str = "recursion") -> OpElement:
    """Conjugation of the degree-k generator.

    The recursion unwinds the convolution identity sum Jq^i chi(Jq^j) = 0;
    the partition method sums (-1)^length over all compositions of k.  The
    two must agree word for word.
    """
    if k < 0:
        raise DomainError("generator index must be nonnegative")
    if method == "recursion":
        return _chi_recursion(k)
    if method == "partitions":
        terms = {}
        for alpha in compositions(k):
            terms[alpha] = Fraction((-1) ** len(alpha))
        return OpElement(terms)
    raise DomainError(f"unknown method {method!r}")


# -- classical reduction ----------------------------------------------


@functools.lru_cache(maxsize=None)
def admissible_form(word: tuple) -> frozenset:
    """Rewrite a composite squaring word into admissible form over F_2.

    Admissible means each entry is at least twice its right neighbour.
    The first offending adjacent pair from the left is expanded by the
    classical quadratic relations and the results are reduced recursively,
    with symmetric difference implementing mod-2 arithmetic.  The relation
    keeps the terms with C(b - j - 1, a - 2j) odd, that is (Lucas) with
    the binary digits of a - 2j among those of b - j - 1.
    """
    word = tuple(k for k in word if k != 0)
    for pos in range(len(word) - 1):
        a, b = word[pos], word[pos + 1]
        if a < 2 * b:
            out = frozenset()
            for j in range(a // 2 + 1):
                if ((a - 2 * j) & ~(b - j - 1)) == 0:
                    replacement = (a + b - j,) + ((j,) if j else ())
                    rewritten = word[:pos] + replacement + word[pos + 2:]
                    out = out ^ admissible_form(rewritten)
            return out
    return frozenset({word})


def phi_reduce(e: OpElement) -> frozenset:
    """Mod-2 reduction onto admissible classical words.

    Coefficients must be 2-adic integers; p/q with q odd is p mod 2, so
    odd numerators survive and even ones die.
    """
    out = frozenset()
    for w, c in e.terms.items():
        if not in_z2(c):
            raise NotInZ2Error(f"coefficient {c} of {format_word(w)} is not 2-adically integral")
        if c.numerator & 1:
            out = out ^ admissible_form(w)
    return out


def format_classical(x: frozenset) -> str:
    words = sorted(x, key=word_key)
    return format_terms((1, ".".join(f"Sq{k}" for k in w) or "Sq0") for w in words)


# -- evaluation semantics ---------------------------------------------


def eval_element(e: OpElement, f: Polynomial) -> Polynomial:
    return apply_element(e.terms, f)


def equal_by_evaluation(a: OpElement, b: OpElement, n_vars=None, deg_bound=None) -> bool:
    """Decide equality by acting on all monomials within the stated bounds.

    Defaults: n_vars = max(degree, 2) and deg_bound = degree, the largest
    word degree of the difference e.  That bound is a proof in n_vars
    variables.  On a monomial x^m, e gives sum_s P_s(m) x^(m+s), over
    shift vectors s with |s| the degree of a word; a word of degree j
    contributes products of binomials C(m_i + shift_i, j_i), so each P_s
    is a polynomial in m_1..m_n of total degree at most the degree of e,
    right for every m >= 0.  A polynomial of total degree at most d that
    vanishes on {m : |m| <= d} is zero (in the binomial basis
    prod C(m_i, a_i), |a| <= d, evaluating at m = a in increasing order is
    triangular), so vanishing on every monomial of degree <= deg(e)
    decides e = 0 on all polynomials in n_vars variables.  P_s does not
    depend on m_i where s_i = 0, so with n_vars >= degree (the default)
    it decides e = 0 in any number of variables.  A smaller deg_bound is
    only a partial check.  Every word commutes with permuting the
    variables, as f -> f(x + x^2) treats each alike, so e(x^(sigma m)) is
    e(x^m) with its exponents permuted; the grid is closed under
    permutation, so the sweep visits only nonincreasing m.

    The difference is scaled by the lcm of its coefficient denominators,
    which changes no zero test, so with the integral monomial images of
    the evaluation kernel the whole sweep runs on Python ints.  Each
    monomial's images share right factors between words, and the sweep
    stops at the first monomial with a nonzero image.
    """
    diff = a - b
    if not diff.terms:
        return True
    d = diff.degree()
    if n_vars is None:
        n_vars = max(d, 2)
    if deg_bound is None:
        deg_bound = d
    terms, _ = scale_to_ints(diff.terms)
    for exps in monomials_upto(n_vars, deg_bound):
        if list(exps) == sorted(exps, reverse=True) and element_image(terms, exps):
            return False
    return True


def nilpotency_degree(k: int, max_pow: int):
    """Smallest power of the degree-k generator that reduces to zero mod 2.

    Returns None when no power up to max_pow vanishes.
    """
    if k <= 0 or max_pow <= 0:
        raise DomainError("need k >= 1 and maxPow >= 1")
    for n in range(1, max_pow + 1):
        if not admissible_form((k,) * n):
            return n
    return None

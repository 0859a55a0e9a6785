"""Action of the divided-power operations on polynomial rings.

The total operation sends each variable generator x to x + x^2 and extends
multiplicatively; its graded piece of degree k raises a monomial's degree by
exactly k.  On a monomial the piece distributes across the variables with a
product of binomial coefficients: absorbing j units into an exponent e
multiplies by C(e, j).  The image of a monomial under any word is therefore
a sum of monomials with nonnegative integer coefficients, and rational
coefficients only enter through the polynomial or element acted on.

Every evaluation of words on monomials in the package goes through one
kernel:

- ``monomial_image(k, exps)`` is the degree-k image of one monomial as an
  immutable tuple of (raised exponents, int) pairs, cached for the life of
  the process by (k, exps);
- ``word_images(words, mu)`` evaluates a list of words on one monomial as
  plain ``{exponents: int}`` dicts, sharing right factors between words
  (the image of Jq2.Jq1.Jq1 starts from that of Jq1.Jq1);
- ``element_image(terms, mu)`` sums those images for an element
  ``{word: coeff}`` and drops the terms that cancel;
- ``apply_element(terms, f)``, the only entry point for a Polynomial, sums
  ``c * element_image(terms, mu)`` over the terms ``c * x^mu`` of f.
  ``apply_jq`` and ``apply_word`` each hand it one element.

Words act by composition with the rightmost entry applied first, matching
the concatenation product of the operator algebra.

This module imports nothing above `poly`.  The inverse of 1 - Jq^k is an
infinite series, so it lives in `series`.
"""

from __future__ import annotations

import functools
from math import comb

from .errors import DomainError
from .poly import Polynomial


def _splits(exps, k):
    """(raised exponent tuple, coefficient) pairs over the ways to spread k.

    Each variable with exponent e can absorb 0..e units; absorbing j units
    multiplies by C(e, j) and raises the exponent by j.  One pass per
    variable extends every partial spread; j starts where the later
    exponents can still absorb what remains, so no branch dies.  Pairs come
    in lexicographic order of the absorbed units.
    """
    partials = [((), k, 1)]
    rest = sum(exps)
    for e in exps:
        rest -= e
        partials = [
            (raised + (e + j,), remaining - j, coeff * comb(e, j))
            for raised, remaining, coeff in partials
            for j in range(max(0, remaining - rest), min(e, remaining) + 1)
        ]
    return [(raised, coeff) for raised, remaining, coeff in partials if remaining == 0]


@functools.lru_cache(maxsize=None)
def monomial_image(k: int, exps: tuple) -> tuple:
    """Degree-k image of the monomial with exponents exps.

    A tuple of (raised exponents, positive int coefficient) pairs, empty
    when k exceeds the degree.
    """
    if k < 0:
        raise DomainError("operation degree must be nonnegative")
    return tuple(_splits(exps, k))


def word_images(words, mu) -> list:
    """Images of the monomial mu under each word, as {exponents: int} dicts.

    Suffix images are memoised for this call only, so the returned dicts
    belong to the caller; a word listed twice gets the same dict twice.
    """
    mu = tuple(mu)
    memo = {(): {mu: 1}}

    def image(w):
        out = memo.get(w)
        if out is None:
            out = {}
            k = w[0]
            for exps, c in image(w[1:]).items():
                for raised, coeff in monomial_image(k, exps):
                    out[raised] = out.get(raised, 0) + c * coeff
            memo[w] = out
        return out

    images = [image(tuple(w)) for w in words]
    del image  # it refers to itself: drop it now, not at the cyclic collector
    return images


def element_image(terms, mu) -> dict:
    """Image of the monomial mu under the element {word: coeff}, zero terms dropped."""
    acc = {}
    for c, img in zip(terms.values(), word_images(terms, mu)):
        for exps, v in img.items():
            acc[exps] = acc.get(exps, 0) + c * v
    return {exps: v for exps, v in acc.items() if v != 0}


def apply_element(terms, f: Polynomial) -> Polynomial:
    """Image of f under the element {word: coeff}, monomial by monomial."""
    out = {}
    for mu, c in f.terms.items():
        for exps, v in element_image(terms, mu).items():
            out[exps] = out.get(exps, 0) + c * v
    return Polynomial(f.arity, out)


def apply_jq(k: int, f: Polynomial) -> Polynomial:
    """Apply the degree-k operation to f."""
    if k < 0:
        raise DomainError("operation degree must be nonnegative")
    return f if k == 0 else apply_element({(k,): 1}, f)


def apply_word(word, f: Polynomial) -> Polynomial:
    """Apply a composite word, rightmost factor first."""
    return apply_element({tuple(word): 1}, f)

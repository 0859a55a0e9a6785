"""Exact coordinates of operator words in the enveloping algebra of W+.

Let D_j = sum_i x_i^(j+1) d/dx_i, so that [D_a, D_b] = (b - a) D_(a+b).
The total operation f(x) -> f(x + x^2) is a substitution automorphism,
so its logarithm is a derivation delta = sum_(j>=1) a_(j+1) D_j, where
v(x) = sum_n a_n x^n solves v(x + x^2) = (1 + 2x) v(x) with a_2 = 1.
The degree-k operation is E_k, the degree-k part of exp(delta).  Jq1
and Jq2 generate, and the D_j act faithfully in enough variables, so
the operator algebra over Q is U(W+): its degree-d part has dimension
p(d), with the ordered monomials D_u = D_(u1)...D_(ur), u a partition
written largest part first, as a basis.

A coordinate vector is a dict {partition: Fraction}.  A word acts with
its rightmost letter first, as in `action`, so the word (k1, ..., kr)
has the coordinates of E_(k1)...E_(kr).  Everything is built lazily:
the a_n, the straightening of D_u * D_j and E_k are memoised per
argument, and nothing is computed at import.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DomainError
from .scalar2 import scale_to_ints


@functools.lru_cache(maxsize=None)
def coefficient(n: int) -> Fraction:
    """a_n, the coefficient of x^n in v: 1, -1, 3/2, -8/3, 31/6 for n = 2..6.

    Comparing the coefficients of x^(n+1) in v(x + x^2) = (1 + 2x) v(x)
    gives (n - 2) a_n = -sum_(m=2..n-1) a_m C(m, n + 1 - m).
    """
    if n < 2:
        raise DomainError("the derivation starts at x^2")
    if n == 2:
        return Fraction(1)
    acc = sum(coefficient(m) * math.comb(m, n + 1 - m) for m in range(2, n))
    return -acc / (n - 2)


@functools.lru_cache(maxsize=None)
def dimension(d: int) -> int:
    """p(d), the number of partitions of d: the dimension of degree d."""
    counts = [1] + [0] * d
    for part in range(1, d + 1):
        for n in range(part, d + 1):
            counts[n] += counts[n - part]
    return counts[d]


@functools.lru_cache(maxsize=None)
def mul_gen(u: tuple, j: int) -> tuple:
    """D_u * D_j in the ordered basis, as (partition, int) pairs.

    When j exceeds the last part l of u, D_l * D_j = D_j * D_l +
    (j - l) D_(l+j) moves D_j one place left; the rest is recursion on
    shorter or better ordered products.
    """
    if not u or u[-1] >= j:
        return ((u + (j,), 1),)
    head, last = u[:-1], u[-1]
    out = {}
    for v, c in mul_gen(head, j):
        for t, c2 in mul_gen(v, last):
            out[t] = out.get(t, 0) + c * c2
    for t, c in mul_gen(head, last + j):
        out[t] = out.get(t, 0) + (j - last) * c
    return tuple((t, c) for t, c in out.items() if c != 0)


@functools.lru_cache(maxsize=None)
def _mul_basis(u: tuple, v: tuple) -> tuple:
    """D_u * D_v in the ordered basis, as (partition, int) pairs."""
    if not v:
        return ((u, 1),)
    out = {}
    for t, c in _mul_basis(u, v[:-1]):
        for s, c2 in mul_gen(t, v[-1]):
            out[s] = out.get(s, 0) + c * c2
    return tuple((t, c) for t, c in out.items() if c != 0)


def multiply(a: dict, b: dict) -> dict:
    """Product of two coordinate vectors, zero terms dropped.

    Both are scaled to ints first, so Fractions are built only for the
    result.
    """
    (a, da), (b, db) = scale_to_ints(a), scale_to_ints(b)
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            xy = x * y
            for t, c in _mul_basis(u, v):
                out[t] = out.get(t, 0) + xy * c
    den = da * db
    return {t: Fraction(c, den) for t, c in out.items() if c != 0}


@functools.lru_cache(maxsize=None)
def _delta_power(r: int, k: int) -> tuple:
    """Degree-k part of delta^r, as (partition, Fraction) pairs."""
    if r == 0:
        return (((), Fraction(1)),) if k == 0 else ()
    out = {}
    for j in range(1, k - r + 2):
        a = coefficient(j + 1)
        for u, c in _delta_power(r - 1, k - j):
            for t, c2 in mul_gen(u, j):
                out[t] = out.get(t, 0) + a * c * c2
    return tuple((t, c) for t, c in out.items() if c != 0)


@functools.lru_cache(maxsize=None)
def _e(k: int) -> tuple:
    out = {}
    for r in range(1, k + 1):
        for t, c in _delta_power(r, k):
            out[t] = out.get(t, 0) + c / math.factorial(r)
    return tuple((t, c) for t, c in out.items() if c != 0)


def E(k: int) -> dict:
    """Coordinates of the degree-k operation Jq^k, the degree-k part of exp(delta)."""
    if k < 0:
        raise DomainError("operation degree must be nonnegative")
    return {(): Fraction(1)} if k == 0 else dict(_e(k))


def word_coordinates(words):
    """Yield the coordinates of each word, E_(k1)...E_(kr) for the word (k1, ..., kr).

    Lazily, so a caller that stops early builds no more.  Suffix
    coordinates are memoised for this call only, so the coordinates of
    Jq2.Jq1.Jq1 start from those of Jq1.Jq1.  The yielded dicts belong to
    the caller; a word listed twice gets the same dict twice.
    """
    memo = {(): {(): Fraction(1)}}
    for w in words:
        w = tuple(w)
        i = next(i for i in range(len(w) + 1) if w[i:] in memo)
        for j in range(i - 1, -1, -1):
            memo[w[j:]] = multiply(E(w[j]), memo[w[j + 1:]])
        yield memo[w]


def element_coordinates(elements) -> list:
    """Coordinates of each element {word: coeff}, sharing suffixes between all of them."""
    words = list(dict.fromkeys(w for e in elements for w in e))
    coords = dict(zip(words, word_coordinates(words)))
    out = []
    for e in elements:
        acc = {}
        for w, c in e.items():
            for t, x in coords[w].items():
                acc[t] = acc.get(t, 0) + c * x
        out.append({t: x for t, x in acc.items() if x != 0})
    return out

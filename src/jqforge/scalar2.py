"""Rational scalars through a 2-adic lens.

Scalars are plain fractions.Fraction values.  This module supplies the
2-adic valuation (the exact sentinel INF for zero), the ring-of-integers
test (odd denominator), integer scaling of a coefficient dict, and the
rational parse/format pair used by every grammar in the package.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering
from numbers import Rational

from .errors import DomainError, NotInZ2Error, ParseError


@total_ordering
class _Infinity:
    """The valuation of zero: above every rational, equal only to itself.

    An exact sentinel in place of the float infinity, so that no float
    enters a valuation.  Equality is the default identity; ordering
    against anything but a rational or itself raises TypeError.
    """

    __slots__ = ()

    def __repr__(self):
        return "INF"

    def __lt__(self, other):
        if other is self or isinstance(other, Rational):
            return False
        return NotImplemented


INF = _Infinity()

_RAT_RE = re.compile(r"^([+-]?\d+)(?:\s*/\s*(\d+))?$")


def v2_int(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is infinite; handle separately")
    return (n & -n).bit_length() - 1


def v2(r):
    """2-adic valuation; INF for zero.  Ints and Fractions are read as they are."""
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    if r == 0:
        return INF
    return v2_int(r.numerator) - v2_int(r.denominator)


def in_z2(r) -> bool:
    """True when r has odd denominator, i.e. lies in the 2-adic integers."""
    return Fraction(r).denominator % 2 == 1


def scale_to_ints(coeffs: dict) -> tuple:
    """A dict of ints and Fractions as ints, times the lcm of its denominators.

    Returns (int dict without zeros, that lcm).  The lcm is a positive
    multiplier, so the zero pattern and the signs are those of coeffs.
    """
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    den = math.lcm(*(v.denominator for v in coeffs.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in coeffs.items()}, den


def parse_scalar(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with q positive."""
    m = _RAT_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_scalar(r) -> str:
    r = Fraction(r)
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def two_adic_digits(r, k: int) -> str:
    """First k digits of the 2-adic expansion of r, least significant first.

    Only defined for 2-adic integers.  Returns a string like '011010...'
    where position i holds the coefficient of 2^i.
    """
    r = Fraction(r)
    if not in_z2(r):
        raise NotInZ2Error(f"{r} is not a 2-adic integer")
    if k < 0:
        raise DomainError("digit count must be nonnegative")
    num, den = r.numerator, r.denominator
    digits = []
    for _ in range(k):
        bit = (num * pow(den, -1, 2)) % 2
        digits.append(str(bit))
        num = (num - bit * den) // 2
    return "".join(digits)

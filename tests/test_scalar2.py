import math
from fractions import Fraction

import pytest

from jqforge.errors import NotInZ2Error, ParseError
from jqforge import scalar2
from jqforge.hit import cohit_order, min_hit_valuation
from jqforge.norms import adem_valuation, operator_norm_estimate
from jqforge.opalg import OpElement


def test_infinite_valuations_are_exact_not_float():
    INF = scalar2.INF
    reports = [adem_valuation(OpElement.zero()), operator_norm_estimate(OpElement.zero(), 1)]
    values = [scalar2.v2(0), cohit_order(1), min_hit_valuation(1)] + [r.value for r in reports]
    assert all(v is INF and not isinstance(v, float) for v in values)
    for r in reports:
        assert r.json_obj()["value"] == "inf" and r.norm == 0
    # ordered above every rational, equal only to itself
    assert sorted([INF, 10**100, Fraction(-1, 3), 0]) == [Fraction(-1, 3), 0, 10**100, INF]
    assert min(INF, 7) == 7 and INF <= INF and not INF < INF and not INF > INF
    assert INF == INF and INF != 10**100 and INF != float("inf")
    with pytest.raises(TypeError):
        INF < 1.5


def test_valuation_multiplicative():
    vals = [Fraction(24), Fraction(1, 3), Fraction(-5, 8), Fraction(7), Fraction(2, 7)]
    for a in vals:
        for b in vals:
            assert scalar2.v2(a * b) == scalar2.v2(a) + scalar2.v2(b)


def test_ultrametric_inequality():
    v2 = scalar2.v2
    vals = [Fraction(6), Fraction(1, 3), Fraction(-5, 8), Fraction(12), Fraction(-6), Fraction(0)]
    for a in vals:
        for b in vals:
            assert v2(a + b) >= min(v2(a), v2(b))


def test_in_z2():
    assert scalar2.in_z2(Fraction(5, 3))
    assert scalar2.in_z2(24)
    assert not scalar2.in_z2(Fraction(1, 2))
    assert not scalar2.in_z2(Fraction(3, 10))


def test_binom_central_valuation():
    # C(2^n, 2^n - 1) = 2^n carries the full power of two
    for n in range(6):
        assert math.comb(2 ** n, 2 ** n - 1) == 2 ** n
        assert scalar2.v2(math.comb(2 ** n, 2 ** n - 1)) == n


def test_parse_format_roundtrip():
    for text in ["3", "-3", "1/3", "-7/12", "0"]:
        r = scalar2.parse_scalar(text)
        assert scalar2.format_scalar(r) == text
    assert scalar2.parse_scalar(" 4/6 ") == Fraction(2, 3)
    with pytest.raises(ParseError):
        scalar2.parse_scalar("x")
    with pytest.raises(ParseError):
        scalar2.parse_scalar("1/0")


def test_two_adic_digits():
    assert scalar2.two_adic_digits(11, 5) == "11010"
    assert scalar2.two_adic_digits(Fraction(1, 3), 6) == "110101"
    # 1/3 = ...010101011 in base 2: check by partial sums mod 64
    partial = sum(int(b) << i for i, b in enumerate("110101"))
    assert (partial * 3) % 64 == 1
    with pytest.raises(NotInZ2Error):
        scalar2.two_adic_digits(Fraction(1, 2), 4)

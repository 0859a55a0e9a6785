import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jqforge.errors import DomainError, ParseError
from jqforge.opalg import OpElement, format_classical, format_op
from jqforge.poly import (
    Polynomial,
    format_poly,
    format_terms,
    monomials_of_degree,
    monomials_upto,
    parse_poly,
)


def rand_poly(rng, arity, deg, nterms=4):
    terms = {}
    for _ in range(nterms):
        exps = [0] * arity
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(arity)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 8]))
    return Polynomial(arity, terms)


def test_constructor_drops_zeros():
    f = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert list(f.terms) == [(1, 0)]
    with pytest.raises(DomainError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(DomainError):
        Polynomial(1, {(-1,): 1})


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_poly(rng, 2, 4)
        b = rand_poly(rng, 2, 4)
        c = rand_poly(rng, 2, 4)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial.zero(2)


def test_arity_mismatch_is_refused_and_zeros_of_two_arities_differ():
    a, b = parse_poly("x1", 1), parse_poly("x1*x2", 2)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(DomainError, match=r"^arity mismatch: 1 vs 2$"):
            op(a, b)
    assert Polynomial.zero(1) != Polynomial.zero(2)


def test_degree_and_parts():
    f = parse_poly("x1 + x1^2", 1)
    assert f.degree() == 2
    assert f.graded_part(2) == parse_poly("x1^2", 1)
    assert f.graded_part(5) == Polynomial.zero(1)
    assert f.graded_part(1) + f.graded_part(2) == f
    assert Polynomial.zero(3).degree() == -1
    assert f.is_homogeneous() is False
    assert parse_poly("3*x1*x2", 2).is_homogeneous()


def test_parse_basic():
    f = parse_poly("3*x1^2*x2 - 1/3*x2^4", 2)
    assert f.terms == {(2, 1): Fraction(3), (0, 4): Fraction(-1, 3)}
    assert parse_poly("1", 2) == Polynomial(2, {(0, 0): 1})
    assert parse_poly("-x1", 1) == Polynomial(1, {(1,): -1})
    assert parse_poly("x1*x1", 1) == parse_poly("x1^2", 1)
    assert parse_poly("2*3*x1", 1) == parse_poly("6*x1", 1)
    assert parse_poly("0", 1) == Polynomial.zero(1)


def test_parse_orders_terms_as_adding_them_one_at_a_time():
    # a term that cancels leaves its place; when it comes back it goes last
    f = parse_poly("x1 - x1 + x2 + 2*x1^2 + x1 - x1^2", 2)
    assert list(f.terms.items()) == [((0, 1), 1), ((2, 0), 1), ((1, 0), 1)]


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("x3", 2)
    with pytest.raises(ParseError):
        parse_poly("x1 +", 1)
    with pytest.raises(ParseError):
        parse_poly("", 1)
    with pytest.raises(ParseError):
        parse_poly("x1^", 1)
    with pytest.raises(ParseError):
        parse_poly("y1", 1)


def test_variable_index_errors_say_which_bound_is_crossed():
    with pytest.raises(ParseError, match=r"^variable x3 exceeds arity 2$"):
        parse_poly("x1 + x3", 2)
    for text in ("x0", "x00^2", "2*x0*x1"):
        with pytest.raises(ParseError, match=r"^no variable x0: variables start at x1$"):
            parse_poly(text, 1)


def test_format_parse_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        f = rand_poly(rng, 3, 5)
        assert parse_poly(format_poly(f), 3) == f
    assert format_poly(Polynomial.zero(2)) == "0"
    assert format_poly(parse_poly("x1^2 + x1", 1)) == "x1 + x1^2"


@st.composite
def polynomials(draw):
    arity = draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 12), min_size=arity, max_size=arity).map(tuple)
    coeff = st.fractions(min_value=-100, max_value=100, max_denominator=64)
    return Polynomial(arity, draw(st.dictionaries(exps, coeff, max_size=6)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(polynomials())
def test_format_poly_then_parse_poly_is_the_identity(f):
    text = format_poly(f)
    assert parse_poly(text, f.arity) == f
    assert format_poly(parse_poly(text, f.arity)) == text


def test_one_writer_for_every_signed_sum():
    assert format_terms([]) == format_poly(Polynomial.zero(2)) == format_op(OpElement.zero()) == "0"
    assert format_terms([(Fraction(-3, 2), "")]) == format_poly(parse_poly("-3/2", 1)) == "-3/2"
    items = [(-1, "x1"), (1, "x2"), (Fraction(2, 3), "x1*x2"), (-5, "x2^2")]
    assert format_terms(items) == "-x1 + x2 + 2/3*x1*x2 - 5*x2^2"
    assert format_poly(parse_poly("1 - x1 + 4*x1^2", 1)) == "1 - x1 + 4*x1^2"
    assert format_op(OpElement({(): 3})) == "3*Jq0"
    assert format_op(OpElement({(): -1, (2, 1): Fraction(1, 5)})) == "-Jq0 + 1/5*Jq2.Jq1"
    assert format_classical(frozenset({(), (2, 1)})) == "Sq0 + Sq2.Sq1"
    assert format_classical(frozenset()) == "0"


def test_format_graded_order():
    f = parse_poly("x2^2 + x1*x2 + x1 - x1^2", 2)
    assert format_poly(f) == "x1 - x1^2 + x1*x2 + x2^2"


def test_monomials_upto():
    ms = list(monomials_upto(2, 2))
    assert set(ms) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    assert len(list(monomials_upto(3, 4))) == 35


def test_enumerators_are_a_filtered_product_in_order():
    for arity in range(5):
        for d in range(7):
            grid = list(itertools.product(range(d + 1), repeat=arity))
            assert list(monomials_upto(arity, d)) == [mu for mu in grid if sum(mu) <= d]
            assert list(monomials_of_degree(arity, d)) == [mu for mu in grid if sum(mu) == d]


def test_monomials_of_degree_are_those_of_monomials_upto_in_order():
    for arity in range(5):
        for d in range(-1, 7):
            expect = [mu for mu in monomials_upto(arity, max(d, 0)) if sum(mu) == d]
            assert list(monomials_of_degree(arity, d)) == expect, (arity, d)

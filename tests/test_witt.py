"""Witt coordinates against the evaluation kernel and against the algebra's own rules."""

import functools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jqforge import witt
from jqforge.action import element_image, word_images
from jqforge.opalg import compositions
from jqforge.poly import monomials_upto

F = Fraction


@functools.lru_cache(maxsize=None)
def vector_field_image(u, mu):
    """D_u = D_(u1)...D_(ur) on x^mu as {exps: int}, rightmost factor first.

    D_j = sum_i x_i^(j+1) d/dx_i, written from its definition and sharing
    no code with `witt` or `action`.
    """
    if not u:
        return {mu: 1}
    out = {}
    j = u[0]
    for exps, c in vector_field_image(u[1:], mu).items():
        for i, e in enumerate(exps):
            if e:
                raised = exps[:i] + (e + j,) + exps[i + 1:]
                out[raised] = out.get(raised, 0) + c * e
    return {exps: c for exps, c in out.items() if c != 0}


def coordinates_on(coords, mu):
    acc = {}
    for u, c in coords.items():
        for exps, v in vector_field_image(u, mu).items():
            acc[exps] = acc.get(exps, 0) + c * v
    return {exps: v for exps, v in acc.items() if v != 0}


def test_coefficients_solve_the_functional_equation():
    assert [witt.coefficient(n) for n in range(2, 9)] == [
        1, -1, F(3, 2), F(-8, 3), F(31, 6), F(-157, 15), F(649, 30)
    ]
    # v(x + x^2) = (1 + 2x) v(x), coefficient by coefficient through x^14
    top = 14
    v = {n: witt.coefficient(n) for n in range(2, top + 1)}
    for big_n in range(2, top + 1):
        lhs = sum(v[n] * math.comb(n, big_n - n) for n in v if n <= big_n)
        rhs = v[big_n] + 2 * v.get(big_n - 1, 0)
        assert lhs == rhs, big_n


def test_low_degree_operations():
    assert witt.E(0) == {(): 1}
    assert witt.E(1) == {(1,): 1}
    assert witt.E(2) == {(1, 1): F(1, 2), (2,): -1}


def test_each_operation_is_its_generator_on_the_grid():
    # the grid in k variables to degree k decides operators of degree k in
    # every number of variables (`opalg.equal_by_evaluation`)
    for k in range(1, 7):
        e = witt.E(k)
        for mu in monomials_upto(k, k):
            assert coordinates_on(e, mu) == element_image({(k,): 1}, mu), (k, mu)


@st.composite
def words(draw):
    d = draw(st.integers(1, 8))
    return draw(st.lists(st.sampled_from(list(compositions(d))), min_size=1, max_size=4))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(words())
def test_word_coordinates_agree_with_the_three_variable_grid(ws):
    coords = witt.word_coordinates(ws)
    for mu in monomials_upto(3, sum(ws[0])):
        for c, image in zip(coords, word_images(ws, mu)):
            assert coordinates_on(c, mu) == image


def test_element_coordinates_are_linear():
    a, b = witt.word_coordinates([(2, 1), (1, 2)])
    (both,) = witt.element_coordinates([{(2, 1): 3, (1, 2): F(-1, 2)}])
    assert both == {t: 3 * a.get(t, 0) - b.get(t, 0) / 2 for t in a.keys() | b.keys()}
    # Jq2.Jq1 - Jq1.Jq2 = [E_2, E_1] = [D_1, D_2] = D_3
    assert witt.element_coordinates([{(2, 1): 1, (1, 2): -1}]) == [{(3,): 1}]


partitions = st.lists(st.integers(1, 5), max_size=4).map(lambda p: tuple(sorted(p, reverse=True)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(partitions, st.integers(1, 5), st.integers(1, 5))
def test_straightening_is_associative(u, j, l):
    left = {}
    for v, c in witt.mul_gen(u, j):
        for t, c2 in witt.mul_gen(v, l):
            left[t] = left.get(t, 0) + c * c2
    left = {t: c for t, c in left.items() if c != 0}
    right = witt.multiply({u: 1}, dict(witt.mul_gen((j,), l)))
    assert left == right


@settings(derandomize=True, max_examples=40, deadline=None)
@given(partitions, st.integers(1, 5))
def test_straightening_is_composition_of_vector_fields(u, j):
    d = sum(u) + j
    product = dict(witt.mul_gen(u, j))
    assert all(list(t) == sorted(t, reverse=True) and sum(t) == d for t in product)
    for mu in monomials_upto(2, 3):
        assert coordinates_on(product, mu) == vector_field_image(u + (j,), mu)

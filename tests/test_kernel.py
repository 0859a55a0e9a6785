"""The integer evaluation kernel and every Polynomial action built on it.

The oracle shares no code with the kernel: the total operation is the ring
homomorphism x_i -> x_i + x_i^2, so the degree-k image of a monomial is a
graded part of a product of powers of x_i + x_i^2, expanded by Polynomial
arithmetic, and words and elements are composed from it letter by letter.
"""

import functools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jqforge.action import (
    apply_element,
    apply_word,
    element_image,
    monomial_image,
    word_images,
)
from jqforge.opalg import OpElement, eval_element
from jqforge.poly import Polynomial
from jqforge.relations import adem_nullspace

ORACLE = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def words(draw, max_degree=6):
    """A word of degree at most max_degree, the empty word included."""
    budget = draw(st.integers(0, max_degree))
    w = []
    while budget:
        k = draw(st.integers(1, budget))
        w.append(k)
        budget -= k
    return tuple(w)


monomials = st.integers(1, 3).flatmap(lambda n: st.tuples(*[st.integers(0, 4)] * n))
coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)


@st.composite
def word_lists(draw):
    """Words plus left extensions of them, so that suffixes are shared."""
    base = draw(st.lists(words(max_degree=4), min_size=1, max_size=4))
    extended = [(draw(st.integers(1, 2)),) + w for w in base]
    return draw(st.permutations(base + extended))


# elements vanishing on one-variable powers: their images cancel there, and partly elsewhere
RELATIONS = [
    {w: Fraction(c) for w, c in zip(rb.words, vec) if c}
    for rb in (adem_nullspace(3), adem_nullspace(4))
    for vec in rb.basis
]


@st.composite
def elements(draw):
    terms = dict(draw(st.dictionaries(words(), coefficients, max_size=4)))
    if draw(st.booleans()):
        scale = draw(coefficients)
        for w, c in draw(st.sampled_from(RELATIONS)).items():
            terms[w] = terms.get(w, Fraction(0)) + scale * c
    return {w: c for w, c in terms.items() if c}


@functools.lru_cache(maxsize=None)
def _total_image(mu):
    """The product of (x_i + x_i^2)^e_i, by Polynomial arithmetic."""
    n = len(mu)
    total = Polynomial(n, {(0,) * n: 1})
    for i, e in enumerate(mu):
        x = Polynomial(n, {tuple(int(j == i) for j in range(n)): 1})
        for _ in range(e):
            total = total * (x + x * x)
    return total


def _expanded_image(k, mu):
    """Degree-k piece of the product of (x_i + x_i^2)^e_i."""
    return _total_image(tuple(mu)).graded_part(sum(mu) + k).terms


def oracle_jq(k, f):
    out = Polynomial.zero(f.arity)
    for mu, c in f.terms.items():
        out = out + c * Polynomial(f.arity, _expanded_image(k, mu))
    return out


def oracle_word(w, f):
    for k in reversed(w):
        f = oracle_jq(k, f)
    return f


def oracle_element(terms, f):
    out = Polynomial.zero(f.arity)
    for w, c in terms.items():
        out = out + c * oracle_word(w, f)
    return out


def oracle_psi_q(q, f):
    out = Polynomial.zero(f.arity)
    for k in range(max(f.degree(), 0) + 1):
        out = out + q**k * oracle_jq(k, f)
    return out


@st.composite
def polynomials(draw):
    """Up to four terms of degree at most 3, Fraction coefficients, 1 to 3 variables."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    return Polynomial(n, draw(st.dictionaries(exps, coefficients, max_size=4)))


@ORACLE
@given(st.integers(0, 6), monomials)
def test_monomial_image_is_the_graded_piece_of_x_plus_x_squared(k, mu):
    img = monomial_image(k, mu)
    assert isinstance(img, tuple)
    assert all(type(c) is int and c > 0 for _, c in img)
    assert dict(img) == _expanded_image(k, mu)


@ORACLE
@given(word_lists(), monomials)
@example([(3,), (2, 1), (1, 2), (1, 1, 1)], (2,))  # 0, 6, 4 and 24 times x^5
def test_word_images_match_the_oracle(ws, mu):
    got = word_images(ws, mu)
    assert len(got) == len(ws)
    for w, img in zip(ws, got):
        assert all(type(c) is int for c in img.values())
        assert img == oracle_word(w, Polynomial(len(mu), {mu: 1})).terms


@ORACLE
@given(elements(), monomials)
@example({(3,): 3, (2, 1): -6, (1, 2): 3, (1, 1, 1): 1}, (2,))
@example({(3,): 3, (2, 1): -6, (1, 2): 3, (1, 1, 1): 1}, (1, 1))
@example({(2,): Fraction(1, 3), (1, 1): Fraction(-1, 6)}, (2, 0, 1))
def test_element_image_matches_the_oracle(terms, mu):
    got = element_image(terms, mu)
    assert all(c != 0 for c in got.values())
    assert got == oracle_element(terms, Polynomial(len(mu), {mu: 1})).terms


@settings(derandomize=True, max_examples=60, deadline=None)
@given(elements(), polynomials(), coefficients)
@example({(2, 1): 1, (1, 2): -1}, Polynomial(2, {(1, 1): Fraction(1, 3), (2, 0): -1}), 2)
def test_polynomial_actions_match_the_oracle(terms, f, q):
    for w in terms:
        assert apply_word(w, f) == oracle_word(w, f)
    assert eval_element(OpElement(terms), f) == oracle_element(terms, f)
    # {(): 1, (1,): q, (2,): q^2, ...} mixes degrees and holds the empty word;
    # at q = 1 it is the total operation, and at q = 0 (last) the identity
    for p in (1, q, 0):
        psi = {(k,) if k else (): Fraction(p) ** k for k in range(f.degree() + 1)}
        assert apply_element(psi, f) == oracle_psi_q(p, f)
    assert apply_element(psi, f) == f


def test_relation_images_cancel_completely_on_one_variable():
    for terms in RELATIONS:
        for m in range(0, 8):
            assert element_image(terms, (m,)) == {}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(word_lists(), elements(), monomials)
def test_mutating_results_does_not_leak_into_later_calls(ws, terms, mu):
    first = word_images(ws, mu)
    for img in first:
        img.clear()
        img[(99,) * len(mu)] = 7
    assert word_images(ws, mu) == [oracle_word(w, Polynomial(len(mu), {mu: 1})).terms for w in ws]
    before = element_image(terms, mu)
    element_image(terms, mu)[(99,) * len(mu)] = 7
    assert element_image(terms, mu) == before

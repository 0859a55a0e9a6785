import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jqforge import action
from jqforge.poly import Polynomial, parse_poly
from jqforge.scalar2 import v2


def rand_poly(rng, arity, deg, nterms=3):
    terms = {}
    for _ in range(nterms):
        exps = [0] * arity
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(arity)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 3, 5]))
    return Polynomial(arity, terms)


def test_single_variable_binomial_rule():
    # the degree-k piece scales a pure power by a binomial coefficient
    for d in range(0, 8):
        f = parse_poly(f"x1^{d}", 1) if d else Polynomial(1, {(0,): 1})
        for k in range(0, 8):
            img = action.apply_jq(k, f)
            expected = Polynomial(1, {(d + k,): math.comb(d, k)})
            assert img == expected


def test_monomial_image_matches_brute_force_in_order():
    # every vector of absorbed units j <= exps with |j| = k, in lexicographic order of j
    rng = random.Random(11)
    for _ in range(300):
        exps = tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 4)))
        k = rng.randint(0, 14)
        expected = tuple(
            (tuple(e + j for e, j in zip(exps, js)), math.prod(map(math.comb, exps, js)))
            for js in itertools.product(*(range(e + 1) for e in exps))
            if sum(js) == k
        )
        assert action.monomial_image(k, exps) == expected


def test_apply_jq_known_values():
    assert action.apply_jq(1, parse_poly("x1^3", 1)) == parse_poly("3*x1^4", 1)
    assert action.apply_jq(2, parse_poly("x1^2", 1)) == parse_poly("x1^4", 1)
    assert action.apply_jq(3, parse_poly("x1^2", 1)) == Polynomial.zero(1)
    # scalars are killed by every positive piece
    assert action.apply_jq(1, Polynomial(2, {(0, 0): 5})) == Polynomial.zero(2)


def psi_q(q, f):
    """f under the element {(): 1, (1,): q, (2,): q^2, ...}; pieces past deg f vanish."""
    q = Fraction(q)
    return action.apply_element({(k,) if k else (): q**k for k in range(f.degree() + 1)}, f)


def test_total_on_variable_and_homomorphism():
    x = parse_poly("x1", 1)
    assert psi_q(1, x) == parse_poly("x1 + x1^2", 1)
    rng = random.Random(5)
    for _ in range(15):
        f = rand_poly(rng, 2, 4)
        g = rand_poly(rng, 2, 4)
        assert psi_q(1, f * g) == psi_q(1, f) * psi_q(1, g)
        assert psi_q(1, f + g) == psi_q(1, f) + psi_q(1, g)


def test_cartan_formula_sweep():
    rng = random.Random(17)
    for trial in range(500):
        k = rng.randint(0, 6)
        arity = rng.randint(1, 3)
        f = rand_poly(rng, arity, 4, nterms=2)
        g = rand_poly(rng, arity, 4, nterms=2)
        lhs = action.apply_jq(k, f * g)
        rhs = Polynomial.zero(arity)
        for i in range(k + 1):
            rhs = rhs + action.apply_jq(i, f) * action.apply_jq(k - i, g)
        assert lhs == rhs, f"Cartan failed at trial {trial}, k={k}"


@st.composite
def polynomial_pairs(draw):
    arity = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, 3), min_size=arity, max_size=arity).map(tuple)
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    f, g = (Polynomial(arity, draw(st.dictionaries(exps, coeff, max_size=3))) for _ in range(2))
    return f, g


@settings(derandomize=True, max_examples=80, deadline=None)
@given(polynomial_pairs(), st.integers(0, 7))
def test_cartan_rule_on_products(pair, k):
    # Jq^k(f*g) = sum over i + j = k of Jq^i(f) * Jq^j(g)
    f, g = pair
    rhs = Polynomial.zero(f.arity)
    for i in range(k + 1):
        rhs = rhs + action.apply_jq(i, f) * action.apply_jq(k - i, g)
    assert action.apply_jq(k, f * g) == rhs


def test_linearity_and_graded_parts():
    rng = random.Random(23)
    for _ in range(20):
        f = rand_poly(rng, 2, 5)
        g = rand_poly(rng, 2, 5)
        c = Fraction(rng.randint(-5, 5), rng.choice([1, 3]))
        k = rng.randint(1, 4)
        assert action.apply_jq(k, f + g) == action.apply_jq(k, f) + action.apply_jq(k, g)
        assert action.apply_jq(k, c * f) == c * action.apply_jq(k, f)
        # termwise on graded parts: the pieces of the image come from the pieces of f
        img = action.apply_jq(k, f)
        rebuilt = Polynomial.zero(2)
        for d in range(f.degree() + 1):
            rebuilt = rebuilt + action.apply_jq(k, f.graded_part(d))
        assert img == rebuilt


def test_variable_preservation():
    f = parse_poly("x1*x2", 2)
    for k in range(1, 4):
        img = action.apply_jq(k, f)
        for exps in img.terms:
            assert all(e > 0 for e in exps)


def test_norm_contraction():
    # the Gauss norm, the largest 2-adic absolute value of a coefficient
    def gauss_norm(f):
        return max((Fraction(2) ** -v2(c) for c in f.terms.values()), default=Fraction(0))

    rng = random.Random(29)
    for _ in range(40):
        f = rand_poly(rng, 2, 5)
        k = rng.randint(0, 5)
        assert gauss_norm(action.apply_jq(k, f)) <= gauss_norm(f)


def test_apply_word_rightmost_first():
    # word (2, 1) means the degree-1 piece acts first
    f = parse_poly("x1^2", 1)
    assert action.apply_word((2, 1), f) == parse_poly("6*x1^5", 1)
    assert action.apply_word((1, 2), f) == parse_poly("4*x1^5", 1)
    assert action.apply_word((), f) == f
    assert action.apply_word((1, 1, 1), f) == parse_poly("24*x1^5", 1)
    assert action.apply_word((3,), f) == Polynomial.zero(1)


def test_psi_q_specialization_and_multiplicativity():
    f = parse_poly("x1^2", 1)
    assert psi_q(0, f) == f
    q = Fraction(2)
    assert psi_q(q, f) == parse_poly("x1^2 + 4*x1^3 + 4*x1^4", 1)
    rng = random.Random(31)
    for _ in range(20):
        a = rand_poly(rng, 2, 3)
        b = rand_poly(rng, 2, 3)
        q = Fraction(rng.randint(-3, 3), rng.choice([1, 3]))
        assert psi_q(q, a * b) == psi_q(q, a) * psi_q(q, b)

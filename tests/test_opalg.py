import functools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jqforge import action, linalg, opalg, relations
from jqforge.errors import DomainError, NotInZ2Error, ParseError
from jqforge.opalg import OpElement
from jqforge.poly import Polynomial, monomials_upto, parse_poly

from f2_oracle import classical_mul, sq_on_f2


def test_word_product():
    a = OpElement.jq(1)
    b = OpElement.jq(2)
    assert (a * b).terms == {(1, 2): Fraction(1)}
    assert ((a + b) * a).terms == {(1, 1): Fraction(1), (2, 1): Fraction(1)}
    assert (OpElement.jq(0) * b) == b
    assert (b * OpElement.one()) == b


def test_polynomials_and_elements_never_meet():
    f, e = parse_poly("x1", 1), OpElement.jq(1)
    assert f != e and e != f
    assert Polynomial.zero(1) != OpElement.zero()
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(f, e)
        with pytest.raises(TypeError):
            op(e, f)


@pytest.mark.parametrize(
    "value", [parse_poly("x1", 1), OpElement.jq(1)], ids=lambda v: type(v).__name__
)
def test_values_are_immutable(value):
    name = type(value).__name__
    for attr in ("terms", "arity", "other"):
        with pytest.raises(AttributeError, match=rf"^{name} is immutable$"):
            setattr(value, attr, {})


def test_degree_additivity():
    rng = random.Random(2)
    for _ in range(20):
        w1 = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
        prod = OpElement.from_word(w1) * OpElement.from_word(w2)
        assert prod.degree() == sum(w1) + sum(w2)


def test_parse_format():
    e = opalg.parse_op("3*Jq3 - 6*Jq2.Jq1 + 3*Jq1.Jq2 + Jq1.Jq1.Jq1")
    assert e.terms == {
        (3,): Fraction(3),
        (2, 1): Fraction(-6),
        (1, 2): Fraction(3),
        (1, 1, 1): Fraction(1),
    }
    assert opalg.format_op(e) == "3*Jq3 - 6*Jq2.Jq1 + 3*Jq1.Jq2 + Jq1.Jq1.Jq1"
    assert opalg.parse_op("Jq0").terms == {(): Fraction(1)}
    assert opalg.parse_op("-1/3*Jq1.Jq1.Jq1").terms == {(1, 1, 1): Fraction(-1, 3)}
    assert opalg.parse_op("0") == OpElement.zero()
    assert opalg.format_op(OpElement.zero()) == "0"
    with pytest.raises(ParseError):
        opalg.parse_op("Jq1 Jq2")
    with pytest.raises(ParseError):
        opalg.parse_op("Sq1")


def test_format_parse_roundtrip_random():
    rng = random.Random(9)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
            terms[w] = Fraction(rng.randint(-8, 8), rng.choice([1, 1, 3]))
        e = OpElement(terms)
        assert opalg.parse_op(opalg.format_op(e)) == e


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.dictionaries(
        st.lists(st.integers(1, 12), max_size=4).map(tuple),
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
        max_size=5,
    )
)
def test_format_op_then_parse_op_is_the_identity(terms):
    e = OpElement(terms)
    text = opalg.format_op(e)
    assert opalg.parse_op(text) == e
    assert opalg.format_op(opalg.parse_op(text)) == text


def test_chi_small_values():
    assert opalg.chi(0) == OpElement.one()
    assert opalg.chi(1) == OpElement({(1,): -1})
    assert opalg.chi(2) == OpElement({(1, 1): 1, (2,): -1})
    assert opalg.chi(3) == OpElement({(3,): -1, (1, 2): 1, (2, 1): 1, (1, 1, 1): -1})


def test_chi_methods_agree():
    for k in range(0, 11):
        rec = opalg.chi(k, "recursion")
        par = opalg.chi(k, "partitions")
        assert rec == par, f"conjugation methods disagree at k={k}"
        if k >= 1:
            assert len(par.terms) == 2 ** (k - 1)


def test_antipode_axiom_formal():
    # sum of Jq^i * chi(Jq^j) over i+j=k cancels word by word
    for k in range(1, 9):
        acc = OpElement.zero()
        for i in range(0, k + 1):
            acc = acc + OpElement.jq(i) * opalg.chi(k - i)
        assert acc == OpElement.zero()
        assert opalg.equal_by_evaluation(acc, OpElement.zero(), n_vars=2, deg_bound=6)


def test_admissible_form():
    assert opalg.admissible_form((1, 1)) == frozenset()
    assert opalg.admissible_form((2, 2)) == frozenset({(3, 1)})
    assert opalg.admissible_form((1, 2)) == frozenset({(3,)})
    assert opalg.admissible_form((2, 1)) == frozenset({(2, 1)})
    assert opalg.admissible_form(()) == frozenset({()})
    assert opalg.admissible_form((0, 2, 0)) == frozenset({(2,)})


@functools.lru_cache(maxsize=None)
def _adem_by_binomials(word):
    """The Adem rewriting with the parity of each C(b - j - 1, a - 2j) computed."""
    word = tuple(k for k in word if k)
    for pos in range(len(word) - 1):
        a, b = word[pos], word[pos + 1]
        if a < 2 * b:
            out = frozenset()
            for j in range(a // 2 + 1):
                if math.comb(b - j - 1, a - 2 * j) % 2:
                    replacement = (a + b - j,) + ((j,) if j else ())
                    out ^= _adem_by_binomials(word[:pos] + replacement + word[pos + 2:])
            return out
    return frozenset({word})


def test_admissible_form_reads_binomial_parity_by_lucas():
    words = [w for d in range(11) for w in opalg.compositions(d)]
    assert len(words) == 1024
    for w in words:
        assert opalg.admissible_form(w) == _adem_by_binomials(w), w


def test_phi_reduce():
    assert opalg.phi_reduce(OpElement({(1, 1): 1})) == frozenset()
    assert opalg.phi_reduce(OpElement({(2, 2): 1})) == frozenset({(3, 1)})
    assert opalg.phi_reduce(OpElement({(5,): 2})) == frozenset()
    assert opalg.phi_reduce(OpElement({(3,): Fraction(5, 3)})) == frozenset({(3,)})
    with pytest.raises(NotInZ2Error):
        opalg.phi_reduce(OpElement({(1,): Fraction(1, 2)}))


def test_phi_multiplicative():
    rng = random.Random(41)
    for _ in range(30):
        w1 = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        w2 = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        a = OpElement({w1: rng.choice([1, 3, 5])})
        b = OpElement({w2: rng.choice([1, 2, 7])})
        lhs = opalg.phi_reduce(a * b)
        rhs = classical_mul(opalg.phi_reduce(a), opalg.phi_reduce(b))
        assert lhs == rhs


def test_phi_commutes_with_classical_action():
    # reduction of the dyadic action equals the classical action on reductions
    rng = random.Random(43)
    for trial in range(200):
        k = rng.randint(0, 4)
        arity = rng.randint(1, 2)
        terms = {}
        for _ in range(3):
            exps = [0] * arity
            for _ in range(rng.randint(0, 5)):
                exps[rng.randrange(arity)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.choice([1, 3, 5]))
        f = Polynomial(arity, terms)
        img = action.apply_jq(k, f)
        lhs = frozenset(e for e, c in img.terms.items() if c.numerator % 2 == 1)
        fbar = frozenset(e for e, c in f.terms.items() if c.numerator % 2 == 1)
        rhs = sq_on_f2(k, fbar, arity)
        assert lhs == rhs, f"trial {trial}: k={k}"


def test_eval_element_relation():
    a3 = opalg.parse_op("3*Jq3 - 6*Jq2.Jq1 + 3*Jq1.Jq2 + Jq1.Jq1.Jq1")
    assert opalg.eval_element(a3, parse_poly("x1^2", 1)) == Polynomial.zero(1)
    chi2 = opalg.chi(2)
    assert opalg.eval_element(chi2, parse_poly("x1", 1)) == parse_poly("2*x1^3", 1)
    f = parse_poly("x1^2 + 3*x1", 1)
    assert opalg.eval_element(OpElement.one(), f) == f


def test_equal_by_evaluation():
    assert not opalg.equal_by_evaluation(OpElement.jq(2), OpElement({(1, 1): 1}))
    e = opalg.parse_op("2*Jq2.Jq1 - Jq1.Jq2 - 1/3*Jq1.Jq1.Jq1")
    assert opalg.equal_by_evaluation(OpElement.jq(3), e, n_vars=3, deg_bound=10)
    assert opalg.equal_by_evaluation(e, e)


def test_nilpotency_degree():
    assert opalg.nilpotency_degree(1, 8) == 2
    assert opalg.nilpotency_degree(2, 8) == 4
    assert opalg.nilpotency_degree(2, 3) is None
    with pytest.raises(DomainError):
        opalg.nilpotency_degree(0, 4)


def test_compositions():
    assert set(opalg.compositions(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}
    assert list(opalg.compositions(0)) == [()]
    # one length comes in descending lexicographic order; no composition has a length out of range
    assert list(opalg.compositions(4, length=2)) == [(3, 1), (2, 2), (1, 3)]
    assert list(opalg.compositions(3, length=-1)) == list(opalg.compositions(3, length=4)) == []
    for d in range(1, 9):
        assert len(list(opalg.compositions(d))) == 2 ** (d - 1)


def test_compositions_come_in_word_order():
    # the one place the canonical order is decided: no caller sorts a word set
    for d in range(13):
        words = list(opalg.compositions(d))
        assert words == sorted(words, key=opalg.word_key)
        for r in range(1, d + 1):
            assert list(opalg.compositions(d, length=r)) == [w for w in words if len(w) == r]
            assert sum(len(w) == r for w in words) == math.comb(d - 1, r - 1)


PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@PROPERTY
@given(st.integers(0, 10))
def test_chi_by_recursion_equals_chi_by_partitions(k):
    rec, par = opalg.chi(k, "recursion"), opalg.chi(k, "partitions")
    assert rec == par
    # and so the convolution identity sum_i Jq^i chi(Jq^(k-i)) = 0 holds for k >= 1
    if k:
        total = sum((OpElement.jq(i) * opalg.chi(k - i, "partitions") for i in range(k + 1)), OpElement.zero())
        assert not total.terms


# short words over few letters, so that products of different pairs of
# words coincide and their coefficients add before the reduction
z2_elements = st.dictionaries(
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    st.sampled_from([1, -1, 2, 3, 4, Fraction(1, 3), Fraction(-5, 3), Fraction(2, 5)]),
    min_size=1,
    max_size=4,
).map(OpElement)


@PROPERTY
@given(z2_elements, z2_elements)
def test_phi_reduce_is_multiplicative_on_sums(a, b):
    lhs = opalg.phi_reduce(a * b)
    assert lhs == classical_mul(opalg.phi_reduce(a), opalg.phi_reduce(b))


@functools.lru_cache(maxsize=None)
def _near_relations(d, n_vars):
    """Basis of the degree-d word combinations that kill every monomial of degree < d.

    Most of them are relations in n_vars variables; the rest are caught
    only on monomials of degree d itself.
    """
    words = list(opalg.compositions(d))
    cols = relations.grid_vectors([{w: 1} for w in words], monomials_upto(n_vars, d - 1))
    return words, linalg.nullspace(cols)


@st.composite
def sweep_elements(draw):
    """Elements in 1 to 3 variables: combinations of near-relations in one or two degrees, plus noise."""
    n_vars = draw(st.sampled_from([1, 2, 3]))
    top = draw(st.integers(2, 5 if n_vars == 3 else 6))
    coeff = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 3)])
    terms = {}
    for d in (top, top - 1) if draw(st.booleans()) else (top,):
        words, basis = _near_relations(d, n_vars)
        for vec in basis:
            c = draw(coeff)
            for w, x in zip(words, vec):
                terms[w] = terms.get(w, 0) + c * x
        if draw(st.integers(0, 3)) == 0:
            w = draw(st.sampled_from(words))
            terms[w] = terms.get(w, 0) + draw(coeff)
    return OpElement({w: Fraction(c) for w, c in terms.items() if c}), n_vars


@PROPERTY
@given(sweep_elements())
def test_sweeping_to_the_degree_agrees_with_the_wide_sweep(case):
    e, n_vars = case
    d = e.degree()
    zero = OpElement.zero()
    exact = opalg.equal_by_evaluation(e, zero, n_vars=n_vars)
    assert exact == opalg.equal_by_evaluation(e, zero, n_vars=n_vars, deg_bound=d)
    assert exact == opalg.equal_by_evaluation(e, zero, n_vars=n_vars, deg_bound=2 * d + 4)


def _kills_the_whole_grid(e, n_vars, deg_bound):
    """Reference sweep: e kills every monomial of the grid, nonincreasing or not."""
    return not any(
        opalg.eval_element(e, Polynomial(n_vars, {mu: 1})) for mu in monomials_upto(n_vars, deg_bound)
    )


def test_sorted_sweep_gives_the_verdicts_of_the_full_sweep():
    rng = random.Random(5)
    r3 = opalg.parse_op("3*Jq3 - 6*Jq2.Jq1 + 3*Jq1.Jq2 + Jq1.Jq1.Jq1")

    def noise(d):
        # the words in the order compositions yielded when this seed was chosen
        words = sorted(opalg.compositions(d), key=lambda w: (len(w), w))
        picked = rng.sample(words, min(3, len(words)))
        return OpElement({w: Fraction(rng.randint(-3, 3), rng.choice([1, 3])) for w in picked})

    cases = []
    for _ in range(60):
        d = rng.randint(1, 5)
        if d >= 3 and rng.random() < 0.5:  # a multiple of the relation, sometimes perturbed
            other = noise(d - 3) if d > 3 else OpElement.one()
            e = other * r3 if rng.random() < 0.5 else r3 * other
            cases.append(e + noise(d) if rng.random() < 0.3 else e)
        else:
            cases.append(noise(d))
    q12, binary = relations.q12_decompose, relations.binary_decompose
    for k, decompose in ((4, q12), (5, binary), (6, q12), (6, binary)):
        out = decompose(k)
        perturbed = out + Fraction(1, 3) * OpElement.from_word(next(iter(out.terms)))
        assert not opalg.equal_by_evaluation(OpElement.jq(k), perturbed)
        cases += [OpElement.jq(k) - out, OpElement.jq(k) - perturbed]
    zero, verdicts = OpElement.zero(), []
    for e in cases:
        d = e.degree()
        for n_vars, deg_bound in ((1, d), (2, d), (3, d), (2, d + 3)):
            verdict = _kills_the_whole_grid(e, n_vars, deg_bound)
            assert opalg.equal_by_evaluation(e, zero, n_vars=n_vars, deg_bound=deg_bound) == verdict
            verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def test_a_degree_six_element_is_separated_only_at_its_degree():
    # kills every monomial of degree <= 5 in 3 variables, so one less than the degree is too few
    e = opalg.parse_op("4*Jq5.Jq1 + 2*Jq2.Jq4 - 3*Jq1.Jq5 - Jq1.Jq1.Jq4")
    zero = OpElement.zero()
    assert opalg.equal_by_evaluation(e, zero, n_vars=3, deg_bound=5)
    assert not opalg.equal_by_evaluation(e, zero, n_vars=3, deg_bound=6)
    assert not opalg.equal_by_evaluation(e, zero, n_vars=3)

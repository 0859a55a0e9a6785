import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jqforge import hit
from jqforge.action import apply_jq, apply_word, word_images
from jqforge.errors import DomainError
from jqforge.hit import (
    HitCertificate,
    classical_hit,
    cohit_order,
    hit_decide_graded,
    min_hit_valuation,
    module_adem_filtration,
)
from jqforge.linalg import Z2Lattice
from jqforge.opalg import compositions
from jqforge.poly import Polynomial, format_poly, monomials_of_degree, monomials_upto, parse_poly
from jqforge.scalar2 import INF, v2

from f2_oracle import sq_on_f2


F = Fraction


def power(d, a=1):
    return Polynomial(1, {(d,): F(a)})


def test_min_hit_valuation_small_degrees():
    assert min_hit_valuation(1) == INF
    assert min_hit_valuation(2) == 0
    assert min_hit_valuation(3) == 1
    assert min_hit_valuation(4) == 0
    assert min_hit_valuation(5) == 0
    assert min_hit_valuation(7) == 1
    assert min_hit_valuation(15) == 1


def test_min_hit_valuation_is_the_least_binomial_valuation():
    # Kummer's digit sums against the binomials Jq^i(x^(d-i)) = C(d-i, i) x^d
    for d in range(1, 600):
        want = min((v2(math.comb(d - i, i)) for i in range(1, d) if math.comb(d - i, i)), default=INF)
        assert min_hit_valuation(d) == want, d


def test_min_hit_valuation_positive_exactly_below_powers_of_two():
    for d in range(2, 64):
        expected = (d + 1) & d == 0
        assert (min_hit_valuation(d) > 0) == expected, d


def test_square_is_hit_with_unit_cofactor():
    ok, cert = hit_decide_graded(power(2))
    assert ok
    assert cert.pairs == [(1, power(1))]


def test_cube_needs_one_factor_of_two():
    ok, cert = hit_decide_graded(power(3))
    assert not ok and cert is None
    ok, cert = hit_decide_graded(power(3, 2))
    assert ok
    assert cert.pairs == [(1, power(2))]


def test_degree_seven_certificates():
    ok, cert = hit_decide_graded(power(7, 4))
    assert ok and cert.pairs == [(3, power(4))]
    assert not hit_decide_graded(power(7))[0]
    assert not hit_decide_graded(power(7, 3))[0]
    ok, cert = hit_decide_graded(power(7, 2))
    assert ok
    assert cert.pairs == [(1, Polynomial(1, {(6,): F(1, 3)}))]


def test_power_of_two_family_certificates():
    # 2^n in degree 2^(n+1)-1 lands on the cofactor x1^(2^n)
    for n in range(1, 6):
        d = 2 ** (n + 1) - 1
        ok, cert = hit_decide_graded(power(d, 2 ** n))
        assert ok
        assert cert.pairs == [(2 ** n - 1, power(2 ** n))]


def test_decision_matches_valuation_oracle():
    for d in range(2, 21):
        m = min_hit_valuation(d)
        for a in (1, 2, 3, 4, 2 ** m):
            f = power(d, a)
            ok, cert = hit_decide_graded(f)
            assert ok == (v2(F(a)) >= m), (a, d)
            if ok:
                assert cert.reconstruct(1) == f


def _ladder_by_every_binomial(a, d, cap):
    """The single-power certificate ladder with each binomial built."""
    fallback = None
    for i in range(1, (d // 2 if cap is None else min(d // 2, cap)) + 1):
        ratio = F(a) / math.comb(d - i, i)
        if ratio.denominator == 1:
            return [(i, Polynomial(1, {(d - i,): ratio}))]
        if fallback is None and ratio.denominator % 2 == 1:
            fallback = [(i, Polynomial(1, {(d - i,): ratio}))]
    return fallback


def test_ladder_builds_binomials_only_where_a_cofactor_can_be_integral(monkeypatch):
    built = []

    def counting_comb(n, k):
        built.append((n, k))
        return math.comb(n, k)

    monkeypatch.setattr(hit, "comb", counting_comb)
    for d in range(2, 90):
        for a in (1, 2, 3, 6, 8, 12, 40):
            for cap in (None, 1, 3, 10):
                built.clear()
                ok, cert = hit_decide_graded(power(d, a), precision_j=cap)
                want = _ladder_by_every_binomial(a, d, cap)
                assert (cert.pairs if ok else None) == want, (a, d, cap)
                for n, k in built:
                    assert n + k == d
                    assert v2(F(math.comb(n, k))) <= v2(F(a)), (a, d, k)
    # a high power pays for few binomials: only C(d-i, i) odd are tried at a = 1
    built.clear()
    assert hit_decide_graded(power(4000), precision_j=4000)[0]
    assert len(built) < 100


def test_certificates_reconstruct_on_composite_inputs():
    rng = random.Random(11)
    for _ in range(12):
        d = rng.randint(3, 6)
        f = Polynomial.zero(2)
        for i in (1, 2):
            terms = {}
            for mu in monomials_upto(2, d - i):
                if sum(mu) == d - i and rng.random() < 0.6:
                    terms[mu] = F(rng.randint(-3, 3))
            f = f + apply_jq(i, Polynomial(2, terms))
        if not f.terms:
            continue
        ok, cert = hit_decide_graded(f)
        assert ok
        assert cert.reconstruct(2) == f


def test_mixed_monomial_is_not_hit():
    assert not hit_decide_graded(parse_poly("x1*x2", 2))[0]
    assert not hit_decide_graded(parse_poly("2*x1*x2", 2))[0]
    ok, cert = hit_decide_graded(parse_poly("x1^2", 2))
    assert ok and cert.pairs == [(1, parse_poly("x1", 2))]


def test_degree_one_is_never_hit():
    assert not hit_decide_graded(power(1))[0]
    assert not hit_decide_graded(power(1, 8))[0]


def test_precision_cap_changes_certificate_shape():
    ok, cert = hit_decide_graded(power(4))
    assert ok and cert.pairs == [(2, power(2))]
    ok, cert = hit_decide_graded(power(4), precision_j=1)
    assert ok
    assert cert.pairs == [(1, Polynomial(1, {(3,): F(1, 3)}))]
    with pytest.raises(DomainError):
        hit_decide_graded(power(4), precision_j=0)


def test_cohit_orders():
    assert cohit_order(1) == INF
    assert cohit_order(2) == 1
    assert cohit_order(3) == 2
    assert cohit_order(4) == 1
    assert cohit_order(7) == 2
    assert cohit_order(15) == 2


def test_module_filtration_values():
    assert module_adem_filtration(power(3)) == 0
    assert module_adem_filtration(power(4)) == 2
    assert module_adem_filtration(power(8)) == 3
    # past the old level cap of 6
    assert module_adem_filtration(power(32)) == 7
    assert module_adem_filtration(power(64)) == 10


def test_filtration_positive_iff_hit():
    for f in (power(3), power(3, 2), power(4), parse_poly("x1*x2", 2), parse_poly("x1^2", 2)):
        assert (module_adem_filtration(f) >= 1) == hit_decide_graded(f)[0]


def _word_pool_filtration(f):
    """The filtration over word pools, with no level cap: the reference.

    Level j spans the images w(x^mu) of all words w of length >= j and
    degree b < d on the monomials of degree d - b.
    """
    d = f.degree()
    value = 0
    for j in range(1, d + 1):
        gens = [
            ((w, mu), col)
            for b in range(j, d)
            for mu in monomials_of_degree(f.arity, d - b)
            for w in compositions(b)
            if len(w) >= j
            for col in word_images([w], mu)
            if col
        ]
        if Z2Lattice(gens).contains(f.terms) is None:
            return value
        value = j
    return value


def _seeded_filtration_inputs(seed, count):
    """Homogeneous inputs in 1 variable to degree 10, 2 to 6 and 3 to 5.

    About two in three are sums of images of words made mostly of Jq1
    and Jq2, so that long words, and high levels, occur.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        d = rng.randint(1, (10, 6, 5)[n - 1])
        f = Polynomial.zero(n)
        if rng.random() < 0.35:
            mons = list(monomials_of_degree(n, d))
            for mu in rng.sample(mons, rng.randint(1, min(3, len(mons)))):
                f = f + Polynomial(n, {mu: F(rng.choice([1, -1, 2, 3, 4, -6, 8, F(1, 3)]))})
        else:
            for _ in range(rng.randint(1, 3)):
                b = rng.randint(1, d)
                word = []
                while sum(word) < b:
                    word.append(min(rng.choice([1, 1, 2, rng.randint(1, b)]), b - sum(word)))
                mu = rng.choice(list(monomials_of_degree(n, d - b)))
                image = apply_word(word, Polynomial(n, {mu: 1}))
                f = f + F(rng.choice([1, -1, 2, 3, F(1, 5)])) * image
        if f.terms:
            out.append(f)
    return out


def test_module_filtration_matches_the_word_pools():
    values = []
    for f in _seeded_filtration_inputs(2024, 220):
        value = module_adem_filtration(f)
        assert value == _word_pool_filtration(f), format_poly(f)
        assert value <= f.degree() - 1
        values.append(value)
    # the set reaches levels the old cap of 6 cut off
    assert max(values) > 6


def test_classical_consistency_one_variable():
    # a classically hit reduction forces 2f to be hit, checked in one variable
    rng = random.Random(23)
    for _ in range(40):
        d = rng.randint(2, 8)
        a = rng.randint(1, 12)
        f = power(d, a)
        if classical_hit(f):
            assert hit_decide_graded(power(d, 2 * a))[0], (a, d)


def test_classical_consistency_fails_with_more_variables():
    # x1^2 reduces to a classically hit class, yet doubling the full
    # polynomial leaves 4*x1*x2 stranded outside the image
    f = parse_poly("x1^2 + 2*x1*x2", 2)
    assert classical_hit(f)
    doubled = parse_poly("2*x1^2 + 4*x1*x2", 2)
    assert not hit_decide_graded(doubled)[0]


def test_input_validation():
    with pytest.raises(DomainError):
        hit_decide_graded(Polynomial.zero(1))
    with pytest.raises(DomainError):
        hit_decide_graded(parse_poly("x1 + x1^2", 1))
    with pytest.raises(DomainError):
        hit_decide_graded(Polynomial(1, {(0,): 3}))
    with pytest.raises(DomainError):
        hit_decide_graded(Polynomial(1, {(3,): F(1, 2)}))
    with pytest.raises(DomainError):
        min_hit_valuation(0)
    with pytest.raises(DomainError):
        cohit_order(0)


def test_certificate_reconstruct_type():
    cert = HitCertificate([(2, power(2, 3))])
    assert cert.reconstruct(1) == apply_jq(2, power(2, 3))
    assert cert.witness_json() == [{"k": 2, "cofactor": "3*x1^2"}]


@st.composite
def images(draw):
    """A nonzero sum of Jq^i(x^mu) with 2-adic integer coefficients, homogeneous of degree d."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(2, (9, 7, 5)[n - 1]))
    coeff = st.sampled_from([1, -1, 2, 3, -4, F(1, 3), F(-6, 5)])
    f = Polynomial.zero(n)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(1, d - 1))
        mu = draw(st.sampled_from([m for m in monomials_upto(n, d - i) if sum(m) == d - i]))
        f = f + apply_jq(i, Polynomial(n, {mu: F(draw(coeff))}))
    assume(f.terms)
    return f


@settings(derandomize=True, max_examples=60, deadline=None)
@given(images())
def test_certificates_rebuild_random_images(f):
    ok, cert = hit_decide_graded(f)
    assert ok
    assert cert.reconstruct(f.arity) == f


@st.composite
def unit_inputs(draw):
    """A homogeneous polynomial with 2-adic unit coefficients on a few monomials."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(2, (12, 7, 5)[n - 1]))
    support = draw(st.lists(st.sampled_from(list(monomials_of_degree(n, d))), min_size=1, max_size=4, unique=True))
    unit = st.sampled_from([1, -1, 3, -5, F(1, 3), F(-7, 5)])
    return Polynomial(n, {mu: F(draw(unit)) for mu in support})


@st.composite
def z2_inputs(draw):
    """Unit inputs, images sum_i Jq^i(g_i), and the doubles of both."""
    f = draw(st.one_of(unit_inputs(), images()))
    return f * 2 if draw(st.booleans()) else f


@settings(derandomize=True, max_examples=80, deadline=None)
@given(z2_inputs())
def test_refusal_mod_2_never_changes_a_verdict(f):
    d = f.degree()
    gens = hit._columns(f.arity, d, d)
    assert hit_decide_graded(f)[0] == (Z2Lattice(gens).contains(f.terms) is not None)
    refused = module_adem_filtration(f)
    with mock.patch.object(hit, "_in_f2_span", lambda gens, f: True):
        assert module_adem_filtration(f) == refused


def test_refused_mod_2():
    # x1^3*x2^2*x3^2 is not hit mod 2, so no lattice is built; 2*x1^2 + 4*x1*x2
    # is 0 mod 2, passes, and is then found not hit 2-adically
    for text, n, refused in (("x1^3*x2^2*x3^2", 3, True), ("2*x1^2 + 4*x1*x2", 2, False)):
        f = parse_poly(text, n)
        with mock.patch.object(hit.linalg, "Z2Lattice", wraps=Z2Lattice) as lattice:
            assert not hit_decide_graded(f)[0]
        assert lattice.called != refused


def _f2_rank(rows):
    """Rank of F_2 rows given as sets of monomials, by elimination on least keys."""
    basis = {}
    for row in rows:
        row = set(row)
        while row and min(row) in basis:
            row ^= basis[min(row)]
        if row:
            basis[min(row)] = row
    return len(basis)


def test_classical_hit_matches_the_squares_on_f2():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 3)
        d = rng.randint(2, (10, 7, 5)[n - 1])
        monomials = list(monomials_of_degree(n, d))
        support = rng.sample(monomials, min(len(monomials), rng.randint(1, 4)))
        f = Polynomial(n, {mu: F(rng.choice((1, 2, 3, -1, -4, 5))) for mu in support})
        squares = [
            sq_on_f2(i, frozenset([mu]), n) for i in range(1, d) for mu in monomials_of_degree(n, d - i)
        ]
        odd = {mu for mu, c in f.terms.items() if c.numerator % 2}
        assert classical_hit(f) == (_f2_rank(squares + [odd]) == _f2_rank(squares)), f

import random
from fractions import Fraction

import pytest

from jqforge import linalg, norms
from jqforge.action import element_image
from jqforge.errors import DomainError
from jqforge.norms import (
    ValuationReport,
    adem_valuation,
    degree_norm,
    ker_adic_valuation,
    ker_phi_membership,
    operator_norm_estimate,
)
from jqforge.opalg import OpElement, compositions, equal_by_evaluation, parse_op, word_key
from jqforge.poly import monomials_upto
from jqforge.relations import adem_nullspace, grid_vectors
from jqforge.scalar2 import INF, scale_to_ints, v2_int

F = Fraction


def test_adem_valuation_generators():
    # the first generator has valuation 1 by definition (norm 1/2); from
    # degree 2 on the valuation is k - 1
    assert adem_valuation(OpElement.jq(1)).value == 1
    assert adem_valuation(OpElement.jq(1)).norm == F(1, 2)
    for k in range(2, 7):
        rep = adem_valuation(OpElement.jq(k))
        assert rep.value == k - 1
        assert rep.norm == F(1, 2 ** (k - 1))
        assert rep.method == "ademWordLength"
        # solved on the one-variable grid of degree k, which `adem --k k` also reports as k
        assert rep.bounds == {"mDegree": k}


def test_adem_valuation_word_21():
    rep = adem_valuation(OpElement.from_word((2, 1)))
    assert rep.value == 2


def test_adem_valuation_witness_reverifies():
    rep = adem_valuation(OpElement.jq(3))
    assert rep.witness is not None
    assert all(len(w) >= 2 for w in rep.witness.terms)
    assert equal_by_evaluation(rep.witness, OpElement.jq(3), n_vars=1)


def test_adem_valuation_not_multiplicative_at_22():
    # the word (2,2) equals (2,1,1) - 1/4*(1,1,1,1) on every power of one
    # variable, so its filtration order is 3, not 1 + 1; length-based
    # multiplicativity genuinely fails here
    rep = adem_valuation(OpElement.from_word((2, 2)))
    assert rep.value == 3
    expansion = OpElement({(2, 1, 1): F(1), (1, 1, 1, 1): F(-1, 4)})
    assert equal_by_evaluation(expansion, OpElement.from_word((2, 2)), n_vars=1)


def test_adem_valuation_additive_on_short_words():
    for w in ((1, 1), (2, 1), (1, 2)):
        rep = adem_valuation(OpElement.from_word(w))
        assert rep.value == sum(adem_valuation(OpElement.jq(k)).value for k in w)


def test_adem_valuation_scalars_and_errors():
    assert adem_valuation(OpElement.one()).value == 0
    assert adem_valuation(OpElement.zero()).value == INF
    with pytest.raises(DomainError):
        adem_valuation(OpElement.jq(1) + OpElement.jq(2))


# relations of degree 3 and 4: each acts as zero on every polynomial
RELATIONS = [
    "3*Jq3 - 6*Jq2.Jq1 + 3*Jq1.Jq2 + Jq1.Jq1.Jq1",
    "4*Jq4 - 3*Jq3.Jq1 - 2*Jq2.Jq2 + 2*Jq1.Jq3 - 2*Jq2.Jq1.Jq1 + 3*Jq1.Jq2.Jq1",
]


@pytest.mark.parametrize("text", RELATIONS)
def test_adem_valuation_of_a_relation_is_infinite(text):
    # zero on every polynomial, so zero on one variable: no long-word witness
    e = parse_op(text)
    assert equal_by_evaluation(e, OpElement.zero())
    rep = adem_valuation(e)
    assert rep.value is INF and rep.norm == 0 and rep.witness is None
    assert rep.bounds == {"mDegree": e.degree()}


def _long_words(d):
    """The degree-d words of length d - 1 and d, in word order."""
    return sorted((w for r in (d - 1, d) for w in compositions(d, length=r)), key=word_key)


def test_the_long_words_span_every_one_variable_image():
    # the gauge's theorem: d words, and the space of one-variable images has dimension d
    for d in range(1, 31):
        words = _long_words(d)
        assert len(words) == d
        ech = linalg.SparseEchelon()
        for w, vec in zip(words, grid_vectors([{w: 1} for w in words], monomials_upto(1, d))):
            ech.insert(vec, w)
        assert ech.rank == d


def test_adem_valuation_builds_vectors_for_the_long_words_only(monkeypatch):
    built = []

    def spy(elements, mus):
        built.append([next(iter(e)) for e in elements[:-1]])
        return grid_vectors(elements, mus)

    monkeypatch.setattr(norms, "grid_vectors", spy)
    for d in (1, 2, 5, 9):
        adem_valuation(OpElement.jq(d))
        assert built[-1] == _long_words(d)


def test_adem_valuation_of_jq40():
    # a pool of all 2^39 words of degree 40 would never finish
    e = OpElement.jq(40)
    rep = adem_valuation(e)
    assert rep.value == 39 and rep.bounds == {"mDegree": 40}
    assert all(len(w) >= 39 for w in rep.witness.terms)
    assert equal_by_evaluation(rep.witness, e, n_vars=1)


def _full_pool_valuation(e):
    """The gauge by a search over all 2^(d-1) words of degree d, j descending."""
    if not e.terms:
        return ValuationReport(INF, "ademWordLength", {"mDegree": 0})
    d = e.degree()
    if d == 0:
        return ValuationReport(0, "ademWordLength", {"mDegree": 0})
    words = sorted(compositions(d), key=word_key)
    *vecs, target = grid_vectors([{w: 1} for w in words] + [e.terms], monomials_upto(1, d))
    if not target:
        return ValuationReport(INF, "ademWordLength", {"mDegree": d})
    for j in range(d, 0, -1):
        ech = linalg.SparseEchelon()
        for w, vec in zip(words, vecs):
            if len(w) >= j:
                ech.insert(vec, w)
        combo = ech.membership(target)
        if combo is not None:
            witness = OpElement({w: c for w, c in combo.items() if c != 0})
            return ValuationReport(j, "ademWordLength", {"mDegree": d}, witness)
    raise AssertionError("no level spans the element")


def _seed_order(d):
    """The words of degree d in the order compositions yielded when the seeds below were chosen."""
    return sorted(compositions(d), key=lambda w: (len(w), w))


def _seeded_homogeneous_element(rng):
    """Degree 1-8: random words, or c*Jq1^d plus a one-variable relation."""
    d = rng.randint(1, 8)
    words = _seed_order(d)
    coeff = F(rng.randint(-9, 9) or 1, rng.choice([1, 2, 3, 4, 5, 8, 9, 15]))
    if len(words) > d and rng.random() < 0.3:
        relation = adem_nullspace(d, rng.sample(words, d + 1))
        terms = dict(zip(relation.words, map(F, relation.basis[0])))
        if rng.random() < 0.7:
            terms[(1,) * d] = terms.get((1,) * d, 0) + coeff
        return OpElement(terms)
    return OpElement({w: coeff * rng.randint(1, 5) for w in rng.sample(words, min(len(words), 4))})


def test_adem_valuation_matches_the_full_pool_search():
    rng = random.Random(26)
    elements = [_seeded_homogeneous_element(rng) for _ in range(200)]
    values = []
    for e in elements:
        rep = adem_valuation(e)
        assert rep.json_obj() == _full_pool_valuation(e).json_obj()
        values.append("inf" if rep.value == INF else e.degree() - rep.value)
    # every case the theorem allows: inf, d (0 below d) and d - 1
    assert values.count("inf") > 5 and values.count(0) > 20 and values.count(1) > 100


def test_ker_phi_membership():
    assert ker_phi_membership(OpElement.from_word((1, 1)))
    assert not ker_phi_membership(OpElement.jq(1))
    assert ker_phi_membership(parse_op("Jq1.Jq2 - Jq3"))
    for k in range(1, 5):
        assert not ker_phi_membership(OpElement.one() - OpElement.jq(k))


def test_ker_phi_on_degree_three_relation():
    a3 = parse_op("3*Jq3 - 6*Jq2.Jq1 + 3*Jq1.Jq2 + Jq1.Jq1.Jq1")
    assert ker_phi_membership(a3)


def test_ker_adic_scalars():
    assert ker_adic_valuation(OpElement({(): F(2)})).value == 1
    assert ker_adic_valuation(OpElement({(): F(4)})).value == 2
    assert ker_adic_valuation(OpElement({(): F(3)})).value == 0


def test_ker_adic_squares_of_jq1():
    assert ker_adic_valuation(OpElement.from_word((1, 1))).value == 1
    assert ker_adic_valuation(OpElement.from_word((1, 1, 1, 1))).value == 2


def test_ker_adic_valuation_is_one_value_per_operator():
    # Jq1^4, spelled alone and plus the degree-4 relation
    for text in ("Jq1.Jq1.Jq1.Jq1", f"Jq1.Jq1.Jq1.Jq1 + {RELATIONS[1]}"):
        assert ker_adic_valuation(parse_op(text)).value == 2


@pytest.mark.parametrize("text", RELATIONS)
def test_ker_adic_valuation_of_a_relation_is_infinite(text):
    e = parse_op(text)
    assert equal_by_evaluation(e, OpElement.zero())
    rep = ker_adic_valuation(e, max_j=5)
    assert rep.value is INF and rep.norm == 0 and rep.bounds == {"maxJ": 5, "degreeBound": 8}


def test_ker_adic_valuation_reads_the_operator_not_its_words():
    # as written, no Z_2 combination of products of two kernel generators;
    # as an operator, equal to one
    e = parse_op("6/5*Jq3.Jq2.Jq1 - Jq3.Jq1.Jq2 - 1/5*Jq1.Jq2.Jq1.Jq2")
    assert ker_adic_valuation(e).value == 2


def test_ker_adic_outside_kernel():
    assert ker_adic_valuation(OpElement.jq(2)).value == 0


def test_ker_adic_coefficient_guard():
    with pytest.raises(DomainError):
        ker_adic_valuation(OpElement({(1,): F(1, 2)}))


def test_ker_adic_refuses_a_negative_level_cap():
    # a scalar and a generator alike: no gauge reports a negative valuation
    for e in (OpElement({(): F(4)}), OpElement.jq(2)):
        with pytest.raises(DomainError):
            ker_adic_valuation(e, max_j=-1)


def test_norm_estimate_generators():
    for k in range(1, 9):
        rep = operator_norm_estimate(OpElement.jq(k), n_vars=2)
        assert rep.value == 0
        assert rep.norm == 1
        assert rep.witness is not None


def test_norm_estimate_jq1_squared():
    rep = operator_norm_estimate(OpElement.from_word((1, 1)), n_vars=2)
    assert rep.value == 1
    assert rep.norm == F(1, 2)


def test_norm_estimate_jq1_fourth():
    rep = operator_norm_estimate(OpElement.from_word((1, 1, 1, 1)), n_vars=2)
    assert rep.value == 3
    assert rep.norm == F(1, 8)


def test_norm_estimate_identity_minus_generator():
    rep = operator_norm_estimate(OpElement.one() - OpElement.jq(2), n_vars=2)
    assert rep.value == 0
    # the constant monomial already has a unit image, and prints as one
    assert rep.witness == (0, 0) and rep.json_obj()["witness"] == "1"


def _scan_to(e, n_vars, deg_bound):
    """(value, witness) of a monomial scan to a fixed degree bound, stopping at a unit."""
    terms, _ = scale_to_ints(e.terms)
    best, witness = INF, None
    for mu in monomials_upto(n_vars, deg_bound):
        for c in element_image(terms, mu).values():
            if v2_int(c) < best:
                best, witness = v2_int(c), mu
        if best == 0:
            break
    return best, witness


def _seeded_element(rng):
    """A random element of degree 0-5, 2-adic coefficients, sometimes mixed."""
    d = rng.randint(0, 5)
    degrees = [d] + [rng.randint(0, d) for _ in range(rng.randint(0, 2))]
    terms = {}
    for k in degrees:
        for w in rng.sample(_seed_order(k), min(2, 2 ** max(k - 1, 0))):
            odd = F(rng.choice([1, -1, 3, -5]), rng.choice([1, 3, 5]))
            terms[w] = terms.get(w, 0) + odd * 2 ** rng.randint(0, 3)
    if rng.random() < 0.3:
        terms[()] = terms.get((), 0) + 2 ** rng.randint(0, 4)
    return OpElement(terms)


def test_norm_sweep_to_the_degree_matches_longer_scans():
    rng = random.Random(24)
    elements = [_seeded_element(rng) for _ in range(320)]
    values = set()
    for e in elements:
        n_vars, d = rng.randint(1, 4), max(e.degree(), 0)
        rep = operator_norm_estimate(e, n_vars=n_vars)
        assert rep.bounds == {"nVars": n_vars, "degBound": d}
        assert (rep.value, rep.witness) == _scan_to(e, n_vars, d + rng.randint(0, 4))
        values.add(rep.value)
    assert {0, 1, 2, 3, 4} <= values
    assert sum(not e.is_homogeneous() for e in elements) > 50
    assert sum(() in e.terms and e.degree() > 0 for e in elements) > 50


def test_norm_sweep_stays_within_the_degree_and_stops_at_the_floor(monkeypatch):
    seen = []

    def spy(terms, mu):
        image = element_image(terms, mu)
        seen.append((mu, min(map(v2_int, image.values()), default=INF)))
        return image

    monkeypatch.setattr(norms, "element_image", spy)
    for text in ("Jq1.Jq1.Jq1.Jq1", "Jq2.Jq1 + 2*Jq1", "1 + 4*Jq3", "4*Jq2.Jq2 + 8*Jq4"):
        seen.clear()
        d = parse_op(text).degree()
        operator_norm_estimate(parse_op(text), n_vars=3)
        assert seen and max(sum(mu) for mu, _ in seen) <= d
    # every coefficient even: no image below valuation 1, so the first image there ends it
    seen.clear()
    rep = operator_norm_estimate(parse_op("2*Jq8.Jq8"))
    assert rep.value == 1 and rep.witness == seen[-1][0] and seen[-1][1] == 1
    assert all(v > 1 for _, v in seen[:-1]) and len(seen) < 100


def test_norm_of_generators_above_the_former_scan_bound():
    # a scan to degree 16 saw no image of these and reported the zero operator
    jq17 = operator_norm_estimate(OpElement.jq(17))
    assert (jq17.value, jq17.norm, jq17.bounds["degBound"]) == (0, 1, 17)
    assert operator_norm_estimate(parse_op("2*Jq18")).value == 1


def test_norm_estimate_bounded_by_ker_adic():
    elems = [
        OpElement.from_word((1, 1)),
        OpElement.from_word((1, 1, 1, 1)),
        parse_op("Jq1.Jq2 - Jq3"),
        parse_op("2*Jq2"),
        parse_op("Jq1.Jq1 + 2*Jq2"),
    ]
    for e in elems:
        est = operator_norm_estimate(e, n_vars=2)
        ker = ker_adic_valuation(e)
        assert est.norm <= F(1, 2 ** ker.value)


def test_ker_phi_matches_small_norm():
    elems = [
        OpElement.jq(1),
        OpElement.jq(2),
        OpElement.from_word((1, 1)),
        parse_op("Jq1.Jq2 - Jq3"),
        parse_op("3*Jq3 - 6*Jq2.Jq1 + 3*Jq1.Jq2 + Jq1.Jq1.Jq1"),
        parse_op("Jq2.Jq2 + Jq3.Jq1"),
    ]
    for e in elems:
        est = operator_norm_estimate(e, n_vars=3)
        assert ker_phi_membership(e) == (est.norm <= F(1, 2))


def test_degree_norm_values():
    assert degree_norm(OpElement.jq(3), F(1, 2)) == F(1, 8)
    assert degree_norm(OpElement.one(), F(1, 2)) == 1
    with pytest.raises(DomainError):
        degree_norm(OpElement.jq(1) + OpElement.jq(2), F(1, 2))
    with pytest.raises(DomainError):
        degree_norm(OpElement.jq(1), F(2))


def test_degree_norm_sandwich_observed():
    # at rho = 1/2 the filtration norm of Jq^3 is 1/4 while rho^3 = 1/8:
    # the lower bound holds, the upper does not; both sides are reported,
    # neither is asserted as a law
    adem = adem_valuation(OpElement.jq(3)).norm
    rho_norm = degree_norm(OpElement.jq(3), F(1, 2))
    assert F(1, 2) * rho_norm <= adem
    assert not adem <= rho_norm


def test_report_json_round_trip():
    rep = adem_valuation(OpElement.jq(3))
    data = rep.json_obj()
    assert data["value"] == 2
    assert data["norm"] == "1/4"
    assert data["method"] == "ademWordLength"
    rep0 = ValuationReport(INF, "monomialSup", {})
    assert rep0.json_obj()["value"] == "inf"


def test_three_gauges_agree_on_zero():
    zero = OpElement.zero()
    for max_j in (3, 6):
        ker = ker_adic_valuation(zero, max_j=max_j)
        assert ker.value is INF and ker.norm == 0
        assert ker.json_obj()["value"] == "inf"
    reports = [adem_valuation(zero), ker_adic_valuation(zero), operator_norm_estimate(zero)]
    assert all(rep.value is INF and rep.norm == 0 for rep in reports)

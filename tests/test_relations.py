import math
import random
import sys
from pathlib import Path

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from jqforge import linalg, relations, witt
from jqforge.action import element_image
from jqforge.errors import DomainError, IndecomposableError, NotFoundError
from jqforge.opalg import OpElement, compositions, equal_by_evaluation, eval_element, format_op, parse_op
from jqforge.poly import Polynomial, monomials_upto, parse_poly
from jqforge.relations import (
    RelationBasis,
    adem_nullspace,
    binary_decompose,
    in_relation_span,
    ore_solve,
    q12_decompose,
    rank_estimate,
    t_partition_words,
)


F = Fraction


def test_two_partition_words():
    assert t_partition_words(3, 2) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    assert t_partition_words(4, 2) == [(4,), (3, 1), (2, 2), (1, 3)]
    with pytest.raises(DomainError):
        t_partition_words(2, 2)


def test_binary_partition_words():
    # binary_decompose's word set: the compositions into powers of two
    words = [w for w in compositions(7) if all(p & (p - 1) == 0 for p in w)]
    assert (4, 2, 1) in words and (3, 4) not in words
    assert set(binary_decompose(7).terms) <= set(words)


def test_degree_three_nullspace_exact():
    rb = adem_nullspace(3)
    assert rb.words == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    assert rb.basis == [[3, -6, 3, 1]]


def test_degree_four_nullspace():
    rb = adem_nullspace(4)
    assert len(rb.basis) == 1
    assert in_relation_span(rb, [2, -3, 1, 1])


def test_degree_five_nullspace_sign():
    # words (5),(4,1),(3,2),(2,3),(1,4): the true relation carries +2 on
    # the last slot, checked directly on x^4 where the -2 variant misses
    # by -32
    rb = adem_nullspace(5)
    assert len(rb.basis) == 1
    assert in_relation_span(rb, [5, -5, 0, 1, 2])
    assert not in_relation_span(rb, [5, -5, 0, 1, -2])


def test_degree_six_nullspace():
    rb = adem_nullspace(6)
    assert in_relation_span(rb, [9, -7, 0, 0, 1, 3])


def test_degree_seven_two_dimensional():
    # words (7),(6,1),(5,2),(4,3),(3,4),(2,5),(1,6); both members frozen
    # from hand evaluation at m = 4 and m = 5
    rb = adem_nullspace(7)
    assert len(rb.basis) == 2
    a7_10 = [F(-14, 3), F(29, 3), F(-28, 3), F(28, 15), F(4, 3), F(1), F(0)]
    a7_01 = [F(14, 3), F(-14, 3), F(7, 3), F(-7, 15), F(-1, 3), F(0), F(1)]
    assert in_relation_span(rb, a7_10)
    assert in_relation_span(rb, a7_01)
    # spot value on x^4: only three words survive, 84 - 196/3 - 56/3 = 0
    e = OpElement({w: c for w, c in zip(rb.words, a7_01) if c != 0})
    assert eval_element(e, parse_poly("x1^4", 1)) == Polynomial.zero(1)


def test_relation_elements_annihilate_one_variable():
    # nullspace members kill every single-variable power, well past the
    # symbolic degree used to find them
    rng = random.Random(7)
    for k in (3, 4, 5, 6):
        rb = adem_nullspace(k)
        for vec in rb.basis:
            e = OpElement({w: F(c) for w, c in zip(rb.words, vec) if c})
            for _ in range(8):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    d = rng.randint(1, 9)
                    terms[(d,)] = F(rng.randint(-5, 5), rng.choice((1, 1, 3)))
                f = Polynomial(1, terms)
                assert eval_element(e, f) == Polynomial.zero(1)


def test_relation_span_needs_one_entry_per_word():
    rb = adem_nullspace(3)
    with pytest.raises(DomainError):
        in_relation_span(rb, [3, -6, 3, 1, 5])
    with pytest.raises(DomainError):
        in_relation_span(rb, [3, -6, 3])


def test_degree_four_relation_is_single_variable_only():
    # the canonical degree-4 relation is a fact about powers of one
    # variable: on x1^2*x2 the residual survives with -4*x1^5*x2^2
    e = OpElement({(4,): F(2), (3, 1): F(-3), (2, 2): F(1), (1, 3): F(1)})
    assert eval_element(e, parse_poly("x1^5", 1)) == Polynomial.zero(1)
    out = eval_element(e, parse_poly("x1^2*x2", 2))
    assert out.terms.get((5, 2)) == F(-4)


def test_three_factor_degree_four_relation():
    words = [(4,), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1)]
    rb = adem_nullspace(4, words=words)
    assert len(rb.basis) == 1
    assert in_relation_span(rb, [24, -12, 60, -60, 5])
    assert not in_relation_span(rb, [24, -12, 12, -12, 1])


def test_q12_decompose_degree_three():
    out = q12_decompose(3)
    expected = parse_op("2*Jq2.Jq1 - Jq1.Jq2 - 1/3*Jq1.Jq1.Jq1")
    assert out == expected


def test_q12_decompose_degree_four():
    out = q12_decompose(4)
    assert out.terms == {
        (2, 1, 1): F(2),
        (1, 2, 1): F(-5, 2),
        (1, 1, 2): F(1, 2),
        (2, 2): F(1, 2),
        (1, 1, 1, 1): F(-1, 12),
    }
    assert equal_by_evaluation(OpElement.jq(4), out, n_vars=3, deg_bound=8)


def test_q12_decompose_degree_five():
    out = q12_decompose(5)
    assert all(p in (1, 2) for w in out.terms for p in w)
    assert equal_by_evaluation(OpElement.jq(5), out, n_vars=3, deg_bound=8)


def test_q12_small_degrees_pass_through():
    assert q12_decompose(1) == OpElement.jq(1)
    assert q12_decompose(2) == OpElement.jq(2)


def test_binary_decompose_degree_three():
    out = binary_decompose(3)
    assert out.terms == {(2, 1): F(2), (1, 2): F(-1), (1, 1, 1): F(-1, 3)}


def test_binary_decompose_power_of_two_rejected():
    with pytest.raises(IndecomposableError):
        binary_decompose(4)
    with pytest.raises(IndecomposableError):
        binary_decompose(8)


def test_binary_decompose_degrees_five_six_seven():
    for k in (5, 6, 7):
        out = binary_decompose(k)
        assert all(p in (1, 2, 4) for w in out.terms for p in w)
        for c in out.terms.values():
            assert c.denominator % 2 == 1
        assert equal_by_evaluation(OpElement.jq(k), out, n_vars=2, deg_bound=2 * k + 2)


def test_ore_solve_basic():
    theta, eta = OpElement.jq(1), OpElement.jq(2)
    x, y = ore_solve(theta, eta)
    assert x.terms and y.terms
    assert equal_by_evaluation(theta * x, eta * y, n_vars=3, deg_bound=10)


def test_ore_solve_trivial_identity():
    theta = OpElement.jq(2)
    x, y = ore_solve(theta, theta, set_x=[()], set_y=[()])
    assert x == OpElement.one()
    assert y == OpElement.one()


def test_ore_candidate_pair_rejected_by_evaluation():
    # the shipped candidate x for theta = Jq1, eta = Jq2 disagrees on x^2:
    # theta*x gives 10*x^6 where eta*y gives 6*x^6
    theta, eta = OpElement.jq(1), OpElement.jq(2)
    x = parse_op("Jq3 + Jq2.Jq1 - 1/6*Jq1.Jq1.Jq1")
    y = OpElement.jq(2)
    assert not equal_by_evaluation(theta * x, eta * y, n_vars=1, deg_bound=8)
    f = parse_poly("x1^2", 1)
    lhs = eval_element(theta * x, f)
    rhs = eval_element(eta * y, f)
    assert lhs.terms.get((6,)) == 10
    assert rhs.terms.get((6,)) == 6


def test_ore_solve_errors():
    with pytest.raises(DomainError):
        ore_solve(OpElement.zero(), OpElement.jq(1))
    with pytest.raises(DomainError):
        ore_solve(OpElement.jq(1) + OpElement.jq(2), OpElement.jq(1))
    with pytest.raises(NotFoundError):
        ore_solve(OpElement.jq(1), OpElement.jq(2), set_x=[(3,)], set_y=[(2,)])
    # Jq3 minus its 1,2-word decomposition is zero in the algebra, though not as words
    zero = OpElement.jq(3) - q12_decompose(3)
    assert zero.terms
    with pytest.raises(DomainError):
        ore_solve(zero, OpElement.jq(1))


def test_rank_estimate_small_degrees():
    assert rank_estimate(1) == 1
    assert rank_estimate(2) == 2
    assert rank_estimate(3) == 3


def test_rank_estimate_degree_four():
    # 8 words in degree 4; the relation count grows with degree
    r = rank_estimate(4)
    assert 1 <= r <= len(list(compositions(4)))
    assert r < len(list(compositions(4)))


def test_relation_basis_json_deterministic():
    rb = adem_nullspace(3)
    data = rb.json_obj()
    assert data == rb.json_obj()
    assert data["degree"] == 3
    assert data["words"] == ["Jq3", "Jq2.Jq1", "Jq1.Jq2", "Jq1.Jq1.Jq1"]
    assert data["basis"] == [["3", "-6", "3", "1"]]


def test_verification_sweeps_reach_the_degree_of_what_they_compare(monkeypatch):
    # every check the solvers make must be a proof in its variables: a sweep
    # to the degree of the difference, which the default deg_bound=None
    # gives; an explicit bound must reach the larger side's degree, which
    # bounds the difference's even when the difference is zero
    calls = []

    def spy(a, b, n_vars=None, deg_bound=None):
        calls.append((max(a.degree(), b.degree()), (a - b).degree(), deg_bound))
        return equal_by_evaluation(a, b, n_vars=n_vars, deg_bound=deg_bound)

    monkeypatch.setattr(relations, "equal_by_evaluation", spy)
    for k in (3, 4, 5, 6):
        q12_decompose(k)
    for k in (3, 5, 6, 7):
        binary_decompose(k)
    ore_solve(OpElement.jq(1), OpElement.jq(2))
    # a degree-12 word set puts the product in degree 13, past the old cap of 12
    jq1 = OpElement.jq(1)
    x, y = ore_solve(jq1, jq1, set_x=[(12,)], set_y=[(12,)])
    assert x == y == OpElement.jq(12)
    assert len(calls) >= 10 and any(top == 13 for top, _, _ in calls)
    for top, diff, bound in calls:
        assert bound is None or bound >= top >= diff



# -- answers in coordinates, re-checked in the variables they report ---


@pytest.mark.parametrize("k", [9, 10])
@pytest.mark.parametrize("decompose", [q12_decompose, binary_decompose])
def test_decompositions_past_degree_eight_hold_in_three_variables(decompose, k):
    # two variables no longer tell the degree-9 words apart; the answers
    # the two-variable grid gave here failed on x1*x2*x3
    out = decompose(k)
    assert relations.check_vars(k) == 3
    assert equal_by_evaluation(OpElement.jq(k), out, n_vars=3, deg_bound=k)
    if decompose is binary_decompose:
        assert all(c.denominator % 2 for c in out.terms.values())


def test_decompose_reports_the_variables_of_its_check(capsys):
    from jqforge import cli

    for k, n in ((7, 2), (8, 2), (9, 3)):
        assert cli.main(["decompose", "--k", str(k), "--mode", "q12", "--json"]) == 0
        assert f'"bounds":{{"nVars":{n}}}' in capsys.readouterr().out


def test_ore_finds_the_degree_nine_multiple_of_jq2_and_jq3():
    # accepted by the benchmark's own verifier, which shares no code with the package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import check
    finally:
        sys.path.pop(0)
    x, y = ore_solve(OpElement.jq(2), OpElement.jq(3))
    assert x.degree() == 9 and y.degree() == 8
    lhs = check.op_mul(check.parse_op("Jq2"), check.parse_op(format_op(x)))
    for w, c in check.op_mul(check.parse_op("Jq3"), check.parse_op(format_op(y))).items():
        check.add_term(lhs, w, -c)
    monomials = check.monomials(2, 8) + [mu for mu in check.monomials(3, 4) if sum(mu)]
    assert lhs and check.vanishes_on(lhs, monomials)


# check_vars rests on these ranks: the words of degree d have rank p(d),
# the dimension in the algebra, in check_vars(d) variables through degree 12


def test_two_variables_tell_words_apart_through_degree_eight():
    for d in range(1, 9):
        assert relations.check_vars(d) == 2
        assert rank_estimate(d, n_vars=2) == witt.dimension(d)
    assert rank_estimate(9, n_vars=2) == 29 == witt.dimension(9) - 1


def test_three_variables_tell_words_apart_through_degree_twelve():
    for d in range(9, 13):
        assert relations.check_vars(d) == 3
        assert rank_estimate(d, n_vars=3) == witt.dimension(d)


# -- the symbolic single-variable system, kept as the grids' oracle ----


def _poly_m_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _binom_m_poly(shift: int, k: int):
    """C(m + shift, k) as a polynomial in m, coefficient list by power."""
    acc = [Fraction(1)]
    for i in range(k):
        acc = _poly_m_mul(acc, [Fraction(shift - i), Fraction(1)])
    return [c / math.factorial(k) for c in acc]


def evaluate_on_power(w) -> list:
    """Coefficient of the image of x^m under w, as a polynomial in m (list by power)."""
    acc = [Fraction(1)]
    shift = 0
    for k in reversed(tuple(w)):
        acc = _poly_m_mul(acc, _binom_m_poly(shift, k))
        shift += k
    return acc


def _pair_monomials(deg: int):
    """Two-variable test monomials separating words of total degree deg."""
    out = []
    for total in range(2, deg + 3):
        for b in range(1, total // 2 + 1):
            out.append((total - b, b))
    return out


def _symbolic_columns(elements):
    """Each element's coefficients of m^i, keyed ("m", i)."""
    cols = []
    for e in elements:
        col = {}
        for w, c in e.items():
            for i, x in enumerate(evaluate_on_power(w)):
                col[("m", i)] = col.get(("m", i), 0) + c * x
        cols.append({key: v for key, v in col.items() if v != 0})
    return cols


def _symbolic_and_pair_columns(elements, d):
    """The symbolic rows plus the two-variable pair rows the solvers once used."""
    cols = _symbolic_columns(elements)
    for mi, mu in enumerate(_pair_monomials(d)):
        for col, e in zip(cols, elements):
            for exps, v in element_image(e, mu).items():
                col[("e", mi, exps)] = v
    return cols


@st.composite
def one_degree_elements(draw):
    """A degree d <= 9 and elements of degree d, some of them combinations of others."""
    d = draw(st.integers(1, 9))
    word = st.sampled_from(list(compositions(d)))
    coeff = st.sampled_from([1, -1, 2, 3, F(1, 2), F(-2, 3)])
    elements = draw(st.lists(st.dictionaries(word, coeff, min_size=1, max_size=3), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        a, b, lam = draw(st.sampled_from(elements)), draw(st.sampled_from(elements)), draw(coeff)
        combo = dict(a)
        for w, c in b.items():
            combo[w] = combo.get(w, 0) + lam * c
        elements.append({w: c for w, c in combo.items() if c})
    return d, draw(st.permutations(elements))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(one_degree_elements())
def test_grid_rows_have_the_nullspace_of_the_symbolic_rows(case):
    d, elements = case
    one = relations.grid_vectors(elements, monomials_upto(1, d))
    assert linalg.nullspace(one) == linalg.nullspace(_symbolic_columns(elements))
    two = relations.grid_vectors(elements, monomials_upto(2, d))
    assert linalg.nullspace(two) == linalg.nullspace(_symbolic_and_pair_columns(elements, d))


def test_adem_nullspace_matches_the_symbolic_oracle():
    for k in range(3, 15):
        words = t_partition_words(k, 2)
        rb = adem_nullspace(k)
        oracle = linalg.nullspace(_symbolic_columns([{w: 1} for w in words]))
        assert rb.basis == [linalg.primitive_integer(v) for v in oracle]
        assert rb.bounds["mDegree"] == max(len(evaluate_on_power(w)) for w in words) - 1

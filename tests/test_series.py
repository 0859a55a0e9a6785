import math
import random
from fractions import Fraction

import pytest

from jqforge.action import apply_jq
from jqforge.errors import DomainError, NoSolutionError, ParseError
from jqforge.opalg import OpElement, eval_element, parse_op
from jqforge.poly import Polynomial, parse_poly
from jqforge.scalar2 import binom
from jqforge.series import (
    Sode,
    TruncatedSeries,
    coefficient_equations,
    geometric_inverse,
    series_apply_op,
    sode_residual,
    sode_solve,
    tate_check,
)


F = Fraction
xi = parse_poly("x1", 1)


def centered_power(n, c, order=None):
    return TruncatedSeries(1, n if order is None else order, {(n,): F(1)}, c)


def test_construction_truncates_and_drops_zeros():
    s = TruncatedSeries(1, 3, {(1,): F(2), (5,): F(7), (2,): F(0)})
    assert s.terms == {(1,): F(2)}
    assert s.order == 3
    with pytest.raises(AttributeError):
        s.order = 5
    with pytest.raises(DomainError):
        TruncatedSeries(2, 4, {}, center=1)
    with pytest.raises(DomainError):
        TruncatedSeries(1, 4, {(1, 0): F(1)})
    with pytest.raises(DomainError):
        TruncatedSeries(1, 4, {(-1,): F(1)})


def test_json_round_trip():
    s = TruncatedSeries(1, 12, {(0,): F(1), (1,): F(1), (2,): F(-1, 2)}, 1)
    text = s.to_json()
    assert text == '{"center":"1","order":12,"terms":{"0":"1","1":"1","2":"-1/2"}}'
    assert TruncatedSeries.from_json(text) == s
    t = TruncatedSeries(2, 5, {(1, 2): F(3, 7)})
    assert TruncatedSeries.from_json(t.to_json()) == t
    with pytest.raises(ParseError):
        TruncatedSeries.from_json("{nope")
    with pytest.raises(ParseError):
        TruncatedSeries.from_json('{"center":null}')


def test_recenter_expansion_round_trip():
    rng = random.Random(5)
    for c in (F(1), F(2), F(1, 3)):
        for _ in range(6):
            f = Polynomial(
                1, {(d,): F(rng.randint(-5, 5)) for d in range(rng.randint(1, 7))}
            )
            s = TruncatedSeries.from_polynomial(f, 10, c)
            assert s.to_polynomial() == f


def test_apply_matches_polynomial_evaluation():
    rng = random.Random(9)
    for _ in range(8):
        f = Polynomial(1, {(d,): F(rng.randint(-4, 4)) for d in range(5)})
        e = parse_op("Jq1 + 2*Jq2.Jq1 - 1")
        out = series_apply_op(e, TruncatedSeries.from_polynomial(f, 14))
        want = eval_element(e, f)
        assert out.terms == {k: v for k, v in want.terms.items() if k[0] <= 14}


def test_apply_identity_and_graded_example():
    s = TruncatedSeries(1, 10, {(4,): F(1)})
    assert series_apply_op(OpElement.jq(0), s) == s
    assert series_apply_op(OpElement.jq(2), s).terms == {(6,): F(6)}


def test_centered_power_rule():
    # Jq^k on (x - c)^n lands on binom(n, k) x^(2k) (x - c)^(n - k)
    for c in (F(1), F(2), F(1, 3)):
        for k in range(1, 4):
            for n in range(9):
                lhs = series_apply_op(OpElement.jq(k), centered_power(n, c, n + k))
                want = Polynomial(1, {(2 * k,): F(binom(n, k))})
                step = Polynomial(1, {(1,): F(1), (0,): -c})
                for _ in range(n - k):
                    want = want * step
                if k > n:
                    want = Polynomial.zero(1)
                assert lhs.to_polynomial() == want, (c, k, n)


def test_coefficient_rows_match_closed_form():
    # the homogeneous match for Jq^1(z) = z is the three-term recursion
    # (m-1) a_(m-1) + (2 m c - 1) a_m + c^2 (m+1) a_(m+1) = 0
    eq = Sode(OpElement.jq(1) - OpElement.one(), Polynomial.zero(1))
    for c in (F(1), F(2), F(1, 3)):
        rows, rhs = coefficient_equations(eq, c, 8)
        assert all(b == 0 for b in rhs)
        for m, row in enumerate(rows):
            expected = {}
            for n, val in ((m - 1, F(m - 1)), (m, 2 * m * c - 1), (m + 1, c * c * (m + 1))):
                if 0 <= n <= 8 and val:
                    expected[n] = val
            assert {n: v for n, v in enumerate(row) if v} == expected, (c, m)


def test_fixed_point_solution_at_one():
    eq = Sode(OpElement.jq(1) - OpElement.one(), Polynomial.zero(1))
    sol = sode_solve(eq, 1, 1, 16)
    assert sol.center == 1 and sol.order == 16
    assert sol.coefficient((0,)) == 1
    assert sol.coefficient((1,)) == 1
    assert sol.coefficient((2,)) == F(-1, 2)
    for n in range(1, 15):
        lhs = (
            (n - 1) * sol.coefficient((n - 1,))
            + (2 * n - 1) * sol.coefficient((n,))
            + (n + 1) * sol.coefficient((n + 1,))
        )
        assert lhs == 0, n
    assert sode_residual(eq, sol, 15).ok


def test_no_solution_at_the_origin():
    eq = Sode(OpElement.jq(1) - OpElement.one(), Polynomial.zero(1))
    for a0 in (1, 0, F(3, 5)):
        with pytest.raises(NoSolutionError) as exc:
            sode_solve(eq, 0, a0, 8)
        assert exc.value.index == 0


def test_no_solution_names_the_first_contradicting_equation():
    # Jq2 kills 1 and x1, so at the origin equation 0 already reads 0 = 1
    eq = Sode(OpElement.jq(2), parse_poly("x1^2 + 1", 1))
    with pytest.raises(NoSolutionError) as exc:
        sode_solve(eq, 0, 1, 7)
    assert exc.value.index == 0
    rows, rhs = coefficient_equations(eq, 0, 7)
    assert not any(rows[0]) and rhs[0] == 1
    # here equation 0 reads 0 = 0 and equation 1 reads 0 = -1
    eq = Sode(OpElement.jq(2), parse_poly("x1^3 - x1", 1))
    with pytest.raises(NoSolutionError) as exc:
        sode_solve(eq, 0, 1, 7)
    assert exc.value.index == 1


def test_log_series_solves_jq1_equals_xi():
    eq = Sode(OpElement.jq(1), xi)
    sol = sode_solve(eq, 1, 0, 12)
    for n in range(1, 12):
        assert sol.coefficient((n,)) == F((-1) ** (n + 1), n), n
    true_log = TruncatedSeries(
        1, 14, {(n,): F((-1) ** (n + 1), n) for n in range(1, 15)}, 1
    )
    assert sode_residual(eq, true_log, 12).verified_through >= 12


def test_log_series_with_flipped_signs_fails():
    # alternating signs starting positive at n = 1 solve the equation;
    # the opposite sign pattern misses by -2 in the constant term
    eq = Sode(OpElement.jq(1), xi)
    flipped = TruncatedSeries(1, 14, {(n,): F((-1) ** n, n) for n in range(1, 15)}, 1)
    report = sode_residual(eq, flipped, 12)
    assert not report.ok
    assert report.failure_degree == 0
    assert report.failure_coefficient == -2


def test_exact_polynomial_candidate_verifies_through_order():
    eq = Sode(OpElement.one() - OpElement.jq(1), parse_poly("x1 - x1^2", 1))
    cand = TruncatedSeries.from_polynomial(xi, 10)
    report = sode_residual(eq, cand, 10)
    assert report.ok and report.verified_through == 10


def test_sode_validation():
    with pytest.raises(DomainError):
        Sode(OpElement.zero(), xi)
    with pytest.raises(DomainError):
        Sode(OpElement.jq(1), parse_poly("x1*x2", 2))
    with pytest.raises(DomainError):
        sode_solve(Sode(OpElement.jq(1), xi), 1, 0, 0)


def test_geometric_inverse_factorials():
    out = geometric_inverse(1, xi, 20)
    assert out.terms == {(k + 1,): F(math.factorial(k)) for k in range(20)}


def test_geometric_inverse_examples():
    assert geometric_inverse(2, xi, 8).terms == {(1,): F(1)}
    out = geometric_inverse(2, parse_poly("x1^2", 1), 8)
    assert out.terms == {(2,): F(1), (4,): F(1), (6,): F(6), (8,): F(90)}


def test_geometric_inverse_postcondition():
    for k in range(1, 5):
        for f in (xi, parse_poly("x1^2", 1), parse_poly("x1^3", 1)):
            for order in (8, 16):
                out = geometric_inverse(k, f, order)
                back = Polynomial(1, out.terms)
                diff = back - apply_jq(k, back) - f
                assert all(e[0] > order for e in diff.terms)


def test_geometric_inverse_validation():
    with pytest.raises(DomainError):
        geometric_inverse(0, xi, 8)
    with pytest.raises(DomainError):
        geometric_inverse(1, parse_poly("x1*x2", 2), 8)
    with pytest.raises(DomainError):
        geometric_inverse(1, parse_poly("x1^9", 1), 8)


def test_tate_verdicts():
    growing = TruncatedSeries(
        1, 41, {(k + 1,): F(math.factorial(k)) for k in range(41)}
    )
    assert tate_check(growing).verdict == "pass"
    powers = TruncatedSeries(1, 30, {(k,): F(2) ** k for k in range(31)})
    assert tate_check(powers).verdict == "pass"
    flat = TruncatedSeries(1, 30, {(k,): F(1) for k in range(31)})
    assert tate_check(flat).verdict == "fail"
    bounded = TruncatedSeries(1, 30, {(k,): F(2) for k in range(31)})
    assert tate_check(bounded).verdict == "inconclusive"
    poly_tail = TruncatedSeries(1, 40, {(k,): F(1) for k in range(5)})
    assert tate_check(poly_tail).verdict == "pass"
    with pytest.raises(DomainError):
        tate_check(TruncatedSeries(1, 5, {(1,): F(1)}, 1))


def test_tate_profile_contents():
    s = TruncatedSeries(2, 6, {(1, 0): F(2), (0, 1): F(1), (3, 0): F(8)})
    report = tate_check(s)
    assert report.profile == [(1, 0), (3, 3)]
    assert report.window == (4, 6)
    assert report.json_obj()["verdict"] == report.verdict


def test_claimed_range_series_misses_the_linear_term():
    # the candidate sum for (1 - Jq^2) inverse applied to xi starts at
    # degree 2, so the residual already fails on the xi coefficient
    eq = Sode(OpElement.one() - OpElement.jq(2), xi)
    terms = {(n,): F(math.factorial(n - 2), n * 2 ** (n - 2)) for n in range(2, 9)}
    cand = TruncatedSeries(1, 8, terms)
    report = sode_residual(eq, cand, 8)
    assert not report.ok
    assert report.failure_degree == 1
    assert report.failure_coefficient == -1


def test_two_variable_quadric_action():
    f = parse_poly("2*x2 - x1^2", 2)
    assert apply_jq(1, f) == parse_poly("2*x2^2 - 2*x1^3", 2)

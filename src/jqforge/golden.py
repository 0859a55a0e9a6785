"""Ledger of published worked values re-checked against the engine.

Each row recomputes one published example.  PASS: the engine reproduces
it.  DIVERGES: the engine contradicts the published form and can back a
corrected value with an exact witness; the detail names both.  FAIL
would mean the engine supports neither side and indicates a regression,
not a publication issue.

A row is (slug, expected status, check) in `CHECKS`, the one place that
says which published values the engine corrects.  A check returns
(ok, detail): ok when the engine backs the expected status, detail the
row's one-line text.  `run_ledger` alone names statuses: the expected
one when ok, FAIL otherwise or when the check raises.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .action import apply_jq, element_image
from .hit import hit_decide_graded
from .norms import adem_valuation, degree_norm, operator_norm_estimate
from .opalg import (
    OpElement,
    chi,
    equal_by_evaluation,
    eval_element,
    format_op,
    nilpotency_degree,
    parse_op,
)
from .poly import Polynomial, format_poly, parse_poly
from .relations import (
    adem_nullspace,
    binary_decompose,
    in_relation_span,
    ore_solve,
    rank_estimate,
    t_partition_words,
)
from .series import (
    Sode,
    TruncatedSeries,
    coefficient_equations,
    geometric_inverse,
    sode_residual,
    tate_check,
)

PASS = "PASS"
FAIL = "FAIL"
DIVERGES = "DIVERGES"

F = Fraction
XI = parse_poly("x1", 1)


def _first_symbolic_value(e, limit=8):
    """First (m, c), m in 1..limit, with e(x^m) = c*x^(m + deg e) nonzero, or None."""
    for m in range(1, limit + 1):
        image = element_image(e.terms, (m,))
        if image:
            (val,) = image.values()
            return m, val
    return None


def check_action_on_cube():
    ok = apply_jq(1, parse_poly("x1^3", 1)) == parse_poly("3*x1^4", 1)
    return ok, "degree-1 operation on x^3 gives 3*x^4"


def check_degree_three_expansion():
    rb = adem_nullspace(3)
    return rb.basis == [[3, -6, 3, 1]], "nullspace basis (3, -6, 3, 1) over the degree-3 words"


def check_degree_seven_nullspace_pair():
    rb = adem_nullspace(7)
    v10 = [F(-14, 3), F(29, 3), F(-28, 3), F(28, 15), F(4, 3), F(1), F(0)]
    v01 = [F(14, 3), F(-14, 3), F(7, 3), F(-7, 15), F(-1, 3), F(0), F(1)]
    ok = len(rb.basis) >= 2 and in_relation_span(rb, v10) and in_relation_span(rb, v01)
    return ok, f"both printed degree-7 vectors lie in the dimension-{len(rb.basis)} nullspace"


def check_cube_identity_orientation():
    printed = parse_op("2*Jq1.Jq2 - Jq2.Jq1 - 1/3*Jq1.Jq1.Jq1")
    reversed_ = parse_op("2*Jq2.Jq1 - Jq1.Jq2 - 1/3*Jq1.Jq1.Jq1")
    jq3 = OpElement.jq(3)
    printed_fails = not equal_by_evaluation(jq3, printed, n_vars=2, deg_bound=8)
    corrected_ok = equal_by_evaluation(jq3, reversed_, n_vars=3, deg_bound=10)
    residual = eval_element(printed - jq3, parse_poly("x1^2", 1))
    return printed_fails and corrected_ok, (
        f"printed two-generator cube identity leaves {format_poly(residual)} on x^2; "
        "the reversed factor order passes evaluation to degree 10"
    )


def _printed_expansion(k, printed, corrected, fix):
    """A printed two-factor degree-k expansion that fails on some x^m, and its correction."""
    words = t_partition_words(k, 2)
    hit_at = _first_symbolic_value(OpElement(dict(zip(words, printed))))
    if hit_at is None:
        return False, f"printed degree-{k} coefficients vanish on x^1..x^8"
    m, val = hit_at
    fixed = _first_symbolic_value(OpElement(dict(zip(words, corrected)))) is None
    return fixed, f"printed degree-{k} coefficients give {val} on x^{m}; {fix}"


def check_degree_five_sign():
    return _printed_expansion(
        5, [5, -5, 0, 1, -2], [5, -5, 0, 1, 2],
        "flipping the last sign to +2 yields the verified expansion",
    )


def check_degree_six_slots():
    return _printed_expansion(
        6, [9, -7, 0, 1, 0, 3], [9, -7, 0, 0, 1, 3],
        "moving the 1 one slot right yields the verified expansion",
    )


def check_three_factor_degree_four():
    words = [(4,), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1)]
    rb = adem_nullspace(4, words=words)
    printed_out = not in_relation_span(rb, [24, -12, 12, -12, 1])
    computed_in = in_relation_span(rb, [24, -12, 60, -60, 5])
    return printed_out and computed_in, (
        "printed three-factor degree-4 vector (24, -12, 12, -12, 1) is not a relation; "
        "the verified one is (24, -12, 60, -60, 5)"
    )


def check_binary_seven_display():
    words = [(7,), (4, 2, 1), (4, 1, 2), (1, 2, 4), (1, 4, 2), (2, 1, 4), (2, 4, 1), (4, 1, 1, 1)]
    coeffs = [15, 6, F(31, 3), F(65, 7), F(-145, 9), F(-60, 7), F(170, 21), 1]
    hit_at = _first_symbolic_value(OpElement(dict(zip(words, coeffs))))
    if hit_at is None:
        return False, "printed power-of-two decomposition of degree 7 vanishes on x^1..x^8"
    m, val = hit_at
    return True, (
        f"printed power-of-two decomposition of degree 7 gives {val} on x^{m}; "
        f"the solver's verified decomposition has {len(binary_decompose(7).terms)} words"
    )


def check_antipode_partition_formula():
    for k in range(1, 7):
        if chi(k, "recursion") != chi(k, "partitions"):
            return False, f"antipode methods disagree at degree {k}"
    count = len(chi(6, "partitions").terms)
    if count != 32:
        return False, f"degree-6 antipode has {count} words, expected 32"
    return True, "recursion and partition antipodes agree through degree 6, 2^(k-1) words"


def check_cartan_product_rule():
    rng = random.Random(7)
    for _ in range(30):
        k = rng.randint(1, 4)
        f = Polynomial(1, {(d,): F(rng.randint(-3, 3)) for d in range(3)})
        g = Polynomial(1, {(d,): F(rng.randint(-3, 3)) for d in range(3)})
        lhs = apply_jq(k, f * g)
        rhs = Polynomial.zero(1)
        for i in range(k + 1):
            rhs = rhs + apply_jq(i, f) * apply_jq(k - i, g)
        if lhs != rhs:
            return False, f"product rule fails for Jq^{k} on ({format_poly(f)})*({format_poly(g)})"
    return True, "product rule holds on 30 random one-variable pairs"


def check_nilpotency_of_squares():
    ok = nilpotency_degree(1, 8) == 2 and nilpotency_degree(2, 8) == 4
    return ok, "classical reductions satisfy Sq^1 squared = 0 and (Sq^2)^4 = 0"


def check_generator_adem_valuations():
    for k in range(1, 7):
        want = max(k - 1, 1)
        if adem_valuation(OpElement.jq(k)).value != want:
            return False, f"generator valuation at degree {k} differs from {want}"
    return True, "filtration valuation of the degree-k generator is k - 1 for 2 <= k <= 6"


def check_valuation_multiplicativity():
    val = adem_valuation(parse_op("Jq2.Jq2")).value
    identity_zero = _first_symbolic_value(
        parse_op("Jq2.Jq2 - Jq2.Jq1.Jq1 + 1/4*Jq1.Jq1.Jq1.Jq1"), limit=10
    )
    return val == 3 and identity_zero is None, (
        "claimed multiplicativity gives the word (2,2) valuation 2, but "
        "Jq2.Jq2 = Jq2.Jq1.Jq1 - 1/4*(Jq1)^4 on one variable, so its valuation is 3"
    )


def check_norm_sandwich_upper():
    jq3 = OpElement.jq(3)
    adem = adem_valuation(jq3).norm
    deg = degree_norm(jq3, F(1, 2))
    return adem > deg and 2 * adem >= deg, (
        f"upper comparison fails at the degree-3 generator: filtration norm {adem} "
        f"exceeds degree norm {deg} at rho = 1/2 (the lower comparison holds)"
    )


def check_transform_norm_of_powers():
    est = operator_norm_estimate(parse_op("Jq1.Jq1.Jq1.Jq1"), n_vars=2)
    return est.norm == F(1, 8), (
        "printed closed form gives the fourth power of the degree-1 generator "
        f"transform norm 1/4; the monomial supremum over the scan is {est.norm}"
    )


def check_degree_seven_hit_list():
    not_hit_1 = not hit_decide_graded(Polynomial(1, {(7,): F(1)}))[0]
    not_hit_3 = not hit_decide_graded(Polynomial(1, {(7,): F(3)}))[0]
    ok2, cert = hit_decide_graded(Polynomial(1, {(7,): F(2)}))
    cert_ok = ok2 and cert.pairs == [(1, Polynomial(1, {(6,): F(1, 3)}))]
    return not_hit_1 and not_hit_3 and cert_ok, (
        "published degree-7 non-hit list includes 2x^7, but 2x^7 = Jq^1((1/3)x^6) "
        "with 1/3 a dyadic unit; certificate (1, 1/3*x1^6) attached"
    )


def check_power_family_hit_certificates():
    for n in range(1, 6):
        d = 2 ** (n + 1) - 1
        ok, cert = hit_decide_graded(Polynomial(1, {(d,): F(2 ** n)}))
        if not ok or cert.pairs != [(2 ** n - 1, Polynomial(1, {(2 ** n,): F(1)}))]:
            return False, f"power-family certificate wrong at n = {n}"
    return True, "2^n x^(2^(n+1)-1) is hit via (2^n - 1, x^(2^n)) for n <= 5"


def check_recursion_extraction():
    eq = Sode(OpElement.jq(1) - OpElement.one(), Polynomial.zero(1))
    rows, _ = coefficient_equations(eq, 1, 8)
    for m, row in enumerate(rows):
        got = {n: c for n, c in enumerate(row) if c}
        want = {}
        for n, c in ((m - 1, F(m - 1)), (m, F(2 * m - 1)), (m + 1, F(m + 1))):
            if 0 <= n <= 8 and c:
                want[n] = c
        if got != want:
            return False, f"recursion row {m} differs from the printed three-term form"
    return True, "coefficient matching at center 1 reproduces the printed three-term recursion"


def check_log_series_sign():
    eq = Sode(OpElement.jq(1), XI)
    printed = TruncatedSeries(1, 14, {(n,): F((-1) ** n, n) for n in range(1, 15)}, 1)
    flipped = TruncatedSeries(1, 14, {(n,): F((-1) ** (n + 1), n) for n in range(1, 15)}, 1)
    bad = sode_residual(eq, printed, 12)
    good = sode_residual(eq, flipped, 12)
    return not bad.ok and bad.failure_degree == 0 and good.verified_through >= 12, (
        "printed inverse series for the degree-1 operation has residual -2 in the "
        "constant term; the sign-flipped series verifies through order 12"
    )


def check_geometric_factorials():
    out = geometric_inverse(1, XI, 12)
    ok = all(out.coefficient((k + 1,)) == math.factorial(k) for k in range(12))
    return ok, "geometric inverse of 1 - Jq^1 on x has coefficients k!"


def check_geometric_range_display():
    eq = Sode(OpElement.one() - OpElement.jq(2), XI)
    terms = {(n,): F(math.factorial(n - 2), n * 2 ** (n - 2)) for n in range(2, 9)}
    report = sode_residual(eq, TruncatedSeries(1, 8, terms), 8)
    fixed = geometric_inverse(2, XI, 8).terms == {(1,): F(1)}
    return not report.ok and report.failure_degree == 1 and fixed, (
        "printed range series for the degree-2 geometric inverse misses the linear "
        "term (residual fails at degree 1); the defining sum fixes x itself"
    )


def check_ore_candidate_pair():
    x_cand = parse_op("Jq3 + Jq2.Jq1 - 1/6*Jq1.Jq1.Jq1")
    sq = parse_poly("x1^2", 1)
    lhs = eval_element(OpElement.jq(1) * x_cand, sq)
    rhs = eval_element(OpElement.jq(2) * OpElement.jq(2), sq)
    try:
        x, y = ore_solve(OpElement.jq(1), OpElement.jq(2))
    except Exception:
        return False, "common-multiple solver failed on the generator pair"
    return lhs != rhs, (
        f"printed common-multiple pair gives {format_poly(lhs)} vs {format_poly(rhs)} "
        f"on x^2; solver found the verified pair x = {format_op(x)}, y = {format_op(y)}"
    )


def check_rank_small_degrees():
    ok = all(rank_estimate(d) == d for d in (1, 2, 3))
    return ok, "evaluation rank of the degree-d word space is d for d <= 3"


def check_factorial_series_membership():
    growing = TruncatedSeries(1, 41, {(k + 1,): F(math.factorial(k)) for k in range(41)})
    powers = TruncatedSeries(1, 30, {(k,): F(2) ** k for k in range(31)})
    flat = TruncatedSeries(1, 30, {(k,): F(1) for k in range(31)})
    ok = (
        tate_check(growing).verdict == "pass"
        and tate_check(powers).verdict == "pass"
        and tate_check(flat).verdict == "fail"
    )
    return ok, "factorial and 2^k series pass the completion check, the unit series fails"


def check_affinoid_quadric_action():
    ok = apply_jq(1, parse_poly("2*x2 - x1^2", 2)) == parse_poly("2*x2^2 - 2*x1^3", 2)
    return ok, "quadric relation maps exactly to its image curve"


def check_single_variable_relation_scope():
    words = t_partition_words(4, 2)
    elem = OpElement(dict(zip(words, [2, -3, 1, 1])))
    symbolic_zero = _first_symbolic_value(elem) is None
    out = eval_element(elem, parse_poly("x1^2*x2", 2))
    return symbolic_zero and out.terms.get((5, 2)) == F(-4), (
        "the degree-4 two-factor relation kills every one-variable polynomial but "
        f"leaves {format_poly(out)} on x1^2*x2: printed relations bind the "
        "single-variable action only"
    )


CHECKS = [
    ("action-on-cube", PASS, check_action_on_cube),
    ("degree-three-expansion", PASS, check_degree_three_expansion),
    ("degree-seven-nullspace-pair", PASS, check_degree_seven_nullspace_pair),
    ("cube-identity-orientation", DIVERGES, check_cube_identity_orientation),
    ("degree-five-sign", DIVERGES, check_degree_five_sign),
    ("degree-six-slots", DIVERGES, check_degree_six_slots),
    ("three-factor-degree-four", DIVERGES, check_three_factor_degree_four),
    ("binary-seven-display", DIVERGES, check_binary_seven_display),
    ("antipode-partition-formula", PASS, check_antipode_partition_formula),
    ("cartan-product-rule", PASS, check_cartan_product_rule),
    ("nilpotency-of-squares", PASS, check_nilpotency_of_squares),
    ("generator-adem-valuations", PASS, check_generator_adem_valuations),
    ("valuation-multiplicativity", DIVERGES, check_valuation_multiplicativity),
    ("norm-sandwich-upper", DIVERGES, check_norm_sandwich_upper),
    ("transform-norm-of-powers", DIVERGES, check_transform_norm_of_powers),
    ("degree-seven-hit-list", DIVERGES, check_degree_seven_hit_list),
    ("power-family-hit-certificates", PASS, check_power_family_hit_certificates),
    ("recursion-extraction", PASS, check_recursion_extraction),
    ("log-series-sign", DIVERGES, check_log_series_sign),
    ("geometric-factorials", PASS, check_geometric_factorials),
    ("geometric-range-display", DIVERGES, check_geometric_range_display),
    ("ore-candidate-pair", DIVERGES, check_ore_candidate_pair),
    ("rank-small-degrees", PASS, check_rank_small_degrees),
    ("factorial-series-membership", PASS, check_factorial_series_membership),
    ("affinoid-quadric-action", PASS, check_affinoid_quadric_action),
    ("single-variable-relation-scope", DIVERGES, check_single_variable_relation_scope),
]


def run_ledger():
    """All rows as dicts with slug, status, and a one-line detail."""
    rows = []
    for slug, expected, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:
            ok, detail = False, f"crashed: {type(exc).__name__}: {exc}"
        rows.append({"slug": slug, "status": expected if ok else FAIL, "detail": detail})
    return rows

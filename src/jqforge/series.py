"""Truncated power series over 2-adic rationals.

Covers the completion-side tooling: re-centered series, operator
application, the geometric inverse of 1 - Jq^k, a Tate-membership check
on valuation profiles, and the ODE-style solver that matches
coefficients of operator equations around a chosen center.  Every
solution is verified by an independent residual pass before being
returned, with a check that raises VerificationError and so still runs
under python -O.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from .action import apply_element, apply_jq
from .errors import DomainError, NoSolutionError, ParseError, VerificationError
from . import linalg
from .opalg import OpElement, eval_element
from .poly import Polynomial
from .scalar2 import binom, format_scalar, parse_scalar, v2


class TruncatedSeries:
    """Power series kept to a fixed truncation order.

    Uncentered series store monomial terms in any arity; a centered
    series has one variable and stores coefficients of (x - center)^n.
    Terms are cleaned as a Polynomial's are (nonnegative exponents, zeros
    dropped) and those beyond the order are dropped.
    """

    __slots__ = ("arity", "order", "center", "terms")

    def __init__(self, arity: int, order: int, terms=None, center=None):
        if arity < 1:
            raise DomainError("arity must be positive")
        if order < 0:
            raise DomainError("order must be nonnegative")
        if center is not None:
            center = Fraction(center)
            if arity != 1:
                raise DomainError("centered series require one variable")
        clean = {e: c for e, c in Polynomial(arity, terms).terms.items() if sum(e) <= order}
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def from_polynomial(cls, f: Polynomial, order: int, center=None):
        if center is None:
            return cls(f.arity, order, f.terms)
        if f.arity != 1:
            raise DomainError("centered series require one variable")
        return cls(1, order, _shift(f.terms, Fraction(center)), center)

    def to_polynomial(self) -> Polynomial:
        """Exact polynomial expansion of the stored terms."""
        if self.center is None:
            return Polynomial(self.arity, self.terms)
        return Polynomial(1, _shift(self.terms, -self.center))

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.order == other.order
            and self.center == other.center
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        at = "" if self.center is None else f" @ {self.center}"
        return f"TruncatedSeries(order={self.order}{at}, {len(self.terms)} terms)"

    def json_obj(self):
        obj = {
            "center": None if self.center is None else format_scalar(self.center),
            "order": self.order,
            "terms": {
                ",".join(map(str, e)): format_scalar(c)
                for e, c in sorted(self.terms.items())
            },
        }
        if self.arity != 1:
            obj["arity"] = self.arity
        return obj

    def to_json(self) -> str:
        return json.dumps(self.json_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad series JSON: {exc}") from None
        try:
            raw = obj["terms"]
            order = obj["order"]
        except (KeyError, TypeError):
            raise ParseError("series JSON needs 'order' and 'terms'") from None
        if not isinstance(raw, dict):
            raise ParseError("series 'terms' must be an object")
        if not _is_count(order):
            raise ParseError(f"series 'order' must be a nonnegative integer, not {order!r}")
        center = obj.get("center")
        if center is not None:
            if not isinstance(center, str):
                raise ParseError(f"series 'center' must be a string or null, not {center!r}")
            center = parse_scalar(center)
        arity = obj.get("arity")
        if arity is not None and not (_is_count(arity) and arity > 0):
            raise ParseError(f"series 'arity' must be a positive integer, not {arity!r}")
        terms = {}
        for key, val in raw.items():
            parts = key.split(",")
            if not all(p.isascii() and p.isdigit() for p in parts):
                raise ParseError(f"bad series exponent key {key!r}")
            if not isinstance(val, str):
                raise ParseError(f"series coefficient of {key!r} must be a string, not {val!r}")
            exps = tuple(map(int, parts))
            if arity is None:
                arity = len(exps)
            elif len(exps) != arity:
                raise ParseError(f"series exponent key {key!r} does not match arity {arity}")
            terms[exps] = parse_scalar(val)
        return cls(arity or 1, order, terms, center)


def _is_count(value):
    """True for a nonnegative int read from JSON (bool excluded)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _shift(terms, c: Fraction):
    """Coefficients of p(x + c) from those {(m,): a} of p(x); zero sums are kept.

    Shifting by c expands p in powers of (x - c), and shifting by -c undoes it.
    """
    out = {}
    for (m,), a in terms.items():
        for n in range(m + 1):
            out[(n,)] = out.get((n,), Fraction(0)) + a * binom(m, n) * c ** (m - n)
    return out


def series_apply_op(e: OpElement, s: TruncatedSeries) -> TruncatedSeries:
    """Apply an operator element to a series, keeping the input order.

    Centered series are expanded exactly, acted on, and re-centered; the
    top deg(e) coefficients of a centered image are then provisional,
    which is why residual checks stop short by the operator degree.
    """
    img = eval_element(e, s.to_polynomial()).terms
    if s.center is not None:
        img = _shift(img, s.center)
    return TruncatedSeries(s.arity, s.order, img, s.center)


# -- Tate membership ---------------------------------------------------


class TateReport(namedtuple("TateReport", "verdict profile window")):
    __slots__ = ()

    def json_obj(self):
        return {
            "verdict": self.verdict,
            "window": list(self.window),
            "profile": [list(p) for p in self.profile],
        }


def tate_check(s: TruncatedSeries) -> TateReport:
    """Truncation-relative convergence verdict from the valuation profile.

    The profile lists, per total degree with a nonzero term, the least
    coefficient valuation.  Over the last third of the degree range the
    verdict is pass when valuations never drop and strictly gain overall,
    fail when there is no gain and units keep appearing, inconclusive
    otherwise.  An empty window means the tail is identically zero, which
    a completion certainly contains.
    """
    if s.center is not None:
        raise DomainError("membership check expects an uncentered series")
    by_degree = {}
    for e, c in s.terms.items():
        d = sum(e)
        v = v2(c)
        if d not in by_degree or v < by_degree[d]:
            by_degree[d] = v
    profile = sorted(by_degree.items())
    lo = s.order - s.order // 3
    window = (lo, s.order)
    wvals = [v for d, v in profile if d >= lo]
    if not wvals:
        verdict = "pass"
    elif all(b >= a for a, b in zip(wvals, wvals[1:])) and wvals[-1] > wvals[0]:
        verdict = "pass"
    elif wvals[-1] <= wvals[0] and sum(1 for v in wvals if v == 0) >= 2:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    return TateReport(verdict, profile, window)


def geometric_inverse(k: int, f: Polynomial, order: int) -> TruncatedSeries:
    """Sum of all iterates of Jq^k on f, the inverse of 1 - Jq^k, through degree order.

    The h with h = f + Jq^k(h).  Jq^k raises degree by exactly k, so the
    degree-d part reads h_d = f_d + Jq^k(h_(d-k)) and fixes h one degree
    at a time.  Before returning, h - Jq^k(h) - f, built through the
    kernel in one pass, must have no term of degree <= order; otherwise
    VerificationError.
    """
    if k < 1:
        raise DomainError("operator index must be positive")
    if f.arity != 1:
        raise DomainError("geometric inverse expects one variable")
    if f.terms and f.degree() > order:
        raise DomainError("truncation order below the input degree")
    parts = {}
    for d in range(order + 1):
        acc = f.graded_part(d)
        prev = parts.get(d - k)
        if prev:
            acc = acc + apply_jq(k, prev)
        if acc:
            parts[d] = acc
    h = Polynomial(1, {e: c for part in parts.values() for e, c in part.terms.items()})
    residual = h - apply_element({(k,): 1}, h) - f
    if any(sum(e) <= order for e in residual.terms):
        raise VerificationError(f"geometric inverse of Jq{k} fails its residual check")
    return TruncatedSeries(1, order, h.terms)


# -- operator equations ------------------------------------------------


class Sode:
    """Operator equation theta(zeta) = rhs over one variable, theta a nonzero element."""

    __slots__ = ("element", "rhs")

    def __init__(self, operator: OpElement, rhs: Polynomial):
        if not operator:
            raise DomainError("operator must be nonzero")
        if rhs.arity != 1:
            raise DomainError("right-hand side must have one variable")
        object.__setattr__(self, "element", operator)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, name, value):
        raise AttributeError("Sode is immutable")

    def degree(self) -> int:
        return self.element.degree()


def coefficient_equations(eq: Sode, xi0, order: int):
    """Linear system rows for the centered coefficient match.

    Row m states that the image coefficient at (x - xi0)^m equals the
    matching right-hand-side coefficient; columns run over a_0..a_order.
    Rows stop at order - deg so every retained row is complete.
    """
    xi0 = Fraction(xi0)
    e = eq.element
    g = eq.degree()
    top = order - g
    basis = [TruncatedSeries(1, order + g, {(n,): Fraction(1)}, xi0) for n in range(order + 1)]
    cols = [series_apply_op(e, b).terms for b in basis]
    rows = [[cols[n].get((m,), Fraction(0)) for n in range(order + 1)] for m in range(top + 1)]
    rhs_terms = _shift(eq.rhs.terms, xi0)
    rhs = [rhs_terms.get((m,), Fraction(0)) for m in range(top + 1)]
    return rows, rhs


def sode_solve(eq: Sode, xi0, a0, order: int) -> TruncatedSeries:
    """Series solution around xi0 with prescribed constant term.

    Coefficients come from solving the matching equations; free higher
    coefficients are set to zero.  Raises NoSolutionError when the system
    is inconsistent, with the index m of the first equation (the one at
    (x - xi0)^m) that contradicts the equations before it, or when a
    homogeneous equation admits only the zero series.
    """
    xi0 = Fraction(xi0)
    a0 = Fraction(a0)
    if order < 1:
        raise DomainError("order must be positive")
    rows, rhs = coefficient_equations(eq, xi0, order)
    moved = [b - row[0] * a0 for row, b in zip(rows, rhs)]
    tail = [row[1:] for row in rows]
    sol, bad = linalg.solve_affine(tail, moved)
    if sol is None:
        raise NoSolutionError(bad)
    coeffs = [a0] + sol
    if not eq.rhs.terms and all(c == 0 for c in coeffs):
        raise NoSolutionError(0, "homogeneous equation admits only the zero series here")
    out = TruncatedSeries(1, order, {(n,): c for n, c in enumerate(coeffs)}, xi0)
    report = sode_residual(eq, out, order)
    if not (report.ok and report.verified_through >= order - eq.degree()):
        raise VerificationError(
            f"series solution fails its residual check past degree {report.verified_through}"
        )
    return out


class ResidualReport(
    namedtuple("ResidualReport", "verified_through failure_degree failure_coefficient",
               defaults=(None, None))
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.failure_degree is None

    def json_obj(self):
        if self.ok:
            return {"status": "verified", "through": self.verified_through}
        return {
            "status": "failed",
            "degree": self.failure_degree,
            "coefficient": format_scalar(self.failure_coefficient),
        }


def sode_residual(eq: Sode, candidate: TruncatedSeries, order: int) -> ResidualReport:
    """Apply the operator to a candidate and compare against the rhs.

    Reports the largest centered degree through which the residual
    vanishes, or the first failing degree with its coefficient.  Centered
    candidates are only trusted short of the operator degree; uncentered
    ones are exact to their order.
    """
    if candidate.arity != 1:
        raise DomainError("residual check expects one variable")
    e = eq.element
    g = eq.degree()
    trust = candidate.order if candidate.center is None else candidate.order - g
    bound = min(order, trust)
    img = series_apply_op(e, candidate)
    rhs_series = TruncatedSeries.from_polynomial(eq.rhs, bound, candidate.center)
    for m in range(bound + 1):
        c = img.coefficient((m,)) - rhs_series.coefficient((m,))
        if c:
            return ResidualReport(m - 1, m, c)
    return ResidualReport(bound)

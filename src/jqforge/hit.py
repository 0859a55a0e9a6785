"""Hit-problem deciders: who is in the image of the positive-degree operations.

A polynomial f is hit when f = sum of Jq^i applied to cofactors with
2-adically integral coefficients, i ranging over positive degrees.  For a
single power of one variable the decision reduces to a binomial
valuation; the general graded case is a 2-adic lattice membership over
monomial columns.  That membership is refused mod 2 first: a Z_(2)
combination of the columns reduces to an F_2 combination of the columns
mod 2 (Jq^i is Sq^i there), so f outside their F_2 span is not hit, and
only the rest pay for the lattice.  The same F_2 test is `classical_hit`.
Positive decisions return certificates that are re-verified before being
handed back.
"""

from __future__ import annotations

from math import comb

from .action import apply_jq, word_images
from .errors import DomainError, VerificationError
from . import linalg
from .poly import Polynomial, format_poly, monomials_of_degree
from .scalar2 import INF, in_z2, v2


class HitCertificate:
    def __init__(self, pairs):
        self.pairs = pairs

    def reconstruct(self, arity: int) -> Polynomial:
        return sum((apply_jq(k, cofactor) for k, cofactor in self.pairs), Polynomial.zero(arity))

    def witness_json(self):
        return [
            {"k": k, "cofactor": format_poly(cof)}
            for k, cof in sorted(self.pairs, key=lambda p: p[0])
        ]


def _column_valuation(d: int, i: int) -> int:
    """v2 C(d-i, i) by Kummer: s(i) + s(d-2i) - s(d-i), s the binary digit sum."""
    s = int.bit_count
    return s(i) + s(d - 2 * i) - s(d - i)


def min_hit_valuation(d: int) -> object:
    """Least 2-adic valuation among the single-variable column coefficients.

    The columns are Jq^i(x^(d-i)) = C(d-i, i) x^d for 1 <= i <= d // 2, and
    a*x^d is hit exactly when v2(a) reaches their least valuation, read
    by Kummer's digit sums with no binomial built.  Degree 1 has no
    columns at all: infinite.
    """
    if d < 1:
        raise DomainError("degree must be positive")
    return min((_column_valuation(d, i) for i in range(1, d // 2 + 1)), default=INF)


def _check_input(f: Polynomial):
    if not f.terms:
        raise DomainError("decide per graded part; zero input")
    if not f.is_homogeneous():
        raise DomainError("decide per graded part; input is not homogeneous")
    d = f.degree()
    if d < 1:
        raise DomainError("degree must be positive")
    if not all(in_z2(c) for c in f.terms.values()):
        raise DomainError("coefficients must be 2-adic integers")
    return d


def _single_power_certificate(f: Polynomial, d: int, cap):
    """Exact certificate ladder for a*x^d in one variable.

    Prefers the smallest operator index with an integer cofactor, then
    the smallest with a 2-adically integral one; this keeps certificates
    in the shape worked examples use.  Indices whose column valuation
    exceeds v2(a) admit neither, so their binomials are never built.
    """
    (exps, a), = f.terms.items()
    va = v2(a)
    top = d // 2 if cap is None else min(d // 2, cap)
    fallback = None
    for i in range(1, top + 1):
        if _column_valuation(d, i) > va:
            continue
        ratio = a / comb(d - i, i)
        cofactor = Polynomial(1, {(d - i,): ratio})
        if ratio.denominator == 1:
            return HitCertificate([(i, cofactor)])
        if fallback is None:
            fallback = HitCertificate([(i, cofactor)])
    return fallback


def hit_decide_graded(f: Polynomial, precision_j=None):
    """Decide 2-adic hit membership in the degree of f, with a certificate.

    precision_j, when given, caps the operator indices allowed in the
    search; the default uses every positive index below the degree.
    """
    d = _check_input(f)
    if precision_j is not None and precision_j < 1:
        raise DomainError("precision cap must be positive")
    if f.arity == 1 and len(f.terms) == 1:
        cert = _single_power_certificate(f, d, precision_j)
        if cert is None:
            return False, None
        _verify_certificate(cert, f)
        return True, cert
    top = d if precision_j is None else min(d, precision_j + 1)
    gens = _columns(f.arity, d, {i: [(i,)] for i in range(1, top)})
    combo = _membership(gens, f)
    if combo is None:
        return False, None
    grouped = {}
    for ((i,), mu), c in combo.items():
        grouped.setdefault(i, {})[mu] = c
    pairs = [(i, Polynomial(f.arity, terms)) for i, terms in sorted(grouped.items())]
    cert = HitCertificate(pairs)
    _verify_certificate(cert, f)
    return True, cert


def _columns(arity, d, words_by_degree):
    """Nonzero generators ((w, mu), w(x^mu)), w in words_by_degree[b] and |mu| = d - b."""
    gens = []
    for b, pool in words_by_degree.items():
        for mu in monomials_of_degree(arity, d - b):
            for w, col in zip(pool, word_images(pool, mu)):
                if col:
                    gens.append(((w, mu), col))
    return gens


def _in_f2_span(gens, f):
    """Whether f mod 2 lies in the F_2 span of the int columns mod 2."""
    cols = [{e for e, c in col.items() if c & 1} for _, col in gens]
    target = {e for e, c in f.terms.items() if c.numerator & 1}
    null = linalg.f2_row_nullspace(cols + [target])
    return bool(null) and null[-1][-1] == len(cols)


def _membership(gens, f):
    """Z_(2) coefficients of f over the columns, or None; refused mod 2 first."""
    if not _in_f2_span(gens, f):
        return None
    return linalg.Z2Lattice(gens).contains(f.terms)


def _verify_certificate(cert: HitCertificate, f: Polynomial):
    if cert.reconstruct(f.arity) != f:
        raise VerificationError(f"hit certificate does not reconstruct {format_poly(f)}")


def cohit_order(d: int):
    """Size of the degree-d cokernel over one variable: 2^m(d), or infinite."""
    m = min_hit_valuation(d)
    return INF if m is INF else 2 ** m


def module_adem_filtration(f: Polynomial, max_j: int = 6) -> int:
    """Largest j with f reached by operator words of filtration order >= j.

    Level j uses columns w(mu) over words of length >= j; a word of
    length s is a product of s positive-degree operations, so this is the
    module filtration by powers of the positive-degree ideal.  Level 1
    coincides with the hit decision.
    """
    from .relations import words_of_degree

    d = _check_input(f)
    value = 0
    for j in range(1, max_j + 1):
        pools = {b: [w for w in words_of_degree(b) if len(w) >= j] for b in range(j, d)}
        if _membership(_columns(f.arity, d, pools), f) is not None:
            value = j
        else:
            break
    return value


def classical_hit(f: Polynomial) -> bool:
    """Whether the mod-2 reduction of f is hit over the classical algebra.

    Jq^i reduces to Sq^i mod 2, so the columns are the images Jq^i(x^mu)
    mod 2, and f is hit when its reduction lies in their F_2 span.
    """
    d = _check_input(f)
    return _in_f2_span(_columns(f.arity, d, {i: [(i,)] for i in range(1, d)}), f)

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
handed back.  The module filtration by powers of the positive-degree
ideal, whose first level is the hit decision, recurses on lattice bases:
level j in degree b is spanned by the images Jq^k(g) of the basis rows g
of level j - 1 in degree b - k, so no operator word is listed.
"""

from __future__ import annotations

from math import comb

from .action import apply_jq, element_image, word_images
from .errors import DomainError, VerificationError
from . import linalg
from .poly import Polynomial, add_term, format_poly, monomials_of_degree
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
    combo = _membership(_columns(f.arity, d, top), f)
    if combo is None:
        return False, None
    grouped = {}
    for (i, mu), c in combo.items():
        grouped.setdefault(i, {})[mu] = c
    pairs = [(i, Polynomial(f.arity, terms)) for i, terms in sorted(grouped.items())]
    cert = HitCertificate(pairs)
    _verify_certificate(cert, f)
    return True, cert


def _columns(arity, d, top):
    """Nonzero generators ((i, mu), Jq^i(x^mu)), 1 <= i < top and |mu| = d - i."""
    return [
        ((i, mu), col)
        for i in range(1, top)
        for mu in monomials_of_degree(arity, d - i)
        for col in word_images([(i,)], mu)
        if col
    ]


def _images(bases, b):
    """Generators ((k, i), Jq^k(g)), 1 <= k <= b, g the i-th int row of bases[b - k]."""
    gens = []
    for k in range(1, b + 1):
        for i, g in enumerate(bases[b - k]):
            col = {}
            for mu, c in g.items():
                for e, v in element_image({(k,): c}, mu).items():
                    add_term(col, e, v)
            gens.append(((k, i), col))
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


def module_adem_filtration(f: Polynomial) -> int:
    """Largest j with f in M_j, the Z_(2) span of the w(x^mu) over words of length >= j.

    A word of length s is a product of s positive-degree operations, so
    M_j is the module filtration by powers of the positive-degree ideal;
    M_0 holds every polynomial, and level 1 is the hit decision.  The
    levels recurse on Z_(2) lattice bases, one per degree b < d, each
    built from the images Jq^k(g), k >= 1, of the basis rows g of the
    level before in degree b - k; f is tested against the images in its
    own degree d, refused mod 2 first.  The recursion is exact, and it
    stops by itself:

    1. A word of length s >= j is Jq^k applied after a word of length
       s - 1 >= j - 1, so M_j = sum_k Jq^k(M_(j-1)), and the images of a
       Z_(2) basis of M_(j-1) span M_j over Z_(2).
    2. Jq^k raises degree by exactly k, so M_j in degree b comes from
       M_(j-1) in the degrees b - k < b; bases below d suffice.
    3. A word of length >= j has degree >= j and kills constants, so M_j
       is zero in every degree b <= j.  The input is nonzero of degree
       d, so the value is at most d - 1, and the loop ends by j = d.

    The mod-2 refusal is sound for any generating set of integral rows
    (Nakayama), the basis rows included.
    """
    d = _check_input(f)
    bases = {b: [{mu: 1} for mu in monomials_of_degree(f.arity, b)] for b in range(d)}
    j = 0
    while _membership(_images(bases, d), f) is not None:
        bases = {b: [r for _, r, _ in linalg.Z2Lattice(_images(bases, b)).basis] for b in range(d)}
        j += 1
    return j


def classical_hit(f: Polynomial) -> bool:
    """Whether the mod-2 reduction of f is hit over the classical algebra.

    Jq^i reduces to Sq^i mod 2, so the columns are the images Jq^i(x^mu)
    mod 2, and f is hit when its reduction lies in their F_2 span.
    """
    d = _check_input(f)
    return _in_f2_span(_columns(f.arity, d, d), f)

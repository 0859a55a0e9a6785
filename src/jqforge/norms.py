"""Valuations and norm estimates for operator elements.

Three inequivalent gauges, each with its own report: the word-length
valuation (membership in powers of the positive-degree ideal, on the
exact single-variable system, where a proof leaves two candidate
values and d words to test them), the kernel filtration of the mod-2
reduction (in Witt coordinates, so a gauge of the operator rather than
of its spelling; the kernel's generators are read off admissible
forms, with no F_2 elimination), and the transformation norm, exact
from a sweep to the element's own degree.  Reports carry the
bounds they were computed under and, when available, a witness that
re-verifies the value.
"""

from __future__ import annotations

from fractions import Fraction

from .action import element_image
from .errors import DomainError, VerificationError
from . import linalg, witt
from .opalg import (
    OpElement,
    admissible_form,
    compositions,
    equal_by_evaluation,
    format_op,
    phi_reduce,
)
from .poly import Polynomial, format_poly, monomials_upto
from .relations import grid_vectors
from .scalar2 import INF, in_z2, scale_to_ints, v2, v2_int


class ValuationReport:
    def __init__(self, value, method, bounds=None, witness=None):
        self.value, self.method, self.witness = value, method, witness
        self.bounds = {} if bounds is None else bounds

    @property
    def norm(self):
        """2^(-value) as an exact Fraction; 0 at infinite valuation."""
        if self.value == INF:
            return Fraction(0)
        return Fraction(1, 2 ** self.value)

    def json_obj(self):
        if self.witness is None:
            wit = None
        elif isinstance(self.witness, OpElement):
            wit = format_op(self.witness)
        else:  # an exponent tuple: the scan's witness monomial
            wit = format_poly(Polynomial(len(self.witness), {self.witness: 1}))
        return {
            "value": "inf" if self.value == INF else self.value,
            "norm": str(self.norm),
            "method": self.method,
            "bounds": self.bounds,
            "witness": wit,
        }


def adem_valuation(e: OpElement) -> ValuationReport:
    """Largest j with e spanned by degree-d words of length >= j.

    The value is the order of e in the filtration by powers of the
    positive-degree ideal, solved on the one-variable grid to degree d,
    the exact single-variable system (see `relations`).
    The witness is the rewriting into long words.  An element whose
    one-variable image is zero, whether or not it is zero in more
    variables, gets inf, as the zero element does.

    In one variable the value is d, d - 1 or inf, and d words decide it.
    Jq^k x^m = C(m, k) x^(m+k), so a degree-d element acts on x^m as
    P(m) x^(m+d), P of degree <= d with P(0) = 0: a space of dimension d.
    Jq1^d acts as R(m) = m(m+1)...(m+d-1).  A word of length d - 1 has one
    Jq2, with b letters Jq1 to its right, 0 <= b <= d - 2, and acts as
    R(m)(m+b-1)/(2(m+b+1)) = R/2 - R/(m+c), c = b + 1.  So the d words of
    length >= d - 1 span R and the R/(m+c), c = 1..d-1.  These are
    independent: at m = -c only R/(m+c) is nonzero, and only R has degree
    d.  They span every image, so the value is d - 1 or more; it is d
    exactly when the image is a multiple of R, the image of the one word
    of length d.  The echelon at each j holds the words of length >= j in
    the order `compositions` yields them, as a search over all 2^(d-1)
    words of degree d would at that j, so the witness is the one such a
    search gives.
    """
    if not e.terms:
        return ValuationReport(INF, "ademWordLength", {"mDegree": 0})
    if not e.is_homogeneous():
        raise DomainError("valuation is per graded part; split the element first")
    d = e.degree()
    if d == 0:
        return ValuationReport(0, "ademWordLength", {"mDegree": 0})
    words = [w for r in (d - 1, d) for w in compositions(d, length=r)]
    *vecs, target = grid_vectors([{w: 1} for w in words] + [e.terms], monomials_upto(1, d))
    if not target:
        return ValuationReport(INF, "ademWordLength", {"mDegree": d})
    for j in (d, d - 1):
        ech = linalg.SparseEchelon()
        for w, vec in zip(words, vecs):
            if len(w) >= j:
                ech.insert(vec, w)
        combo = ech.membership(target)
        if combo is not None:
            witness = OpElement({w: c for w, c in combo.items() if c != 0})
            if not equal_by_evaluation(witness, e, n_vars=1):
                raise VerificationError(f"adem witness of {format_op(e)} fails evaluation")
            return ValuationReport(j, "ademWordLength", {"mDegree": d}, witness)
    raise VerificationError(f"{format_op(e)} is outside the span of its {d} long words")


def ker_phi_membership(e: OpElement) -> bool:
    """Whether the mod-2 reduction of e vanishes in the classical algebra."""
    return not phi_reduce(e)


def _kernel_lattice_generators(b: int):
    """Generators of the kernel of mod-2 reduction among degree-b elements.

    They are 2w for every word w of degree b, and, for every w that is
    not admissible, w minus the sum of its admissible form; each reduces
    to zero.  They span the kernel over Z_(2), with no F_2 elimination.
    The admissible words are among the words, and each reduces to
    itself.  So a kernel element sum c_w w, minus c_w times the generator
    of each of its non-admissible words w, is a combination of admissible
    words with zero reduction.  That reduction is the set of its words
    with odd coefficients, so all its coefficients are even: it is a
    combination of the 2w.
    """
    if b == 0:
        return [OpElement({(): Fraction(2)})]
    words = list(compositions(b))
    gens = [OpElement({w: Fraction(2)}) for w in words]
    for w in words:
        form = admissible_form(w)
        if form != {w}:
            gens.append(OpElement({w: Fraction(1), **dict.fromkeys(form, Fraction(-1))}))
    return gens


def _reduce_generators(gens):
    """A basis of the Z_(2) lattice that the coordinate vectors gens span."""
    return [brow for _, brow in linalg.Z2Lattice(enumerate(gens)).basis]


def ker_adic_valuation(e: OpElement, max_j: int = 6, degree_bound: int = 8) -> ValuationReport:
    """Largest j <= max_j with e in the j-th power of the reduction kernel.

    Works in the algebra, on Witt coordinates (`witt`), so two spellings
    of one operator get one value.  The homogeneous kernel generators
    (the doubled words and each non-admissible word minus its admissible
    form, the scalar 2 included) are taken to coordinates and reduced by
    2-adic elimination once per degree; powers of the kernel are then
    built recursively per degree from their products, reduced again at
    every stage, and e is tested against them.  Zero lies in every
    power: an element that is zero in the algebra gets INF, as in the
    other gauges.
    """
    if max_j < 0:
        raise DomainError("maxJ must be nonnegative")
    bounds = {"maxJ": max_j, "degreeBound": degree_bound}
    if not e.terms:
        return ValuationReport(INF, "kerAdicLattice", bounds)
    if not e.is_homogeneous():
        raise DomainError("valuation is per graded part; split the element first")
    if not all(in_z2(c) for c in e.terms.values()):
        raise DomainError("coefficients must be 2-adic integers")
    d = e.degree()
    if d > degree_bound:
        raise DomainError(f"degree {d} beyond the configured bound {degree_bound}")
    if d == 0:
        v = min(v2(c) for c in e.terms.values())
        return ValuationReport(min(v, max_j), "kerAdicLattice", bounds)

    (target,) = witt.element_coordinates([e.terms])
    if not target:
        return ValuationReport(INF, "kerAdicLattice", bounds)

    kernel = {}
    for b in range(0, d + 1):
        gens = _kernel_lattice_generators(b)
        kernel[b] = _reduce_generators(witt.element_coordinates([g.terms for g in gens]))
    # level[b] holds generators of the j-th kernel power in degree b
    level = kernel
    value = 0
    for j in range(1, max_j + 1):
        if j > 1:
            nxt = {}
            for b in range(0, d + 1):
                prods = []
                for split in range(0, b + 1):
                    for left in level[b - split]:
                        for right in kernel[split]:
                            prods.append(witt.multiply(left, right))
                nxt[b] = _reduce_generators(prods)
            level = nxt
        if linalg.Z2Lattice(enumerate(level[d])).contains(target) is None:
            break
        value = j
    return ValuationReport(value, "kerAdicLattice", bounds)


def operator_norm_estimate(e: OpElement, n_vars: int = 4) -> ValuationReport:
    """The transformation norm in n_vars variables, as 2^(-v), exact.

    v is the least coefficient valuation among the images of all
    monomials x^m (the constant monomial included, which is what detects
    elements with an identity component); for ultrametric coefficients
    the sup over monomials is the sup over polynomials.  The sweep covers
    |m| <= d, the degree of e, in lexicographic order, and is the whole
    sup.  On x^m, e gives sum_s P_s(m) x^(m+s), each P_s an
    integer-valued polynomial of total degree at most d
    (`opalg.equal_by_evaluation`).  In the binomial basis, P_s =
    sum_(|a|<=d) c_a prod C(m_i, a_i), and each c_a is an integer
    combination of the values P_s(b), b <= a componentwise.  Two facts
    follow.  No monomial of any degree reaches a smaller valuation than
    the least over |m| <= d: v2 P_s(m) >= min v2 c_a >= that least.  And
    if P_s(m*) has the least valuation, some c_a with a <= m* has no
    more (the terms with a_i > m*_i vanish at m*), and then so has some
    P_s(b) with b <= a: every minimiser m* has a minimiser b <= m* of
    degree <= d, and b comes no later than m* in lexicographic order.  So
    the first minimiser, the reported witness, has degree <= d, and any
    longer sweep reports the same value and witness.

    Monomial images have nonnegative integer coefficients, so no image
    goes below the least valuation of e's own coefficients; the sweep
    stops once it reaches that.  The element is scaled to ints once, by
    the lcm of its denominators; those are odd, so no valuation moves.
    """
    if not all(in_z2(c) for c in e.terms.values()):
        raise DomainError("coefficients must be 2-adic integers")
    terms, _ = scale_to_ints(e.terms)
    floor = min(map(v2_int, terms.values()), default=INF)
    d = max(e.degree(), 0)
    best, witness = INF, None
    for mu in monomials_upto(n_vars, d):
        for c in element_image(terms, mu).values():
            v = v2_int(c)
            if v < best:
                best, witness = v, mu
        if best == floor:
            break
    return ValuationReport(best, "monomialSup", {"nVars": n_vars, "degBound": d}, witness)


def degree_norm(e: OpElement, rho: Fraction) -> Fraction:
    """rho raised to the degree of a homogeneous element."""
    rho = Fraction(rho)
    if not (0 < rho < 1):
        raise DomainError("rho must lie strictly between 0 and 1")
    if not e.terms:
        return Fraction(0)
    if not e.is_homogeneous():
        raise DomainError("degree norm needs a homogeneous element")
    return rho ** e.degree()

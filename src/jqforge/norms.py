"""Valuations and norm estimates for operator elements.

Three inequivalent gauges, each with its own report: the word-length
valuation (membership in powers of the positive-degree ideal, solved
degree by degree on the exact single-variable system), the kernel
filtration of the mod-2 reduction (in Witt coordinates, so a gauge of
the operator rather than of its spelling), and a monomial-scan estimate
of the transformation norm.  Reports carry the bounds they were computed
under and, when available, a witness that re-verifies the value.
"""

from __future__ import annotations

from fractions import Fraction

from .action import element_image
from .errors import DomainError
from . import linalg, witt
from .opalg import (
    OpElement,
    admissible_form,
    format_op,
    phi_reduce,
)
from .poly import monomials_upto
from .relations import grid_vectors, words_of_degree
from .scalar2 import INF, in_z2, v2


class ValuationReport:
    def __init__(self, value, method, bounds=None, witness=None):
        self.value, self.method, self.witness = value, method, witness
        self.bounds = {} if bounds is None else bounds

    @property
    def norm(self):
        """2^(-value) as an exact Fraction; 0 at infinite valuation."""
        if self.value == INF:
            return Fraction(0)
        if self.value >= 0:
            return Fraction(1, 2 ** self.value)
        return Fraction(2 ** (-self.value))

    def json_obj(self):
        if self.witness is None:
            wit = None
        elif isinstance(self.witness, OpElement):
            wit = format_op(self.witness)
        else:
            wit = str(self.witness)
        return {
            "value": "inf" if self.value == INF else self.value,
            "norm": str(self.norm),
            "method": self.method,
            "bounds": self.bounds,
            "witness": wit,
        }


def adem_valuation(e: OpElement) -> ValuationReport:
    """Largest j with e spanned by degree-d words of length >= j.

    Solved on the one-variable grid to degree d, the exact single-variable
    system (see `relations`), descending j, so the value is the order of e
    in the filtration by powers of the positive-degree ideal.  The witness
    is the rewriting into long words.  The gauge is one-variable: an
    element whose one-variable image is zero, whether or not it is zero in
    more variables, gets inf, as the zero element does.
    """
    if not e.terms:
        return ValuationReport(INF, "ademWordLength", {"mDegree": 0})
    if not e.is_homogeneous():
        raise DomainError("valuation is per graded part; split the element first")
    d = e.degree()
    if d == 0:
        return ValuationReport(0, "ademWordLength", {"mDegree": 0})
    if any(len(w) == 0 for w in e.terms):
        raise DomainError("mixed identity term; split the element first")
    words = words_of_degree(d)
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
    raise DomainError("element of positive degree outside the span of its own words")


def ker_phi_membership(e: OpElement) -> bool:
    """Whether the mod-2 reduction of e vanishes in the classical algebra."""
    return not phi_reduce(e)


def _kernel_lattice_generators(b: int):
    """Generators of the kernel of mod-2 reduction among degree-b elements.

    Doubled words always reduce to zero; on top of those, subsets of
    words whose classical images cancel give the interesting generators.
    """
    if b == 0:
        return [OpElement({(): Fraction(2)})]
    words = words_of_degree(b)
    gens = [OpElement({w: Fraction(2)}) for w in words]
    images = [admissible_form(w) for w in words]
    for combo in linalg.f2_row_nullspace(images):
        gens.append(OpElement({words[i]: Fraction(1) for i in combo}))
    return gens


def _reduce_generators(gens):
    """A basis of the Z_(2) lattice that the coordinate vectors gens span."""
    return [brow for _, brow, _ in linalg.Z2Lattice(enumerate(gens)).basis]


def ker_adic_valuation(e: OpElement, max_j: int = 6, degree_bound: int = 8) -> ValuationReport:
    """Largest j <= max_j with e in the j-th power of the reduction kernel.

    Works in the algebra, on Witt coordinates (`witt`), so two spellings
    of one operator get one value.  The homogeneous kernel generators
    (the scalar 2 included) are taken to coordinates and reduced by
    2-adic elimination once per degree; powers of the kernel are then
    built recursively per degree from their products, reduced again at
    every stage, and e is tested against them.  Zero lies in every
    power: an element that is zero in the algebra gets INF, as in the
    other gauges.
    """
    if not e.terms:
        return ValuationReport(INF, "kerAdicLattice", {"maxJ": max_j})
    if not e.is_homogeneous():
        raise DomainError("valuation is per graded part; split the element first")
    if not all(in_z2(c) for c in e.terms.values()):
        raise DomainError("coefficients must be 2-adic integers")
    d = e.degree()
    if d > degree_bound:
        raise DomainError(f"degree {d} beyond the configured bound {degree_bound}")
    if d == 0:
        v = min(v2(c) for c in e.terms.values())
        return ValuationReport(min(v, max_j), "kerAdicLattice", {"maxJ": max_j})

    (target,) = witt.element_coordinates([e.terms])
    if not target:
        return ValuationReport(INF, "kerAdicLattice", {"maxJ": max_j})

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
    return ValuationReport(value, "kerAdicLattice", {"maxJ": max_j, "degreeBound": degree_bound})


def operator_norm_estimate(e: OpElement, n_vars: int = 4, deg_bound: int = 16) -> ValuationReport:
    """Monomial-scan lower bound on the transformation norm, as 2^(-v).

    v is the least coefficient valuation among the images of all scanned
    monomials (the constant monomial included, which is what detects
    elements with an identity component).  For ultrametric coefficients
    the sup over monomials equals the sup over polynomials, so the only
    gap is the finite scan range.
    """
    if not all(in_z2(c) for c in e.terms.values()):
        raise DomainError("coefficients must be 2-adic integers")
    best = INF
    witness = None
    bounds = {"nVars": n_vars, "degBound": deg_bound}
    for mu in monomials_upto(n_vars, deg_bound):
        for c in element_image(e.terms, mu).values():
            v = v2(c)
            if v < best:
                best = v
                witness = mu
        if best == 0:
            break
    return ValuationReport(best, "monomialSup", bounds, witness)


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

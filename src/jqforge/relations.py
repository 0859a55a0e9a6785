"""Discovery of relations between operator words by exact linear algebra.

The basic move: encode each candidate word as the symbolic coefficient of
its action on a generic single-variable power (a polynomial in the exponent
m), stack those as constraint columns, and solve exact rational systems.
Decomposition solvers enrich the constraints with two-variable monomial
evaluations, which separates words the single-variable picture conflates,
and every candidate relation is re-verified by evaluation before being
returned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .action import element_image, word_images
from .errors import (
    DomainError,
    IndecomposableError,
    NotFoundError,
    ResolutionFailedError,
    VerificationError,
)
from . import linalg
from .opalg import (
    OpElement,
    compositions,
    element_on_power,
    equal_by_evaluation,
    evaluate_on_power,
    format_op,
    format_word,
    word_key,
)
from .poly import monomials_upto
from .scalar2 import in_z2


def t_partition_words(k: int, t: int):
    """Word list for degree-k expansions with t-factor words.

    The full generator heads the list, then the length-t words in
    canonical order.  One degree above the factor count those words alone
    carry no dependency, so the all-ones word joins to close the relation
    (at k = 3, t = 2 this is the classical shape).
    """
    if k < 3:
        raise DomainError("partition expansions start at degree 3")
    if not 2 <= t < k:
        raise DomainError("factor count must be between 2 and the degree minus one")
    words = [(k,)] + sorted(compositions(k, length=t), key=word_key)
    if k == t + 1:
        words.append((1,) * k)
    return words


def words_of_degree(d: int):
    """All composite words of total degree d, canonically ordered."""
    return sorted(compositions(d), key=word_key)


def binary_partition_words(k: int):
    """Compositions of k into powers of 2, canonically ordered."""
    def is_pow2(x):
        return x & (x - 1) == 0

    return sorted((w for w in compositions(k) if all(is_pow2(p) for p in w)), key=word_key)


@dataclass
class RelationBasis:
    degree: int
    words: list
    basis: list
    bounds: dict = field(default_factory=dict)

    def elements(self):
        return [
            OpElement({w: Fraction(c) for w, c in zip(self.words, vec) if c != 0})
            for vec in self.basis
        ]

    def json_obj(self):
        return {
            "degree": self.degree,
            "words": [format_word(w) for w in self.words],
            "basis": [[str(c) for c in vec] for vec in self.basis],
            "bounds": self.bounds,
        }


def _symbolic_matrix(words):
    """Constraint rows equating the symbolic action of a combination to zero.

    Column j is words[j]; row i is the coefficient of m^i.
    """
    cols = [evaluate_on_power(w) for w in words]
    height = max(len(c) for c in cols)
    return [[c[i] if i < len(c) else Fraction(0) for c in cols] for i in range(height)]


def adem_nullspace(k: int, words=None) -> RelationBasis:
    """Exact nullspace of the symbolic single-variable system over a word set.

    Vectors are normalized to primitive integer form with a positive first
    nonzero entry, in reduced echelon order, which makes the output
    canonical for golden comparisons.
    """
    if words is None:
        words = t_partition_words(k, 2)
    words = [tuple(w) for w in words]
    if not words:
        raise DomainError("empty word set")
    for w in words:
        if sum(w) != k:
            raise DomainError(f"word {w} does not have degree {k}")
    rows = _symbolic_matrix(words)
    raw = linalg.nullspace(rows, len(words))
    basis = [linalg.primitive_integer(v) for v in raw]
    return RelationBasis(
        degree=k,
        words=words,
        basis=basis,
        bounds={"method": "symbolicSingleVariable", "mDegree": len(rows) - 1},
    )


def in_relation_span(basis: RelationBasis, vec) -> bool:
    """Whether vec lies in the rational span of the basis vectors."""
    rows = [list(map(Fraction, b)) for b in basis.basis]
    before = linalg.rank(rows)
    return linalg.rank(rows + [list(map(Fraction, vec))]) == before


def _pair_monomials(deg: int):
    """Two-variable test monomials separating words of total degree deg."""
    out = []
    for total in range(2, deg + 3):
        for b in range(1, total // 2 + 1):
            out.append((total - b, b))
    return out


def _constraint_vectors(words, mus):
    """Sparse constraint vector of each word: symbolic plus two-variable rows."""
    vecs = [{("m", i): c for i, c in enumerate(evaluate_on_power(w)) if c != 0} for w in words]
    for mi, mu in enumerate(mus):
        for vec, img in zip(vecs, word_images(words, mu)):
            for exps, c in img.items():
                vec[("e", mi, exps)] = c
    return vecs


@functools.lru_cache(maxsize=None)
def q12_decompose(k: int) -> OpElement:
    """Express the degree-k generator through words with factors 1 and 2 only.

    Solved as exact membership of the generator in the span of all
    degree-k words over factors 1 and 2, against constraints rich enough
    to pin down genuine operator identities (two-variable evaluations on
    top of the symbolic single-variable system).  Expansions found only
    through two-factor words do not survive several variables, which is
    why the full word set is searched at once.
    """
    if k < 1:
        raise DomainError("k must be positive")
    if k <= 2:
        return OpElement.jq(k)
    words = [w for w in words_of_degree(k) if all(p in (1, 2) for p in w)]
    mus = _pair_monomials(k)
    *cols, target = _constraint_vectors(words + [(k,)], mus)
    ech = linalg.SparseEchelon()
    for w, col in zip(words, cols):
        ech.insert(col, w)
    combo = ech.membership(target)
    if combo is None:
        raise ResolutionFailedError(f"generator outside the 1,2-word span at degree {k}")
    out = OpElement({w: c for w, c in combo.items() if c != 0})
    _verify_decomposition(k, out)
    return out


def _verify_decomposition(k: int, out: OpElement):
    if not equal_by_evaluation(OpElement.jq(k), out, n_vars=2):
        raise VerificationError(f"decomposition of Jq{k} fails evaluation: {format_op(out)}")


def binary_decompose(k: int) -> OpElement:
    """Express the degree-k generator through power-of-two factors with Z_2 coefficients.

    Membership of the generator in the 2-adic lattice spanned by the
    binary-partition words is decided by valuation-aware elimination, so
    the returned coefficients always have odd denominators.
    """
    if k < 1:
        raise DomainError("k must be positive")
    if k & (k - 1) == 0:
        raise IndecomposableError(f"the degree-{k} generator is not decomposable this way")
    words = binary_partition_words(k)
    mus = _pair_monomials(k)
    *cols, target = _constraint_vectors(words + [(k,)], mus)
    combo = linalg.Z2Lattice(zip(words, cols)).contains(target)
    if combo is None:
        raise ResolutionFailedError(
            f"generator outside the 2-adic span of {len(words)} binary words at degree {k}"
        )
    out = OpElement(combo)
    if not all(in_z2(c) for c in out.terms.values()):
        raise VerificationError(f"binary decomposition of Jq{k} leaves Z_2: {format_op(out)}")
    _verify_decomposition(k, out)
    return out


def _evaluation_rows(element_words, n_vars, deg_bound):
    """Sparse evaluation vector of each word over a monomial test set."""
    rows = [{} for _ in element_words]
    mus = (mu for mu in monomials_upto(n_vars, deg_bound) if sum(mu) >= 1)
    for mi, mu in enumerate(mus):
        for vec, img in zip(rows, word_images(element_words, mu)):
            for exps, c in img.items():
                vec[(mi, exps)] = c
    return rows


def rank_estimate(d: int, n_vars: int = 3, deg_bound=None) -> int:
    """Rank of the degree-d words as operators, within the stated bounds."""
    if d < 1:
        raise DomainError("degree must be positive")
    if deg_bound is None:
        deg_bound = d + 2
    words = words_of_degree(d)
    ech = linalg.SparseEchelon()
    for i, row in enumerate(_evaluation_rows(words, n_vars, deg_bound)):
        ech.insert(row, i)
    return ech.rank


def ore_solve(theta: OpElement, eta: OpElement, set_x=None, set_y=None, n_vars=3, deg_bound=None):
    """Common right multiples: find nonzero x, y with theta*x = eta*y.

    The default search starts with x in degree deg(theta) + deg(eta) and
    escalates the common product degree one step at a time, taking all
    words of each degree; the lowest degree often carries only degenerate
    nullspace vectors (one side zero), which are skipped.  Candidates come
    from the exact nullspace of the combined symbolic and two-variable
    constraint system and are re-verified by evaluation before being
    returned; raises NotFoundError when the sets are exhausted.
    """
    if not theta.terms or not eta.terms:
        raise DomainError("theta and eta must be nonzero")
    if not (theta.is_homogeneous() and eta.is_homogeneous()):
        raise DomainError("theta and eta must be homogeneous")
    p, q = theta.degree(), eta.degree()

    def default_words(deg):
        if deg == 0:
            return [()]
        words = words_of_degree(deg)
        if len(words) > 64:
            words = [w for w in words if len(w) <= 4]
        return words

    if set_x is not None or set_y is not None:
        steps = [0]
    else:
        steps = range(0, 5)
    for step in steps:
        if set_x is not None:
            wx = [tuple(w) for w in set_x]
        else:
            wx = default_words(p + q + step)
        if set_y is not None:
            wy = [tuple(w) for w in set_y]
        else:
            wy = default_words(2 * p + step)
        if not wx or not wy:
            raise DomainError("word sets must be nonempty")
        dx = {sum(w) for w in wx}
        dy = {sum(w) for w in wy}
        if len(dx) != 1 or len(dy) != 1:
            raise DomainError("word sets must be single-degree")
        if p + dx.pop() != q + dy.pop():
            raise DomainError("word sets are not degree-compatible")
        found = _ore_attempt(theta, eta, wx, wy, n_vars, deg_bound)
        if found is not None:
            return found
    raise NotFoundError("no common multiple over the given word sets")


def _ore_attempt(theta, eta, wx, wy, n_vars, deg_bound):
    """One nullspace pass over fixed word sets; verified result or None."""
    top = theta.degree() + max(sum(w) for w in wx)
    mus = _pair_monomials(top)
    cols = []
    for w in wx:
        cols.append(_element_constraint_vector(theta * OpElement.from_word(w), mus))
    for w in wy:
        vec = _element_constraint_vector(eta * OpElement.from_word(w), mus)
        cols.append({key: -v for key, v in vec.items()})
    keys = sorted({key for col in cols for key in col})
    rows = [[col.get(key, Fraction(0)) for col in cols] for key in keys]
    nx = len(wx)
    for vec in linalg.nullspace(rows, len(cols)):
        x = OpElement({w: c for w, c in zip(wx, vec[:nx]) if c != 0})
        y = OpElement({w: c for w, c in zip(wy, vec[nx:]) if c != 0})
        if not x.terms or not y.terms:
            continue
        if equal_by_evaluation(theta * x, eta * y, n_vars=n_vars, deg_bound=deg_bound):
            return x, y
    return None


def _element_constraint_vector(e: OpElement, mus):
    vec = {("m", i): c for i, c in enumerate(element_on_power(e)) if c != 0}
    for mi, mu in enumerate(mus):
        for exps, c in element_image(e.terms, mu).items():
            vec[("e", mi, exps)] = c
    return vec


def fraction_add(a: OpElement, b_inv: OpElement, c: OpElement, d_inv: OpElement, bounds=None):
    """Sum of two right fractions a*b^{-1} + c*d^{-1} over a common denominator.

    Solves b*d1 = d*b1 by the Ore search and returns the pair
    (a*d1 + c*b1, b*d1).  Zero numerators short-circuit.  The optional
    bounds record {"nVars": ..., "degBound": ...} tightens or loosens the
    verification sweep inside the Ore search.
    """
    if not b_inv.terms or not d_inv.terms:
        raise DomainError("denominators must be nonzero")
    if not a.terms:
        return c, d_inv
    if not c.terms:
        return a, b_inv
    kw = {}
    if bounds:
        if "nVars" in bounds:
            kw["n_vars"] = bounds["nVars"]
        if "degBound" in bounds:
            kw["deg_bound"] = bounds["degBound"]
    d1, b1 = ore_solve(b_inv, d_inv, **kw)
    return a * d1 + c * b1, b_inv * d1

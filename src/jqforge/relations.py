"""Discovery of relations between operator words by exact linear algebra.

Every constraint row comes from one builder, `_grid_vectors`.  It acts
with each element {word: coeff} on every monomial of a grid
{m in N^n : |m| <= d} through the evaluation kernel, and keys the
coefficient of x^exps in the image of the i-th grid monomial by
(i, exps).  For a combination of words of degree at most d the grid is
the exact system, not a sample: its vector is zero exactly when it
kills every polynomial in n variables (the proof is in
`opalg.equal_by_evaluation`).

- The one-variable grid is the exact single-variable system.
  `adem_nullspace` and `norms.adem_valuation` solve on it, so their
  relations hold on every power of one variable, and need not hold in
  more.
- The grid in `GRID_VARS` = 2 variables decides identities in two
  variables.  `q12_decompose`, `binary_decompose` and the Ore search
  solve on it.  From degree 9 two variables no longer separate all
  words, so what is found there is an identity in two variables only.
  Decompositions are re-verified in two variables, and Ore pairs in the
  caller's number of variables.
- `rank_estimate` counts the rank on a grid of the caller's size.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .action import word_images
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
    equal_by_evaluation,
    format_op,
    format_word,
    word_key,
)
from .poly import monomials_upto
from .scalar2 import in_z2

# variables of the grid on which decompositions and Ore multiples are solved
GRID_VARS = 2


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


class RelationBasis:
    def __init__(self, degree, words, basis, bounds=None):
        self.degree, self.words, self.basis = degree, words, basis
        self.bounds = {} if bounds is None else bounds

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


def _grid_vectors(elements, mus):
    """Sparse constraint vector of each element {word: coeff} on the monomials mus.

    Entry (i, exps) is the coefficient of x^exps in the image of the i-th
    monomial; zeros are dropped.  One kernel call per monomial serves the
    words of every element, sharing right factors between all of them.
    """
    words = list(dict.fromkeys(w for e in elements for w in e))
    vecs = [{} for _ in elements]
    for i, mu in enumerate(mus):
        images = dict(zip(words, word_images(words, mu)))
        for vec, e in zip(vecs, elements):
            for w, c in e.items():
                for exps, v in images[w].items():
                    key = (i, exps)
                    vec[key] = vec.get(key, 0) + c * v
    return [{key: v for key, v in vec.items() if v != 0} for vec in vecs]


def _column_nullspace(cols):
    """Exact nullspace of the matrix whose columns are the sparse vectors cols."""
    keys = sorted({key for col in cols for key in col})
    rows = [[col.get(key, 0) for col in cols] for key in keys]
    return linalg.nullspace(rows, len(cols))


def adem_nullspace(k: int, words=None) -> RelationBasis:
    """Exact nullspace of the single-variable system over a word set.

    The system is the one-variable grid to degree k, which is exact: a
    combination of degree-k words acts on x^m as P(m) x^(m+k), with P a
    polynomial of degree at most k, so P vanishes on m = 0..k only when it
    is zero.  The report keeps the method name "symbolicSingleVariable"
    and mDegree = k, the degree of P.

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
    raw = _column_nullspace(_grid_vectors([{w: 1} for w in words], monomials_upto(1, k)))
    basis = [linalg.primitive_integer(v) for v in raw]
    return RelationBasis(
        degree=k,
        words=words,
        basis=basis,
        bounds={"method": "symbolicSingleVariable", "mDegree": k},
    )


def in_relation_span(basis: RelationBasis, vec) -> bool:
    """Whether vec (one entry per word) lies in the rational span of the basis vectors."""
    if len(vec) != len(basis.words):
        raise DomainError(f"vector has {len(vec)} entries for {len(basis.words)} words")
    rows = [list(map(Fraction, b)) for b in basis.basis]
    before = linalg.rank(rows)
    return linalg.rank(rows + [list(map(Fraction, vec))]) == before


@functools.lru_cache(maxsize=None)
def q12_decompose(k: int) -> OpElement:
    """Express the degree-k generator through words with factors 1 and 2 only.

    Solved as exact membership of the generator in the span of all
    degree-k words over factors 1 and 2, on the two-variable grid to
    degree k, which decides identities in two variables.  Expansions
    found only through two-factor words do not survive several
    variables, which is why the full word set is searched at once.
    """
    if k < 1:
        raise DomainError("k must be positive")
    if k <= 2:
        return OpElement.jq(k)
    words = [w for w in words_of_degree(k) if all(p in (1, 2) for p in w)]
    *cols, target = _grid_vectors([{w: 1} for w in words + [(k,)]], monomials_upto(GRID_VARS, k))
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
    if not equal_by_evaluation(OpElement.jq(k), out, n_vars=GRID_VARS):
        raise VerificationError(f"decomposition of Jq{k} fails evaluation: {format_op(out)}")


def binary_decompose(k: int) -> OpElement:
    """Express the degree-k generator through power-of-two factors with Z_2 coefficients.

    Membership of the generator in the 2-adic lattice spanned by the
    binary-partition words is decided by valuation-aware elimination, so
    the returned coefficients always have odd denominators.  The lattice
    rows are the two-variable grid to degree k.
    """
    if k < 1:
        raise DomainError("k must be positive")
    if k & (k - 1) == 0:
        raise IndecomposableError(f"the degree-{k} generator is not decomposable this way")
    words = binary_partition_words(k)
    *cols, target = _grid_vectors([{w: 1} for w in words + [(k,)]], monomials_upto(GRID_VARS, k))
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


def rank_estimate(d: int, n_vars: int = 3) -> int:
    """Rank of the degree-d words as operators in n_vars variables, on the grid to d + 2.

    The grid to degree d already gives the exact rank (`opalg.equal_by_evaluation`).
    """
    if d < 1:
        raise DomainError("degree must be positive")
    grid = monomials_upto(n_vars, d + 2)
    ech = linalg.SparseEchelon()
    for i, row in enumerate(_grid_vectors([{w: 1} for w in words_of_degree(d)], grid)):
        ech.insert(row, i)
    return ech.rank


def ore_solve(theta: OpElement, eta: OpElement, set_x=None, set_y=None, n_vars=3):
    """Common right multiples: find nonzero x, y with theta*x = eta*y.

    The default search starts with x in degree deg(theta) + deg(eta) and
    escalates the common product degree one step at a time, taking all
    words of each degree; the lowest degree often carries only degenerate
    nullspace vectors (one side zero), which are skipped.  Candidates come
    from the exact nullspace of the two-variable grid system and are
    re-verified in n_vars variables, by a sweep to the degree of theta*x,
    before being returned; raises NotFoundError when the sets are
    exhausted.
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
        found = _ore_attempt(theta, eta, wx, wy, n_vars)
        if found is not None:
            return found
    raise NotFoundError("no common multiple over the given word sets")


def _ore_attempt(theta, eta, wx, wy, n_vars):
    """One nullspace pass over fixed word sets; verified result or None."""
    top = theta.degree() + max(sum(w) for w in wx)
    elements = [(theta * OpElement.from_word(w)).terms for w in wx]
    elements += [(eta * OpElement.from_word(w, -1)).terms for w in wy]
    nx = len(wx)
    for vec in _column_nullspace(_grid_vectors(elements, monomials_upto(GRID_VARS, top))):
        x = OpElement({w: c for w, c in zip(wx, vec[:nx]) if c != 0})
        y = OpElement({w: c for w, c in zip(wy, vec[nx:]) if c != 0})
        if not x.terms or not y.terms:
            continue
        if equal_by_evaluation(theta * x, eta * y, n_vars=n_vars):
            return x, y
    return None


def fraction_add(a: OpElement, b_inv: OpElement, c: OpElement, d_inv: OpElement):
    """Sum of two right fractions a*b^{-1} + c*d^{-1} over a common denominator.

    Solves b*d1 = d*b1 by the Ore search, with its default verification,
    and returns the pair (a*d1 + c*b1, b*d1).  Zero numerators
    short-circuit.
    """
    if not b_inv.terms or not d_inv.terms:
        raise DomainError("denominators must be nonzero")
    if not a.terms:
        return c, d_inv
    if not c.terms:
        return a, b_inv
    d1, b1 = ore_solve(b_inv, d_inv)
    return a * d1 + c * b1, b_inv * d1

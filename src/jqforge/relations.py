"""Discovery of relations between operator words by exact linear algebra.

Every word set here is `opalg.compositions` as it comes, at most
filtered (to 1s and 2s, or to powers of two).  That generator alone
decides the word order, which fixes the words each elimination keeps
and so every printed answer.

Two kinds of columns feed the eliminations.

- Coordinates (`witt`).  Over Q the operator algebra is the enveloping
  algebra of the Witt algebra W+, whose degree-d part has dimension
  p(d); a word's coordinates are exact in every number of variables.
  `q12_decompose` (`SparseEchelon` membership), `binary_decompose`
  (`Z2Lattice` membership), the Ore search (one `SparseEchelon`, asked
  for the combination of its first dependent column alone) and the
  choice of independent words in `rank_estimate` (which asks for none)
  solve on them.
- Grid rows.  Each element {word: coeff} acts on every monomial of a
  grid {m in N^n : |m| <= d} through the evaluation kernel, and the
  coefficient of x^exps in the image of the i-th grid monomial is keyed
  by (i, exps).  For a combination of words of degree at most d the
  grid is the exact system in n variables, not a sample (the proof is
  in `opalg.equal_by_evaluation`).  `grid_vectors` builds the rows for
  `adem_nullspace` and `norms.adem_valuation`, which solve on the
  one-variable grid, so their relations hold on every power of one
  variable, and need not hold in more.  `rank_estimate` builds the same
  rows itself, one grid monomial at a time, so that it can stop once
  the rank reaches the number of words; it counts its rank in n
  variables.

Every answer found in coordinates is re-checked through the kernel,
an independent path, by `equal_by_evaluation` to the degree of what it
compares.  An identity of degree k, a decomposition or an Ore pair, is
re-checked in `check_vars(k)` variables, where that check is a proof in
the algebra through degree 12, and a proof in three variables only above.
"""

from __future__ import annotations

from fractions import Fraction

from .action import word_images
from .errors import (
    DomainError,
    IndecomposableError,
    NotFoundError,
    ResolutionFailedError,
    VerificationError,
)
from . import linalg, witt
from .opalg import (
    OpElement,
    compositions,
    equal_by_evaluation,
    format_op,
    format_word,
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
    words = [(k,), *compositions(k, length=t)]
    if k == t + 1:
        words.append((1,) * k)
    return words


class RelationBasis:
    def __init__(self, degree, words, basis, bounds=None):
        self.degree, self.words, self.basis = degree, words, basis
        self.bounds = {} if bounds is None else bounds

    def json_obj(self):
        return {
            "degree": self.degree,
            "words": [format_word(w) for w in self.words],
            "basis": [[str(c) for c in vec] for vec in self.basis],
            "bounds": self.bounds,
        }


def grid_vectors(elements, mus):
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


def adem_nullspace(k: int, words=None) -> RelationBasis:
    """Exact nullspace of the single-variable system over a word set.

    The system is the one-variable grid to degree k, which is exact: a
    combination of degree-k words acts on x^m as P(m) x^(m+k), with P a
    polynomial of degree at most k, so P vanishes on m = 0..k only when it
    is zero.  The report keeps the method name "symbolicSingleVariable"
    and mDegree = k, the degree of P.

    One vector per word that is a combination of the words before it, in
    word order: 1 at that word, minus the combination at the independent
    words, which is the nullspace basis of the reduced echelon form.
    Vectors are normalized to primitive integer form with a positive first
    nonzero entry, which makes the output canonical for golden
    comparisons.
    """
    if words is None:
        words = t_partition_words(k, 2)
    words = [tuple(w) for w in words]
    if not words:
        raise DomainError("empty word set")
    for w in words:
        if sum(w) != k:
            raise DomainError(f"word {w} does not have degree {k}")
    raw = linalg.nullspace(grid_vectors([{w: 1} for w in words], monomials_upto(1, k)))
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
    ech = linalg.SparseEchelon()
    for i, b in enumerate(basis.basis):
        ech.insert(dict(enumerate(b)), i)
    return ech.membership({j: Fraction(c) for j, c in enumerate(vec)}) is not None


def q12_decompose(k: int) -> OpElement:
    """Express the degree-k generator through words with factors 1 and 2 only.

    Solved as exact membership of the generator in the span of all
    degree-k words over factors 1 and 2, in coordinates.  Expansions
    found only through two-factor words do not survive several
    variables, which is why the full word set is searched at once.
    """
    if k < 1:
        raise DomainError("k must be positive")
    words = [w for w in compositions(k) if set(w) <= {1, 2}]
    *cols, target = witt.word_coordinates(words + [(k,)])
    ech = linalg.SparseEchelon()
    for w, col in zip(words, cols):
        ech.insert(col, w)
    combo = ech.membership(target)
    if combo is None:
        raise ResolutionFailedError(f"generator outside the 1,2-word span at degree {k}")
    out = OpElement({w: c for w, c in combo.items() if c != 0})
    _verify_decomposition(k, out)
    return out


def check_vars(k: int) -> int:
    """Variables of the kernel re-check of an identity of degree k.

    Through degree 8 the words of each degree have rank p(d) in two
    variables, so a two-variable check of an identity of degree k is a
    proof in the algebra.  At degree 9 that rank is 29, not p(9) = 30,
    so from there the check runs in three variables, where the rank is
    p(d) at least through degree 12.
    """
    return 2 if k <= 8 else 3


def _verify_decomposition(k: int, out: OpElement):
    if not equal_by_evaluation(OpElement.jq(k), out, n_vars=check_vars(k)):
        raise VerificationError(f"decomposition of Jq{k} fails evaluation: {format_op(out)}")


def binary_decompose(k: int) -> OpElement:
    """Express the degree-k generator through power-of-two factors with Z_2 coefficients.

    Membership of the generator in the 2-adic lattice spanned by the
    binary-partition words is decided by valuation-aware elimination on
    their coordinates, so the returned coefficients always have odd
    denominators.  The coordinates have even denominators (1/2 in E_2),
    which does not matter: whether a combination of the words has
    coefficients in Z_2 does not depend on the injective linear map that
    gives the columns.
    """
    if k < 1:
        raise DomainError("k must be positive")
    if k & (k - 1) == 0:
        raise IndecomposableError(f"the degree-{k} generator is not decomposable this way")
    words = [w for w in compositions(k) if all(p & (p - 1) == 0 for p in w)]
    *cols, target = witt.word_coordinates(words + [(k,)])
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


def _independent(words):
    """(word, coordinates) for each word that is not a combination of earlier ones.

    The words are of one degree d, whose coordinates span at most p(d)
    dimensions, so the scan stops once it has found p(d).
    """
    out, dim = [], witt.dimension(sum(words[0]))
    ech = linalg.SparseEchelon()
    for w, c in zip(words, witt.word_coordinates(words)):
        if ech.insert(c, w):
            out.append((w, c))
            if len(out) == dim:
                break
    return out


def rank_estimate(d: int, n_vars: int = 3) -> int:
    """Rank of the degree-d words as operators in n_vars variables, on the grid to d + 2.

    The first p(d) words that are independent in coordinates span the
    rest in the algebra, so only they are ranked: one row per grid key
    (i, exps) and one column per word.  The grid to degree d already
    gives the exact rank (`opalg.equal_by_evaluation`), and the sweep
    stops once the rank reaches the number of words, which bounds it.
    """
    if d < 1:
        raise DomainError("degree must be positive")
    basis = [w for w, _ in _independent(list(compositions(d)))]
    ech = linalg.SparseEchelon()
    for i, mu in enumerate(monomials_upto(n_vars, d + 2)):
        rows = {}
        for j, image in enumerate(word_images(basis, mu)):
            for exps, v in image.items():
                rows.setdefault(exps, {})[j] = v
        for exps, row in rows.items():
            ech.insert(row, (i, exps))
        if ech.rank == len(basis):
            break
    return ech.rank


def ore_solve(theta: OpElement, eta: OpElement, set_x=None, set_y=None):
    """Common right multiples: find nonzero x, y with theta*x = eta*y.

    The default search starts with x in degree deg(theta) + deg(eta) and
    escalates the common product degree one step at a time, taking all
    words of each degree.  Pairs are solved in coordinates and
    re-checked in check_vars(deg theta*x) variables, by a sweep to that
    degree, before being returned; raises NotFoundError when the sets are
    exhausted.  theta and eta must be nonzero in the algebra, not only
    as words.
    """
    if not theta.terms or not eta.terms:
        raise DomainError("theta and eta must be nonzero")
    if not (theta.is_homogeneous() and eta.is_homogeneous()):
        raise DomainError("theta and eta must be homogeneous")
    th, et = witt.element_coordinates([theta.terms, (-eta).terms])
    if not th or not et:
        raise DomainError("theta and eta must be nonzero in the algebra")
    p, q = theta.degree(), eta.degree()
    if set_x is not None or set_y is not None:
        steps = [0]
    else:
        steps = range(0, 5)
    for step in steps:
        if set_x is not None:
            wx = [tuple(w) for w in set_x]
        else:
            wx = list(compositions(p + q + step))
        if set_y is not None:
            wy = [tuple(w) for w in set_y]
        else:
            wy = list(compositions(2 * p + step))
        if not wx or not wy:
            raise DomainError("word sets must be nonempty")
        dx = {sum(w) for w in wx}
        dy = {sum(w) for w in wy}
        if len(dx) != 1 or len(dy) != 1:
            raise DomainError("word sets must be single-degree")
        if p + dx.pop() != q + dy.pop():
            raise DomainError("word sets are not degree-compatible")
        found = _ore_attempt(theta, eta, (th, et), wx, wy)
        if found is not None:
            return found
    raise NotFoundError("no common multiple over the given word sets")


def _ore_attempt(theta, eta, coords, wx, wy):
    """One pass over fixed word sets; re-checked result or None.

    coords holds the coordinates of theta and of -eta.  Each side keeps
    only its words that are not combinations of earlier ones.  The
    columns theta*x_i, then -eta*y_j, enter one `SparseEchelon` in
    order; the x columns are independent, because the algebra is a
    domain.  The first dependent column, a y column, is the only one
    asked for its combination, which gives the pair: it must use an x
    column, since the y columns are independent too, so x and y are
    both nonzero.  This is the first vector of `linalg.nullspace` of all
    the columns of wx and wy whose x is nonzero in coordinates.
    """
    th, et = coords
    ech = linalg.SparseEchelon()
    for w, c in _independent(wx):
        ech.insert(witt.multiply(th, c), ("x", w))
    for w, c in _independent(wy):
        col = witt.multiply(et, c)
        if ech.insert(col, ("y", w)):
            continue
        combo = ech.membership(col)
        x = OpElement({v: -a for (side, v), a in combo.items() if side == "x"})
        y = OpElement({v: -a for (side, v), a in combo.items() if side == "y"})
        y = y + OpElement.from_word(w)
        n_vars = check_vars(theta.degree() + x.degree())
        if not equal_by_evaluation(theta * x, eta * y, n_vars=n_vars):
            raise VerificationError(f"common multiple fails evaluation: x = {format_op(x)}")
        return x, y
    return None

"""The exact elimination cores: the sparse echelon over Q (nullspace, affine solve), Z_(2) lattices, F_2."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jqforge import hit, linalg
from jqforge.scalar2 import in_z2, v2

from test_hit import full_columns

PROPERTY = settings(derandomize=True, max_examples=120, deadline=None)

# mostly zeros, so that pivots are missing and rows must be swapped
entries = st.sampled_from([0, 0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 5)])


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    """Rows over a small alphabet, plus rows that repeat a combination of earlier ones."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=max_rows))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        lam = draw(entries)
        rows.append([x + lam * y for x, y in zip(rows[a], rows[b])])
    rows = draw(st.permutations(rows))
    return [list(map(Fraction, r)) for r in rows], ncols


def _mul(rows, v):
    return [sum(a * x for a, x in zip(r, v)) for r in rows]


def _columns(rows, ncols):
    """The columns of a dense matrix as sparse dicts keyed by row index."""
    return [{i: r[j] for i, r in enumerate(rows) if r[j] != 0} for j in range(ncols)]


@PROPERTY
@given(matrices())
def test_nullspace_vectors_are_killed_and_count_the_free_columns(m):
    rows, ncols = m
    basis = linalg.nullspace(_columns(rows, ncols))
    assert all(_mul(rows, v) == [0] * len(rows) for v in basis)
    assert len(basis) == ncols - _fraction_rank(rows)


@PROPERTY
@given(matrices(), st.lists(entries, min_size=8, max_size=8))
def test_solve_affine_solves_exactly_the_consistent_systems(m, b):
    rows, ncols = m
    rhs = list(map(Fraction, b[: len(rows)] + [0] * (len(rows) - len(b))))
    sol, bad = linalg.solve_affine(rows, rhs)
    consistent = _fraction_rank([r + [c] for r, c in zip(rows, rhs)]) == _fraction_rank(rows)
    assert (sol is not None) == consistent
    if sol is None:
        assert 0 <= bad < len(rows)
    else:
        assert bad is None and _mul(rows, sol) == rhs


def test_ragged_input_is_refused():
    # rows of unequal length, or a right-hand side of the wrong length, used to be truncated
    ragged = [[1, 0], [0, 1, 1]]
    for call in (
        lambda: linalg.solve_affine(ragged, [1, 1]),
        lambda: linalg.solve_affine([[1, 0], [0, 1]], [1]),
        lambda: linalg.solve_affine([[1, 0]], [1, 2]),
        lambda: linalg.solve_affine([], [1]),
        # a ragged row after the first inconsistent equation is refused too
        lambda: linalg.solve_affine([[0, 0], [1, 0, 1]], [1, 0]),
    ):
        with pytest.raises(ValueError):
            call()


def test_solve_affine_inconsistent_index_survives_row_swaps():
    # the reported index is the equation's position in the input, not after pivoting
    cases = [
        ([[0, 1], [1, 0], [1, 1]], [1, 1, 3], 2),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]], [1, 1, 1, 0], 3),
        ([[0, 1], [1, 1], [0, 2], [1, 0]], [1, 1, 3, 0], 2),
        ([[0, 0], [0, 1], [0, 2]], [0, 1, 1], 2),
        ([[0, 0], [1, 0]], [1, 0], 0),
        ([[0, 0], [1, 0], [0, 1]], [1, 0, 0], 0),
    ]
    for rows, rhs, index in cases:
        assert linalg.solve_affine(rows, rhs) == (None, index)


sparse_rows = st.dictionaries(st.integers(0, 5), entries.filter(bool), max_size=4)
generator_lists = st.lists(sparse_rows, min_size=1, max_size=6)


def _combine(gens, combo):
    """sum of combo[tag] * gens[tag] as a dict row without zeros."""
    total = {}
    for tag, c in combo.items():
        for k, v in gens[tag].items():
            total[k] = total.get(k, 0) + c * v
    return {k: v for k, v in total.items() if v != 0}


def _nonzero(row):
    return {k: Fraction(v) for k, v in row.items() if v != 0}


@PROPERTY
@given(generator_lists, st.lists(entries, min_size=6, max_size=6), sparse_rows)
def test_sparse_echelon_membership_rebuilds_its_target(gens, coeffs, other):
    ech = linalg.SparseEchelon()
    for tag, row in enumerate(gens):
        ech.insert(row, tag)
    member = _combine(gens, dict(enumerate(coeffs[: len(gens)])))
    for target in (member, other):
        combo = ech.membership(target)
        if combo is not None:
            assert _combine(gens, combo) == _nonzero(target)
    assert ech.membership(member) is not None


z2_units = st.sampled_from([1, -1, 3, Fraction(1, 3), Fraction(-5, 7)])
z2_scalars = st.sampled_from([0, 1, -1, 2, 3, 4, Fraction(1, 3), Fraction(6, 5)])


@PROPERTY
@given(generator_lists, st.lists(z2_scalars, min_size=6, max_size=6), sparse_rows)
def test_z2_lattice_contains_rebuilds_its_target_with_z2_coefficients(gens, coeffs, other):
    lattice = linalg.Z2Lattice(enumerate(gens))
    member = _combine(gens, dict(enumerate(coeffs[: len(gens)])))
    for target in (member, other):
        combo = lattice.contains(target)
        if combo is not None:
            assert all(in_z2(c) for c in combo.values())
            assert _combine(gens, combo) == _nonzero(target)
    assert lattice.contains(member) is not None



def test_z2_lattice_refuses_repeated_tags():
    # contains answers over tags, one coefficient per pivot's own tag: a
    # repeated tag would keep one of the two generators' coefficients
    with pytest.raises(ValueError, match="distinct"):
        linalg.Z2Lattice([("a", {0: 2}), ("a", {0: 2, 1: 4})])


@PROPERTY
@given(st.lists(entries, min_size=1, max_size=5), entries.filter(bool), z2_units)
def test_z2_lattice_in_one_column_is_decided_by_least_valuation(column, t, unit):
    lattice = linalg.Z2Lattice((i, {0: a}) for i, a in enumerate(column))
    nonzero = [a for a in column if a != 0]
    expect = bool(nonzero) and v2(Fraction(t)) >= min(v2(Fraction(a)) for a in nonzero)
    assert (lattice.contains({0: t}) is not None) == expect
    # a unit multiple of a generator is always inside
    if nonzero:
        assert lattice.contains({0: unit * nonzero[0]}) is not None


f2_rows = st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=4), max_size=8)


def _f2_sum(rows, combo):
    total = set()
    for i in combo:
        total ^= rows[i]
    return total


@PROPERTY
@given(f2_rows, st.frozensets(st.sampled_from("abcdefg"), max_size=4))
def test_f2_in_span_is_true_exactly_when_a_subset_sums_to_the_target(rows, target):
    sums = (
        _f2_sum(rows, subset)
        for size in range(len(rows) + 1)
        for subset in combinations(range(len(rows)), size)
    )
    assert linalg.f2_in_span(rows, target) == any(total == target for total in sums)
    # a row's own set and the empty sum are always in the span
    assert linalg.f2_in_span(rows, frozenset())
    for row in rows:
        assert linalg.f2_in_span(rows, row)


def _fraction_sub(row, lam, other):
    for k, v in other.items():
        nv = row.get(k, 0) - lam * v
        if nv == 0:
            row.pop(k, None)
        else:
            row[k] = nv


class _FractionZ2Lattice:
    """The Fraction elimination that `Z2Lattice` replaced, kept as its oracle.

    It rescans the whole pool for the least (valuation, column) entry at
    every step and divides by the pivot, so rows and combinations are
    Fractions.
    """

    def __init__(self, generators):
        pool = []
        for tag, row in generators:
            row = _nonzero(row)
            if row:
                pool.append((row, {tag: Fraction(1)}, tag))
        self.basis = []
        self.tags = []
        while pool:
            best = None
            for i, (row, _, _) in enumerate(pool):
                for pos, val in row.items():
                    key = (v2(val), pos)
                    if best is None or key < best[0]:
                        best = (key, i, pos)
            _, i, pos = best
            brow, bcombo, tag = pool.pop(i)
            piv = brow[pos]
            nxt = []
            for row, combo, rtag in pool:
                val = row.get(pos)
                if val is not None:
                    lam = val / piv
                    _fraction_sub(row, lam, brow)
                    _fraction_sub(combo, lam, bcombo)
                if row:
                    nxt.append((row, combo, rtag))
            pool = nxt
            self.basis.append((pos, brow, bcombo))
            self.tags.append(tag)

    def contains(self, target):
        t = _nonzero(target)
        coeffs = {}
        for pos, brow, bcombo in self.basis:
            val = t.get(pos)
            if val is None:
                continue
            lam = val / brow[pos]
            if v2(lam) < 0:
                return None
            _fraction_sub(t, lam, brow)
            _fraction_sub(coeffs, -lam, bcombo)
        if t:
            return None
        return coeffs


lattice_ints = st.sampled_from([1, -1, 2, -2, 3, 4, -6, 8, 12, -16, 24])
lattice_entries = st.one_of(
    lattice_ints,
    st.sampled_from([Fraction(1, 3), Fraction(-2, 5), Fraction(4, 7), Fraction(6, 15)]),
    st.sampled_from([Fraction(1, 2), Fraction(-3, 4), Fraction(5, 8), Fraction(1, 6)]),
)


@st.composite
def lattice_generators(draw):
    """Rows with int entries and, unless drawn integral, odd and even denominators.

    Unit multiples and doubles of earlier rows tie their (valuation, column)
    keys with those rows, so the earliest-row tie rule is exercised.
    """
    entry = lattice_ints if draw(st.booleans()) else lattice_entries
    row = st.dictionaries(st.integers(0, 5), entry, min_size=1, max_size=4)
    gens = draw(st.lists(row, min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        base = gens[draw(st.integers(0, len(gens) - 1))]
        lam = draw(st.sampled_from([-1, 3, Fraction(5, 3), 2, -4]))
        gens.append({k: lam * v for k, v in base.items()})
    return list(enumerate(draw(st.permutations(gens))))


def _assert_matches_the_fraction_elimination(gens, coeffs, other):
    lattice, oracle = linalg.Z2Lattice(gens), _FractionZ2Lattice(gens)
    rows = dict(gens)
    member = _combine(rows, dict(zip(rows, coeffs)))
    for target in (member, {k: v / 2 for k, v in member.items()}, other):
        got, want = lattice.contains(target), oracle.contains(target)
        # the same coefficients, of the same type, keyed in basis order
        assert (got is None) == (want is None)
        if got is not None:
            assert {k: (type(c), c) for k, c in got.items()} == {k: (type(c), c) for k, c in want.items()}
            assert list(got) == [tag for tag in oracle.tags if tag in got]
    assert [pos for pos, _ in lattice.basis] == [pos for pos, _, _ in oracle.basis]
    odd_denominators = all(v.denominator % 2 for _, row in gens for v in row.values())
    for (pos, row), (_, orow, _) in zip(lattice.basis, oracle.basis):
        unit = row[pos] / orow[pos]
        assert v2(unit) == 0
        assert row == {k: unit * v for k, v in orow.items()}
        # the elimination runs on ints: rows are ints when no denominator is even
        if odd_denominators:
            assert all(type(x) is int for x in row.values())


@PROPERTY
@given(lattice_generators(), st.lists(z2_scalars, min_size=10, max_size=10), sparse_rows)
def test_z2_lattice_matches_the_fraction_elimination(gens, coeffs, other):
    _assert_matches_the_fraction_elimination(gens, coeffs, other)


@st.composite
def tall_lattice_generators(draw):
    """12 to 16 integral rows on 4 to 6 columns; past the first 6 to 8, odd multiples of sums of others.

    With more rows than columns most rows are reduced several times before
    they pivot or vanish, and the odd multipliers give rows an odd content
    that the elimination divides out and the combinations must follow.
    """
    ncols = draw(st.integers(4, 6))
    row = st.dictionaries(st.integers(0, ncols - 1), lattice_ints, min_size=1, max_size=ncols)
    gens = draw(st.lists(row, min_size=6, max_size=8))
    size = draw(st.integers(12, 16))
    while len(gens) < size:
        lam, mu = draw(st.sampled_from([3, 5, -7, -9])), draw(st.sampled_from([0, 1, 2, -4]))
        a, b = gens[draw(st.integers(0, len(gens) - 1))], gens[draw(st.integers(0, len(gens) - 1))]
        gens.append({k: v for k in a.keys() | b.keys() if (v := lam * a.get(k, 0) + mu * b.get(k, 0))})
    return list(enumerate(draw(st.permutations(gens))))


@PROPERTY
@given(tall_lattice_generators(), st.lists(z2_scalars, min_size=16, max_size=16), sparse_rows)
def test_tall_z2_lattice_matches_the_fraction_elimination(gens, coeffs, other):
    _assert_matches_the_fraction_elimination(gens, coeffs, other)


def test_z2_lattice_of_hit_columns_matches_the_fraction_elimination():
    # the columns Jq^i(x^mu), |mu| = 7 - i, that decide hits in degree 7 over 3
    # variables: for every i, and for the powers of two that hit._columns keeps
    powers = hit._columns(3, 7, 7)
    assert {i for (i, _), _ in powers} == {1, 2}
    for gens in (full_columns(3, 7, 7), powers):
        coeffs = [(-1) ** t * (t % 5) for t in range(len(gens))]
        _assert_matches_the_fraction_elimination(gens, coeffs, {(3, 2, 2): 1, (7, 0, 0): 3})


def _fraction_gauss_jordan(mat, ncols):
    """Reduce the first ncols columns of Fraction rows in place; returns the pivot columns.

    The Fraction Gauss-Jordan that the dense integer core replaced, kept
    as the oracle of `nullspace` and `solve_affine`.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return pivots


def _fraction_rref(rows, ncols):
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = _fraction_gauss_jordan(mat, ncols)
    return mat[: len(pivots)], pivots


def _fraction_rank(rows):
    return len(_fraction_rref(rows, len(rows[0]) if rows else 0)[1])


def _fraction_nullspace(rows, ncols):
    """One vector per free column of the reduced echelon form."""
    red, pivots = _fraction_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            v = [Fraction(0)] * ncols
            v[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red[r][free]
            basis.append(v)
    return basis


def _fraction_solve_affine(rows, rhs):
    """The solution with free variables at zero, or None."""
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = _fraction_gauss_jordan(aug, ncols)
    if any(row[ncols] != 0 for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][ncols]
    return x


class _FractionSparseEchelon:
    """The Fraction `SparseEchelon` that the int elimination replaced, kept as its oracle."""

    def __init__(self):
        self.rows = {}

    def reduce(self, row):
        row = _nonzero(row)
        used = {}
        while row:
            p = min(row)
            entry = self.rows.get(p)
            if entry is None:
                break
            erow, ecombo = entry
            lam = row[p] / erow[p]
            _fraction_sub(row, lam, erow)
            _fraction_sub(used, -lam, ecombo)
        return row, used

    def insert(self, row, tag):
        residual, used = self.reduce(row)
        if not residual:
            return used
        combo = {tag: Fraction(1)}
        _fraction_sub(combo, 1, used)
        self.rows[min(residual)] = (residual, combo)
        return None

    def membership(self, row):
        residual, used = self.reduce(row)
        if residual:
            return None
        return used


def _typed(values):
    """Values with their types, so that 1 and Fraction(1) differ."""
    return [(type(x), x) for x in values]


def _same_coefficients(got, want):
    """Both None, or the same coefficients of the same type, keys compared as a set.

    The tags are inserted in increasing order, so got's keys, which come
    in the order the rows were stored, ascend.
    """
    assert (got is None) == (want is None)
    if got is not None:
        assert {k: (type(c), c) for k, c in got.items()} == {k: (type(c), c) for k, c in want.items()}
        assert list(got) == sorted(got)


# ints, Fractions with odd and even denominators, and large entries that make rows grow
oracle_entries = st.sampled_from(
    [0, 0, 0, 1, -1, 2, -4, 3, 12, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6),
     Fraction(-2, 3), Fraction(7, 5), Fraction(9, 8)]
)


@st.composite
def oracle_matrices(draw, max_rows=6, max_cols=6):
    """Int or Fraction rows, with repeated rows and combinations of earlier ones."""
    ncols = draw(st.integers(1, max_cols))
    entry = st.sampled_from([0, 0, 1, -1, 2, 3, -6]) if draw(st.booleans()) else oracle_entries
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=max_rows))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        lam = draw(oracle_entries)
        rows.append(list(rows[a]) if draw(st.booleans()) else [x + lam * y for x, y in zip(rows[a], rows[b])])
    return draw(st.permutations(rows)), ncols


@PROPERTY
@given(oracle_matrices(), st.lists(oracle_entries, min_size=10, max_size=10))
def test_nullspace_and_solve_affine_match_the_fraction_gauss_jordan(m, b):
    rows, ncols = m
    basis = linalg.nullspace(_columns(rows, ncols))
    assert [_typed(v) for v in basis] == [_typed(v) for v in _fraction_nullspace(rows, ncols)]
    # a drawn right-hand side, mostly inconsistent, and one that is always consistent
    for rhs in (b[: len(rows)] + [0] * (len(rows) - len(b)), _mul(rows, b[:ncols])):
        sol, bad = linalg.solve_affine(rows, rhs)
        want = _fraction_solve_affine(rows, rhs)
        assert (sol is None) == (want is None)
        if sol is not None:
            assert bad is None and _typed(sol) == _typed(want)
            continue
        # equations 0..bad-1 are consistent, and equation bad contradicts them
        aug = [list(r) + [c] for r, c in zip(rows, rhs)]
        assert _fraction_rank(aug[:bad]) == _fraction_rank(rows[:bad])
        assert _fraction_rank(aug[: bad + 1]) > _fraction_rank(rows[: bad + 1])


def test_nullspace_takes_columns_with_any_orderable_keys():
    # adem_nullspace passes grid columns keyed (monomial index, exponents)
    cols = [{(0, (1,)): 1, (1, (2,)): 2}, {(1, (2,)): 4}, {(0, (1,)): 3, (1, (2,)): 6}, {}]
    assert linalg.nullspace(cols) == [
        [Fraction(-3), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
    ]
    assert linalg.nullspace([]) == []


@st.composite
def echelon_rows(draw):
    """Tagged sparse rows of ints or Fractions, with repeats and multiples of earlier rows."""
    entry = st.sampled_from([1, -1, 2, 3, -6, 12]) if draw(st.booleans()) else oracle_entries.filter(bool)
    row = st.dictionaries(st.integers(0, 6), entry, max_size=5)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        base = rows[draw(st.integers(0, len(rows) - 1))]
        lam = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-5, 3)]))
        rows.append({k: lam * v for k, v in base.items()})
    return list(enumerate(draw(st.permutations(rows))))


@PROPERTY
@given(echelon_rows(), st.lists(oracle_entries, min_size=12, max_size=12), sparse_rows)
def test_sparse_echelon_matches_the_fraction_elimination(tagged, coeffs, other):
    ech, oracle = linalg.SparseEchelon(), _FractionSparseEchelon()
    for tag, row in tagged:
        # a row is stored exactly when the oracle stores it; a dependent
        # row's coefficients are asked for afterwards, as nullspace does
        used = oracle.insert(row, tag)
        assert ech.insert(row, tag) is (used is None)
        if used is not None:
            _same_coefficients(ech.membership(row), used)
    assert ech.rank == len(oracle.rows)
    assert list(ech.rows) == list(oracle.rows)
    rows = dict(tagged)
    member = _combine(rows, dict(zip(rows, coeffs)))
    for target in (member, {k: Fraction(v, 2) for k, v in member.items()}, other, {}):
        _same_coefficients(ech.membership(target), oracle.membership(target))
    for pos, (row, _) in ech.rows.items():
        orow, _ = oracle.rows[pos]
        # each stored row is an int multiple of the oracle's
        scale = Fraction(row[pos]) / orow[pos]
        assert row == {k: scale * v for k, v in orow.items()}
        assert all(type(x) is int for x in row.values())

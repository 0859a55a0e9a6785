"""Exact linear algebra: one elimination core per field.

Over Q, dense: `_gauss_jordan` is the one Gauss-Jordan loop, behind
`rref` (and so `nullspace` and `rank`) and `solve_affine`.  It records
where each row started, so an inconsistent system names the equation at
fault by its input index.

Over Q and Z_(2), sparse: rows are dicts keyed by orderable column ids,
and each row carries its combination over the tags of the original rows.
`_sub` is the one row operation, applied alike to rows and combinations.
`SparseEchelon` is incremental, on Fractions, and pivots on the least
column.  `Z2Lattice` works in batch, fraction-free on int rows, and
pivots on the least (2-adic valuation, column) over the whole pool, so
that every step is invertible over Z_(2) and the lattice is kept exactly.

Over F_2: `f2_row_nullspace`, an echelon on bitmasks.

Everything is Fraction or int arithmetic; nothing floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalar2 import v2, v2_int


# -- dense rational ---------------------------------------------------


def _gauss_jordan(mat, ncols):
    """Reduce the first ncols columns of mat in place.

    Returns (pivot columns, order), where order[i] is the original index
    of the row that ends at position i.
    """
    order = list(range(len(mat)))
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        order[r], order[pr] = order[pr], order[r]
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
    return pivots, order


def rref(rows):
    """Reduced row echelon form.  Returns (new rows, pivot column list)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    pivots, _ = _gauss_jordan(mat, len(mat[0]))
    return mat[: len(pivots)], pivots


def nullspace(rows, ncols):
    """Basis of {x : M x = 0} for M given by rows, one vector per free column."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def rank(rows):
    red, pivots = rref(rows)
    return len(pivots)


def primitive_integer(vec):
    """Scale a rational vector to coprime integers with positive first nonzero."""
    vec = [Fraction(x) for x in vec]
    mult = lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [int(x * mult) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def solve_affine(rows, rhs):
    """One solution of M x = rhs with free variables set to zero.

    Returns (solution list, None) or (None, index of the first inconsistent
    equation) when the system has no solution.
    """
    if not rows:
        return [], None
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots, order = _gauss_jordan(aug, ncols)
    for i in range(len(pivots), len(aug)):
        if aug[i][ncols] != 0:
            return None, order[i]
    x = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][ncols]
    return x, None


# -- sparse rows: dicts keyed by column, over Q and Z_(2) --------------


def _sub(row, lam, other):
    """row -= lam * other on dict rows, in place, dropping the zeros."""
    for k, v in other.items():
        nv = row.get(k, 0) - lam * v
        if nv == 0:
            row.pop(k, None)
        else:
            row[k] = nv


def _nonzero(row):
    return {k: Fraction(v) for k, v in row.items() if v != 0}


class SparseEchelon:
    """Incremental echelon form on sparse rows keyed by orderable column ids.

    Every stored row remembers how it was assembled from the inserted
    originals, so span membership can return explicit coefficients.
    """

    def __init__(self):
        self.rows = {}

    def reduce(self, row):
        """Reduce a dict row; returns (residual, combination over original tags)."""
        row = _nonzero(row)
        used = {}
        while row:
            p = min(row)
            entry = self.rows.get(p)
            if entry is None:
                break
            erow, ecombo = entry
            lam = row[p] / erow[p]
            _sub(row, lam, erow)
            _sub(used, -lam, ecombo)
        return row, used

    def insert(self, row, tag):
        """Add a row; returns True when it enlarged the span."""
        residual, used = self.reduce(row)
        if not residual:
            return False
        combo = {tag: Fraction(1)}
        _sub(combo, 1, used)
        self.rows[min(residual)] = (residual, combo)
        return True

    def membership(self, row):
        """Coefficients over inserted tags expressing row, or None."""
        residual, used = self.reduce(row)
        if residual:
            return None
        return used

    @property
    def rank(self):
        return len(self.rows)


# -- 2-adic lattices --------------------------------------------------


def _pivot_key(row):
    """Least (2-adic valuation, column) over the entries of a nonzero int row."""
    v = v2_int(gcd(*row.values()))
    return v, min(k for k, x in row.items() if x >> v & 1)


def _unit_sub(row, combo, u, a, brow, bcombo):
    """row <- u*row - a*brow for odd u, alike on the combinations, in place.

    Common odd factors are divided out, before the step from (u, a) and
    after it from the row and combination together, all units of Z_(2).
    """
    g = gcd(u, a)
    u, a = u // g, a // g
    if u < 0:
        u, a = -u, -a
    if u != 1:
        for k in row:
            row[k] *= u
        for k in combo:
            combo[k] *= u
    _sub(row, a, brow)
    _sub(combo, a, bcombo)
    if not row:
        return
    g = gcd(*row.values(), *combo.values())
    g >>= v2_int(g)
    if g != 1:
        for k in row:
            row[k] //= g
        for k in combo:
            combo[k] //= g


class Z2Lattice:
    """Span of generator rows over the 2-adic integers, with membership tests.

    Construction is fraction-free.  Rows are scaled once to ints: all by
    2^T, T the largest 2-adic valuation of a row's denominator lcm, and
    each by the odd part of its own lcm, which starts its combination.
    The pivot p = 2^v*u (u odd) is the entry of least (valuation, column),
    ties to the earliest row, read from a key each row caches and
    recomputes only when a step changes it.  Every other entry a in the
    pivot column has a >> v exact, and row <- u*row - (a >> v)*pivot row
    multiplies the row by a unit of Z_(2), as does dividing a row and its
    combination by the odd part of their gcd: lattice and pivot order are
    those of elimination over Fractions.

    `basis` lists (column, row, combination) in pivot order.  Each row is
    a unit multiple of the row elimination over Fractions gives, in the
    generators' own scale (ints when T = 0, as for integral rows); the
    combinations have int coefficients over the original tags.
    """

    def __init__(self, generators):
        rows = []
        for tag, row in generators:
            row = {k: v for k, v in row.items() if v != 0}
            if row:
                rows.append((tag, row, lcm(*(v.denominator for v in row.values()))))
        top = max((v2_int(den) for _, _, den in rows), default=0)
        pool = []
        for tag, row, den in rows:
            odd = den >> v2_int(den)
            scale = odd << top
            row = {k: v.numerator * (scale // v.denominator) for k, v in row.items()}
            pool.append([_pivot_key(row), row, {tag: odd}])
        self.basis = []
        while pool:
            i = min(range(len(pool)), key=lambda j: pool[j][0])
            (v, pos), brow, bcombo = pool.pop(i)
            unit = brow[pos] >> v
            for entry in pool:
                _, row, combo = entry
                a = row.get(pos)
                if a is not None:
                    _unit_sub(row, combo, unit, a >> v, brow, bcombo)
                    if row:
                        entry[0] = _pivot_key(row)
            pool = [entry for entry in pool if entry[1]]
            if top:
                brow = {k: Fraction(x, 1 << top) for k, x in brow.items()}
            self.basis.append((pos, brow, bcombo))

    def contains(self, target):
        """Z_2 coefficients over the original generator tags, or None.

        Works down the triangular basis on Fractions; a multiplier of
        negative valuation or a nonzero residual means the target is
        outside the lattice.  A unit multiple of a basis row and its
        combination divides the multiplier by the same unit, so the
        coefficients do not depend on that scaling.
        """
        t = _nonzero(target)
        coeffs = {}
        for pos, brow, bcombo in self.basis:
            val = t.get(pos)
            if val is None:
                continue
            lam = val / brow[pos]
            if v2(lam) < 0:
                return None
            _sub(t, lam, brow)
            _sub(coeffs, -lam, bcombo)
        if t:
            return None
        return coeffs


# -- F_2 --------------------------------------------------------------


def f2_row_nullspace(rows):
    """Left-kernel combinations of F_2 rows, each a set of sortable column keys.

    Columns are numbered in sorted key order.  Returns one list of row
    indices, ascending, per row that reduces to zero against the rows
    before it; each marks a subset of rows summing to zero.
    """
    index = {k: i for i, k in enumerate(sorted({k for row in rows for k in row}))}
    basis = {}
    null = []
    for i, keys in enumerate(rows):
        r = 0
        for k in keys:
            r |= 1 << index[k]
        combo = 1 << i
        while r:
            lead = r & -r
            if lead not in basis:
                basis[lead] = (r, combo)
                break
            br, bc = basis[lead]
            r ^= br
            combo ^= bc
        if r == 0:
            null.append([j for j in range(i + 1) if combo >> j & 1])
    return null

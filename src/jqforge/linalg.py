"""Exact linear algebra used by the solver modules.

Three flavours live here: dense rational row reduction for small symbolic
systems, sparse dict-keyed echelon forms with combination tracking for
evaluation matrices, and a valuation-aware triangular form for deciding
membership in lattices over the 2-adic integers.  Everything is Fraction
arithmetic; nothing floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalar2 import v2


# -- dense rational ---------------------------------------------------


def rref(rows):
    """Reduced row echelon form.  Returns (new rows, pivot column list)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
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
    return mat[:r], pivots


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
    # remember original row identity through the elimination
    order = list(range(len(aug)))
    r = 0
    pivots = []
    for c in range(ncols):
        pr = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        order[r], order[pr] = order[pr], order[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][ncols] != 0:
            return None, order[i]
    x = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][ncols]
    return x, None


# -- sparse echelon over Q --------------------------------------------


class SparseEchelon:
    """Incremental echelon form on sparse rows keyed by orderable column ids.

    Every stored row remembers how it was assembled from the inserted
    originals, so span membership can return explicit coefficients.
    """

    def __init__(self):
        self.rows = {}

    def reduce(self, row):
        """Reduce a dict row; returns (residual, combination over original tags)."""
        row = {k: Fraction(v) for k, v in row.items() if v != 0}
        used = {}
        while row:
            p = min(row)
            entry = self.rows.get(p)
            if entry is None:
                break
            erow, ecombo = entry
            lam = row[p] / erow[p]
            for k, v in erow.items():
                nv = row.get(k, Fraction(0)) - lam * v
                if nv == 0:
                    row.pop(k, None)
                else:
                    row[k] = nv
            for t, v in ecombo.items():
                nv = used.get(t, Fraction(0)) + lam * v
                if nv == 0:
                    used.pop(t, None)
                else:
                    used[t] = nv
        return row, used

    def insert(self, row, tag):
        """Add a row; returns True when it enlarged the span."""
        residual, used = self.reduce(row)
        if not residual:
            return False
        combo = {tag: Fraction(1)}
        for t, v in used.items():
            nv = combo.get(t, Fraction(0)) - v
            if nv == 0:
                combo.pop(t, None)
            else:
                combo[t] = nv
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


class Z2Lattice:
    """Span of generator rows over the 2-adic integers, with membership tests.

    Construction extracts a triangular basis using only transformations
    invertible over Z_2: at each step the entry of globally minimal
    valuation becomes a pivot, so elimination multipliers always have
    nonnegative valuation and the lattice is preserved exactly.
    """

    def __init__(self, generators):
        pool = []
        for tag, row in generators:
            row = {k: Fraction(v) for k, v in row.items() if v != 0}
            if row:
                pool.append((row, {tag: Fraction(1)}))
        self.basis = []
        while pool:
            best = None
            for i, (row, _) in enumerate(pool):
                for pos, val in row.items():
                    key = (v2(val), pos)
                    if best is None or key < best[0]:
                        best = (key, i, pos)
            _, i, pos = best
            brow, bcombo = pool.pop(i)
            piv = brow[pos]
            nxt = []
            for row, combo in pool:
                val = row.get(pos)
                if val is not None:
                    lam = val / piv
                    for k, v in brow.items():
                        nv = row.get(k, Fraction(0)) - lam * v
                        if nv == 0:
                            row.pop(k, None)
                        else:
                            row[k] = nv
                    for t, v in bcombo.items():
                        nv = combo.get(t, Fraction(0)) - lam * v
                        if nv == 0:
                            combo.pop(t, None)
                        else:
                            combo[t] = nv
                if row:
                    nxt.append((row, combo))
            pool = nxt
            self.basis.append((pos, brow, bcombo))

    def contains(self, target):
        """Z_2 coefficients over the original generator tags, or None.

        Works down the triangular basis; a multiplier of negative valuation
        or a nonzero residual means the target is outside the lattice.
        """
        t = {k: Fraction(v) for k, v in target.items() if v != 0}
        coeffs = {}
        for pos, brow, bcombo in self.basis:
            val = t.get(pos)
            if val is None:
                continue
            lam = val / brow[pos]
            if v2(lam) < 0:
                return None
            for k, v in brow.items():
                nv = t.get(k, Fraction(0)) - lam * v
                if nv == 0:
                    t.pop(k, None)
                else:
                    t[k] = nv
            for tag, v in bcombo.items():
                nv = coeffs.get(tag, Fraction(0)) + lam * v
                if nv == 0:
                    coeffs.pop(tag, None)
                else:
                    coeffs[tag] = nv
        if t:
            return None
        return coeffs


# -- F_2 rows as bitmasks ---------------------------------------------


def f2_row_nullspace(rows):
    """Left-kernel combinations of F_2 rows given as integer bitmasks.

    Returns a list of bitmasks over row indices; each marks a subset of
    rows XORing to zero.
    """
    basis = {}
    null = []
    for i, r in enumerate(rows):
        combo = 1 << i
        while r:
            lead = r & -r
            if lead not in basis:
                basis[lead] = (r, combo)
                combo = None
                break
            br, bc = basis[lead]
            r ^= br
            combo ^= bc
        if combo is not None and r == 0:
            null.append(combo)
    return null

"""Exact linear algebra: one elimination core per field.

Over Q and Z_(2) the eliminations run on ints, and every entry given
must be an int or a Fraction.  A row enters multiplied by the lcm of
its denominators, a nonzero multiple of itself, so its zero pattern, and
with it every pivot choice, is that of elimination over Fractions;
Fractions are built only for what is returned.

Rows are dicts keyed by orderable column ids.  `_step`, row <- u*row -
a*other with u and a in lowest terms, is the row operation of both
cores: `SparseEchelon` applies it alike to rows and to their
combinations over the tags of the original rows (`_scale_sub`),
`Z2Lattice` to rows alone, logging it (`_eliminate`).

Over Q: `SparseEchelon`, incremental, pivoting on the least column.  It
is the one rational core: `nullspace` of sparse columns, `solve_affine`
of dense equations (one at a time, so an inconsistent system names the
first equation that contradicts those before it), and span membership.

Over Z_(2): `Z2Lattice` works in batch and pivots on the least (2-adic
valuation, column) over the whole pool, so that every step is
invertible over Z_(2) and the lattice is kept exactly.  It keeps rows
and their logs alone: `contains` needs one combination, the weighted
sum of the pivots' combinations, and gets it by running the logs
backward from the last pivot to the first (the transposition principle).

Over F_2: `f2_row_nullspace`, an echelon on bitmasks.

Everything is Fraction or int arithmetic; nothing floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalar2 import scale_to_ints, v2, v2_int


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


def _step(row, u, a, brow):
    """row <- u*row - a*brow in place; returns the (u, a) applied.

    u and a are first divided by their gcd, and u made positive.
    """
    g = gcd(u, a)
    u, a = u // g, a // g
    if u < 0:
        u, a = -u, -a
    if u != 1:
        for k in row:
            row[k] *= u
    _sub(row, a, brow)
    return u, a


def _scale_sub(row, combo, u, a, brow, bcombo):
    """row <- u*row - a*brow by `_step`, alike on the combinations, in place.

    A row left nonzero is then divided, with its combination, by their
    common content.
    """
    u, a = _step(row, u, a, brow)
    if u != 1:
        for k in combo:
            combo[k] *= u
    _sub(combo, a, bcombo)
    if not row:
        return
    g = gcd(*row.values(), *combo.values())
    if g != 1:
        for k in row:
            row[k] //= g
        for k in combo:
            combo[k] //= g


# the tag under which `SparseEchelon.membership` carries its target
_TARGET = object()


def _solved(combo, tag):
    """A zero residual's combination solved for the row under tag, in Fractions."""
    s = combo.pop(tag)
    return {t: Fraction(-c, s) for t, c in combo.items()}


class SparseEchelon:
    """Incremental echelon form on sparse rows keyed by orderable column ids.

    Rows are kept as ints.  A row enters multiplied by the lcm of its
    denominators, with that lcm as its coefficient in its combination,
    and is reduced at its least column by row <- q*row - a*stored row,
    the combinations alike, each step divided by the common content of
    row and combination.  Every stored row is thereby a multiple of the
    row elimination over Fractions gives, and remembers how it was
    assembled from the inserted originals (whose tags must be distinct),
    so span membership can return explicit coefficients.
    """

    def __init__(self):
        self.rows = {}

    def reduce(self, row, tag=_TARGET):
        """Reduce a dict row; returns (residual, combination), both int dicts.

        The row enters the combination under tag, with its multiplier s:
        residual = sum of combination[t] * (the row tagged t) over tag and
        the inserted tags.
        """
        row, s = scale_to_ints(row)
        combo = {tag: s}
        while row:
            p = min(row)
            entry = self.rows.get(p)
            if entry is None:
                break
            erow, ecombo = entry
            _scale_sub(row, combo, erow[p], row[p], erow, ecombo)
        return row, combo

    def insert(self, row, tag):
        """Add a row; None when it enlarged the span, else what `membership` gives.

        A row that does not enlarge the span is not stored; its coefficients
        come from this one reduction.
        """
        residual, combo = self.reduce(row, tag)
        if not residual:
            return _solved(combo, tag)
        self.rows[min(residual)] = (residual, combo)
        return None

    def membership(self, row):
        """Fraction coefficients over inserted tags expressing row, or None."""
        residual, combo = self.reduce(row)
        return None if residual else _solved(combo, _TARGET)

    @property
    def rank(self):
        return len(self.rows)


def nullspace(columns):
    """Basis of the relations among sparse columns of ints and Fractions.

    One vector per column that is a combination of the columns before
    it, in column order: 1 at that column, minus the combination at the
    independent columns, 0 elsewhere, all Fractions.  This is the basis
    read off the reduced row echelon form, one vector per free column.
    """
    ech = SparseEchelon()
    basis = []
    for j, col in enumerate(columns):
        combo = ech.insert(col, j)
        if combo is None:
            continue
        v = [Fraction(0)] * len(columns)
        v[j] = Fraction(1)
        for t, c in combo.items():
            v[t] = -c
        basis.append(v)
    return basis


def primitive_integer(vec):
    """Scale a rational vector to coprime integers with positive first nonzero."""
    vec = [Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints)
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return [x // g for x in ints] if g else ints


def solve_affine(rows, rhs):
    """One solution of M x = rhs with free variables set to zero.

    M (given by rows, all of one length) and rhs, one entry per row, hold
    ints and Fractions.  Returns (solution list of Fractions, None), or
    (None, i) when the system has no solution: equation i is the first
    that contradicts the equations before it, so 0..i-1 have a solution
    and 0..i have none.

    The equations enter one `SparseEchelon` in order, the right-hand side
    as the last column; one whose residual lies in that column alone
    reads 0 = b.  Back-substitution with the free variables at zero then
    gives the solution the reduced echelon form gives.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} equations")
    if not rows:
        return [], None
    ncols = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"row {i} has {len(row)} entries, not {ncols}")
    ech = SparseEchelon()
    for i, (row, b) in enumerate(zip(rows, rhs)):
        ech.insert({**dict(enumerate(row)), ncols: b}, i)
        if ncols in ech.rows:
            return None, i
    x = [Fraction(0)] * ncols
    for p in sorted(ech.rows, reverse=True):
        row, _ = ech.rows[p]
        acc = row.get(ncols, 0) - sum(a * x[c] for c, a in row.items() if p < c < ncols)
        x[p] = Fraction(acc, row[p])
    return x, None


# -- 2-adic lattices --------------------------------------------------


def _pivot_key(row):
    """Least (2-adic valuation, column) over the entries of a nonzero int row."""
    v = v2_int(gcd(*row.values()))
    return v, min(k for k, x in row.items() if x >> v & 1)


def _eliminate(row, u, a, brow, log, j):
    """row <- (u*row - a*brow)/g in place, g the odd part of the result's content.

    A row left nonzero logs (u, a, j, g), with the (u, a) that `_step`
    applied and j the index of brow among the pivots, and gets its new
    pivot key back; a zero row gets None.
    """
    u, a = _step(row, u, a, brow)
    if not row:
        return None
    g = gcd(*row.values())
    v = v2_int(g)
    g >>= v
    if g != 1:
        for k in row:
            row[k] //= g
    log.append((u, a, j, g))
    return v, min(k for k, x in row.items() if x >> v & 1)


class Z2Lattice:
    """Span of generator rows over the 2-adic integers, with membership tests.

    Generators are (tag, dict row of ints and Fractions) pairs; their tags
    must be distinct (ValueError otherwise), for `contains` answers over
    tags.  Construction is fraction-free.  Rows are scaled once to ints:
    all by 2^T, T the largest 2-adic valuation of a row's denominator lcm,
    and each by s, the odd part of its own lcm.
    The pivot p = 2^v*u (u odd) is the entry of least (valuation, column),
    ties to the earliest row, read from a key each row caches and
    recomputes only when a step changes it.  Every other entry a in the
    pivot column has a >> v exact, and row <- u*row - (a >> v)*pivot row
    multiplies the row by a unit of Z_(2); so does dividing it by the odd
    part of its content.  Dividing by a power of 2 would not: it would
    move the (valuation, column) keys.  Lattice and pivot order are those
    of elimination over Fractions.

    Rows are eliminated alone, each logging its steps (`_eliminate`), and
    a row that becomes a pivot is kept as it stands, with its tag, s and
    log.  These define its combination C over the tags: s*[tag] at the
    start, then (u*C - a*C_j)/g for each logged step (u, a, j, g), C_j
    the combination of pivot j, an earlier one; C sums to the row as
    `basis` holds it.  The answers do not depend on this scale.
    Eliminating each row together with its combination, and dividing the
    pair by its joint content, would give every pivot's (row, C) times a
    unit of Z_(2), the same pivots in the same order, and multipliers
    divided by the same units: the same products multiplier * C, so the
    same coefficients from `contains`.

    `basis` lists (column, row) in pivot order.  Each row is a unit
    multiple of the row elimination over Fractions gives, in the
    generators' own scale (ints when T = 0, as for integral rows).
    """

    def __init__(self, generators):
        rows = [(tag, *scale_to_ints(row)) for tag, row in generators]
        if len({tag for tag, _, _ in rows}) != len(rows):
            raise ValueError("Z2Lattice generator tags must be distinct")
        rows = [(tag, row, den) for tag, row, den in rows if row]
        top = max((v2_int(den) for _, _, den in rows), default=0)
        pool = []
        for tag, row, den in rows:
            shift = top - v2_int(den)
            if shift:
                row = {k: x << shift for k, x in row.items()}
            pool.append([_pivot_key(row), row, [], tag, den >> v2_int(den)])
        self.basis = []
        self._origins = []
        while pool:
            i = min(range(len(pool)), key=lambda j: pool[j][0])
            (v, pos), brow, log, tag, s = pool.pop(i)
            unit = brow[pos] >> v
            for entry in pool:
                row = entry[1]
                a = row.get(pos)
                if a is not None:
                    entry[0] = _eliminate(row, unit, a >> v, brow, entry[2], len(self.basis))
            pool = [entry for entry in pool if entry[1]]
            if top:
                brow = {k: Fraction(x, 1 << top) for k, x in brow.items()}
            self.basis.append((pos, brow))
            self._origins.append((tag, s, log))

    def contains(self, target):
        """Z_2 coefficients over the original generator tags, or None.

        Works down the triangular basis on Fractions for a multiplier per
        pivot; one of negative valuation, or a nonzero residual, means the
        target is outside the lattice.  The multipliers then run back up
        the logs, from the last pivot to the first (the transposed
        elimination): a step (u, a, j, g) read backward divides the weight
        by g, takes a times it from pivot j's and multiplies it by u, and
        what reaches the start of the log, times s, is the coefficient of
        the pivot's tag.  The nonzero ones come in basis order.
        """
        t = _nonzero(target)
        weights = [0] * len(self.basis)
        for p, (pos, brow) in enumerate(self.basis):
            val = t.get(pos)
            if val is None:
                continue
            lam = val / brow[pos]
            if v2(lam) < 0:
                return None
            _sub(t, lam, brow)
            weights[p] = lam
        if t:
            return None
        coeffs = []
        for p in range(len(weights) - 1, -1, -1):
            w = weights[p]
            if not w:
                continue
            tag, s, log = self._origins[p]
            for u, a, j, g in reversed(log):
                w /= g
                weights[j] -= a * w
                w *= u
            coeffs.append((tag, w * s))
        return dict(reversed(coeffs))


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
            members = []
            while combo:
                low = combo & -combo
                members.append(low.bit_length() - 1)
                combo ^= low
            null.append(members)
    return null

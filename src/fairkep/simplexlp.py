"""Exact rational LP solving: a fraction-free two-phase simplex with Bland's
rule, and Carathéodory support reduction by elimination.

Both keep every row as Python ints, so no entry is ever a Fraction to
normalise.  The simplex eliminates with pivot · row − factor · pivot row
divided by the gcd of the result (Bareiss-style integer-preserving
elimination) over a full tableau.  The support reduction keeps a forward
echelon whose rows carry combinations over the basis columns only, and its
weights as ints over one common denominator.

It solves every master LP of lottery construction, whatever its size: there
exact tie-free optima and exact duals matter.  A master grows by columns
(priced packings, sort-order cuts of the Gini dual), so a solve may start
from the Tableau of the same LP's last optimal solve: only the new columns
are computed, as B⁻¹a off the columns that carry the basis inverse, and
phase 2 resumes from the kept basis with no rebuild and no phase 1.  A start
whose rows, right-hand sides or old columns differ from the LP's is refused,
and a resumed solve may end at another optimal vertex than a cold one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, itemgetter, mul
from typing import Hashable, Iterable, Optional, Sequence

from .core import FairkepError, integer_scaled


class LpInfeasible(FairkepError):
    pass


class LpUnbounded(FairkepError):
    pass


@dataclass
class LpResult:
    x: list[Fraction]
    objective: Fraction
    duals_ub: list[Fraction]
    duals_eq: list[Fraction]


class Tableau:
    """The optimal fraction-free tableau of an LP's last solve, kept to resume from.

    Created empty and passed to lp_solve_exact as `start`, it is filled by
    that solve; a later solve of the same LP grown by columns resumes from
    it and refills it.  tab holds the constraint rows, then the phase-2
    objective row; units[r] is the (column, sign) whose entries are row r's
    column of the basis inverse (its slack, or its artificial signed as the
    row was flipped), so its objective entry is row r's dual; lp is the LP
    as solved: (c, rows, b, number of <= rows, sorted free variables).
    """

    def __init__(self):
        self.tab: list[list[int]] = []
        self.basis: list[int] = []
        self.units: list[tuple[int, int]] = []
        self.lp: tuple = ()


def _eliminate(row: list[int], pivot_row: list[int], i: int) -> list[int]:
    """An integer multiple of row minus one of pivot_row, zero at entry i.

    The result is pivot_row[i] · row − row[i] · pivot_row divided by its gcd,
    so with pivot_row[i] > 0 it is a positive multiple of the exact update.
    """
    f, g = row[i], pivot_row[i]
    if not f:
        return row
    out = [g * a - f * b for a, b in zip(row, pivot_row)]
    k = gcd(*out)
    return [a // k for a in out] if k > 1 else out


def _simplex(tab: list[list[int]], basis: list[int], ncols: int) -> None:
    """Maximize in place over the columns j < ncols.

    tab[:-1] are the constraint rows [A | b | 0]; each is its actual row times
    a positive integer, its entry at its basic column.  tab[-1] is the
    objective row [z_j − c_j | objective | D], the actual reduced costs times
    its own denominator D > 0.  The constraint rows' 0 in that last slot lets
    _eliminate carry D along as one more entry.  Only signs and ratios within
    a row are read, so no division happens.

    Bland's rule: entering = smallest index with negative reduced cost,
    leaving = smallest basis index among min-ratio rows (b_i / a_i compared
    by cross-multiplying).  Terminates without cycling.
    """
    m = len(tab) - 1
    zrow = tab[-1]
    rhs = len(zrow) - 2
    while True:
        enter = next((j for j in range(ncols) if zrow[j] < 0), -1)
        if enter < 0:
            return
        leave, best_b, best_a = -1, 0, 1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                b = tab[i][rhs]
                lhs, cur = b * best_a, best_b * a
                if leave < 0 or lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            raise LpUnbounded("LP is unbounded")
        _pivot(tab, basis, leave, enter)
        zrow = tab[-1]


def _pivot(tab: list[list[int]], basis: list[int], leave: int, enter: int) -> None:
    """Make column enter basic in row leave, whose entry there is positive."""
    row = tab[leave]
    for i, other in enumerate(tab):
        if i != leave:
            tab[i] = _eliminate(other, row, enter)
    basis[leave] = enter


def _drive_out(tab: list[list[int]], basis: list[int], art0: int) -> None:
    """Pivot each basic artificial, at zero, onto a nonzero entry of a column < art0.

    An artificial with no such entry marks a redundant row and stays basic.
    """
    for i in range(len(basis)):
        if basis[i] >= art0:
            j = next((j for j in range(art0) if tab[i][j]), -1)
            if j >= 0:
                if tab[i][j] < 0:
                    tab[i] = [-a for a in tab[i]]
                _pivot(tab, basis, i, j)


def _splice(tab: list[list[int]], units: list[tuple[int, int]], at: int, count: int,
            parts: list[list], costs: Sequence = ()) -> list[list[int]]:
    """The rows of tab with count new columns spliced in before column at:
    B⁻¹a, and on the objective row D·(reduced cost) if costs are given.

    parts[r] is the LP's row r over the new columns, costs their cost
    coefficients.  A row's entry on a new column a is Σ_r sign_r ·
    row[col_r] · a_r over units, and the objective row's also less D·c_a;
    a row whose new entries are not all integers is scaled up to clear them.
    A row with one nonzero multiplier row[col_r] (every row of a cold build)
    is part r scaled.  With costs, tab's last row is the objective row.
    """
    live = [r for r, part in enumerate(parts) if any(part)]
    signed = [[units[r][1] * a for a in parts[r]] for r in live]
    by_column = list(zip(*signed))
    cols = [units[r][0] for r in live]
    take = itemgetter(*cols) if len(cols) > 1 else lambda row: tuple(row[j] for j in cols)
    ints = set(map(type, chain(costs, *signed))) <= {int}
    zero = [0] * count
    out = []
    for i, row in enumerate(tab):
        g = take(row)
        zeros = g.count(0)
        if zeros == len(g):
            new = zero
        elif zeros == len(g) - 1:  # one multiplier, as in every row of a cold build
            t = next(t for t, v in enumerate(g) if v)
            new = [g[t] * a for a in signed[t]]
        else:
            new = [sum(map(mul, g, column)) for column in by_column]
        if costs and i == len(tab) - 1:
            d = row[-1]
            new = [v - d * cj for v, cj in zip(new, costs)]
        if not ints:
            k = lcm(*(v.denominator for v in new))
            if k > 1:
                row = [k * a for a in row]
            new = [v.numerator * (k // v.denominator) for v in new]
        out.append(row[:at] + new + row[at:])
    return out


def _exact(values: Iterable) -> list:
    """The values as a list, ints as they are and anything else as a Fraction."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values
    return [v if type(v) is int else Fraction(v) for v in values]


def lp_solve_exact(
    c: Sequence,
    A_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    A_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    free_vars: Sequence[int] = (),
    start: Optional[Tableau] = None,
) -> LpResult:
    """Maximize c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq, x >= 0.

    Variables listed in free_vars are unrestricted in sign (internally split).
    Returns an optimal basic solution with exact duals: duals_ub[i] >= 0 for
    the i-th <= row and duals_eq[i] of either sign for the i-th = row, with
    A_ubᵀ duals_ub + A_eqᵀ duals_eq >= c (equal on free variables) and
    b_ub · duals_ub + b_eq · duals_eq == objective.

    Two-phase simplex under Bland's rule on a fraction-free tableau: each row
    is kept as ints times one positive row denominator and updated by
    _eliminate.  Rows with a negative right-hand side are negated, and only
    those and the = rows get an artificial column.  The duals are read off the
    final objective row: a <= row's dual is the reduced cost of its slack
    column; an = row's is that of its artificial column, negated if the row
    was negated.  Ints among the entries stay ints; anything else becomes a
    Fraction.  Raises LpInfeasible or LpUnbounded.

    start, a Tableau, makes the solve resumable.  Empty, it is filled with
    this solve's optimal tableau.  Filled by an earlier solve, it must hold
    this LP less some columns: the same rows, in order, with the same
    right-hand sides, and its columns, costs and free variables the LP's
    with new ones, not free, inserted at one place (else ValueError).  The
    new columns are spliced into the kept tableau (_splice), and primal
    simplex resumes from the kept basis, which stays feasible, without a
    rebuild or phase 1; start is refilled.  A resumed solve may reach another
    optimal vertex than a cold one.  A solve that raises leaves start as it
    was.
    """
    c = list(c)
    rows = [list(r) for r in (*A_ub, *A_eq)]
    b = list((*b_ub, *b_eq))
    free = sorted(set(free_vars))
    lp = (c, rows, b, len(A_ub), free)
    if start is not None and start.tab:
        tab, basis, units = _resume(start, lp)
    else:
        tab, basis, units = _cold(lp)
    n, ext = len(c), len(c) + len(free)

    zero = Fraction(0)
    xext = [zero] * ext
    for i, bi in enumerate(basis):
        if bi < ext and tab[i][-2]:
            xext[bi] = Fraction(tab[i][-2], tab[i][bi])
    x = xext[:n]
    for k, v in enumerate(free):
        x[v] -= xext[n + k]
    zrow = tab[-1]
    objective = Fraction(zrow[-2], zrow[-1])
    duals = [Fraction(sign * zrow[j], zrow[-1]) if zrow[j] else zero for j, sign in units]
    if start is not None:
        start.tab, start.basis, start.units, start.lp = tab, basis, units, lp
    nslack = len(A_ub)
    return LpResult(x=x, objective=objective, duals_ub=duals[:nslack], duals_eq=duals[nslack:])


def _cold(lp: tuple) -> tuple[list[list[int]], list[int], list[tuple[int, int]]]:
    """Two-phase simplex from the slack basis: (tableau, basis, units)."""
    c, rows, b, nslack, free = lp
    c, b, rows = _exact(c), _exact(b), [_exact(r) for r in rows]
    m = len(rows)
    ext = len(c) + len(free)
    cx = c + [-c[v] for v in free]
    parts = [r + [-r[v] for v in free] for r in rows]
    art0 = ext + nslack
    nart = sum(1 for i, bi in enumerate(b) if i >= nslack or bi < 0)
    total = art0 + nart

    # rows [slack | artificial | rhs | 0], each scaled to clear the
    # denominators of its LP row and negated if its rhs is negative; the
    # LP's columns then enter through _splice as B⁻¹a, B the scaling
    tab: list[list[int]] = []
    basis: list[int] = []
    units: list[tuple[int, int]] = []
    si, ai = 0, nslack
    for i, (part, bi) in enumerate(zip(parts, b)):
        flip = -1 if bi < 0 else 1
        d = lcm(bi.denominator, *map(attrgetter("denominator"), part))
        row = [0] * (nslack + nart) + [flip * (d * bi).numerator, 0]
        if i < nslack:
            row[si] = flip * d
            units.append((si, 1))
            si += 1
        if i >= nslack or flip < 0:
            row[ai] = d
            if i >= nslack:
                units.append((ai, flip))
            basis.append(ai)
            ai += 1
        else:
            basis.append(si - 1)
        tab.append(row)
    tab = _splice(tab, units, 0, ext, parts)
    basis = [bi + ext for bi in basis]
    units = [(col + ext, sign) for col, sign in units]

    # phase 1: maximize -sum(artificials), reduced costs over the artificial rows
    starts = [i for i in range(m) if basis[i] >= art0]
    if starts:
        d1 = lcm(*(tab[i][basis[i]] for i in starts))
        z1 = [0] * (total + 1) + [d1]
        for i in starts:
            f = d1 // tab[i][basis[i]]
            z1 = [z - f * a for z, a in zip(z1, tab[i])]
        for i in starts:
            z1[basis[i]] = 0
        tab.append(z1)
        _simplex(tab, basis, art0)  # artificials never re-enter
        if tab.pop()[-2] < 0:
            raise LpInfeasible("LP infeasible")
        _drive_out(tab, basis, art0)

    # phase 2: reduced costs c_B B^-1 A - c over the final phase-1 basis
    cfull = cx + [0] * (nslack + nart)
    weights = [(Fraction(cfull[bi], tab[i][bi]), i) for i, bi in enumerate(basis) if cfull[bi]]
    ints, d2 = integer_scaled(cx + [w for w, _ in weights])
    z2 = [-a for a in ints[:ext]] + [0] * (nslack + nart + 1) + [d2]
    for f, (_, i) in zip(ints[ext:], weights):
        z2 = [z + f * a for z, a in zip(z2, tab[i])]
    tab.append(z2)
    _simplex(tab, basis, art0)
    return tab, basis, units


def _resume(start: Tableau, lp: tuple) -> tuple[list[list[int]], list[int], list[tuple[int, int]]]:
    """Phase 2 from start's basis over the LP start solved plus new columns."""
    c, rows, b, nslack, free = lp
    c0, rows0, b0, nslack0, free0 = start.lp
    n0, n = len(c0), len(c)
    if nslack != nslack0 or len(rows) != len(rows0) or b != b0 or n < n0:
        raise ValueError("start solved other rows or right-hand sides")
    # a column is its cost, entries and freedom; the new ones sit at
    # [p, p + k), p the longest common prefix of old and new columns
    lines = [(c, c0), *zip(rows, rows0)]
    if free or free0:
        lines.append(([j in free for j in range(n)], [j in free0 for j in range(n0)]))
    p = n0
    for new, old in lines:
        if new[:p] != old[:p]:
            p = next(j for j in range(p) if new[j] != old[j])
    k = n - n0
    if any(new[p + k:] != old[p:] for new, old in lines):
        raise ValueError("start's columns are not this LP's columns less new ones")
    if any(p <= v < p + k for v in free):
        raise ValueError("a new column must not be free")
    # the new columns enter before column p; the old ones from p on, the
    # split copies of the free variables and the slacks move right by k
    parts = [_exact(r[p:p + k]) for r in rows]
    tab = _splice(start.tab, start.units, p, k, parts, _exact(c[p:p + k]))
    basis = [j + k * (j >= p) for j in start.basis]
    units = [(j + k * (j >= p), sign) for j, sign in start.units]
    art0 = n + len(free) + nslack
    _drive_out(tab, basis, art0)
    _simplex(tab, basis, art0)
    return tab, basis, units


def caratheodory(
    covers: Sequence[Iterable[Hashable]], weights: Sequence
) -> list[Fraction]:
    """Nonnegative weights with the same coverage and total, on independent columns.

    Column j covers the rows in covers[j] and carries weights[j] >= 0.  The
    returned weights give every row the same total (Σ_j w_j [r in covers[j]])
    and sum to the same value, and the columns left with positive weight are
    linearly independent as coverage vectors extended by the all-ones row, so
    there are at most 1 + (number of distinct rows) of them.

    Exact elimination over ints: the columns enter, in order, a forward echelon
    of rows [vector | the same vector as a combination of the basis columns],
    one row per basis column and each zero at the pivots of the rows before it,
    so a new pivot leaves the other rows as they are.  A column that reduces to
    zero yields the null combination d of the basis and itself, unique up to a
    positive scale as the basis is independent; mass shifts along -d until a
    weight hits zero (the first in column order, the new column winning ties).
    If that is the new column it is dropped; otherwise it takes the zeroed
    column's slot, and each row whose combination names the zeroed column is
    rewritten through d, its vector scaled by d[out] > 0 so its pivot stays.
    The weights are ints over one common denominator until they return.  Rows
    equal on every column are multiples of the all-ones row and are skipped, as
    are repeats of another row.
    """
    if len(covers) != len(weights):
        raise ValueError("covers and weights must have the same length")
    w = [Fraction(x) for x in weights]
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    cols = [j for j, x in enumerate(w) if x > 0]
    masks: dict[Hashable, int] = {}
    for j in cols:
        for r in set(covers[j]):
            masks[r] = masks.get(r, 0) | (1 << j)
    full = sum(1 << j for j in cols)
    patterns = [full] + sorted({m for m in masks.values() if m != full})
    m = len(patterns)
    den = lcm(*(x.denominator for x in w))
    mass = [x.numerator * (den // x.denominator) for x in w]  # w_j · den
    slots: list[int] = []  # the basis columns; row entry m + i is slots[i]'s
    basis: list[tuple[int, list[int]]] = []  # (pivot, row) in insertion order
    for j in cols:
        k = len(slots)
        row = [mask >> j & 1 for mask in patterns] + [0] * k + [1]
        for p, b in basis:
            f = row[p]
            if f:
                g = b[p]
                row = [g * x - f * y for x, y in zip(row, b)] + [g * x for x in row[len(b):]]
        h = gcd(*row)
        if h > 1:
            row = [x // h for x in row]
        pivot = next((i for i in range(m) if row[i]), None)
        if pivot is not None:
            basis.append((pivot, row))
            slots.append(j)
            continue
        # Σ_i d_i · column slots[i] + d_k · column j = 0; shift mass along -d (d_k > 0)
        d = row[m:] if row[-1] > 0 else [-x for x in row[m:]]
        named = sorted((c, i) for i, c in enumerate(slots) if d[i]) + [(j, k)]
        out, s = j, k
        for c, i in named:
            if d[i] > 0 and mass[c] * d[s] < mass[out] * d[i]:
                out, s = c, i
        w_out, d_out = mass[out], d[s]
        mass = [x * d_out for x in mass]
        for c, i in named:
            mass[c] -= w_out * d[i]
        den *= d_out
        h = gcd(den, *mass)
        den //= h
        mass = [x // h for x in mass]
        if out == j:
            continue
        at = m + s
        for r, (p, b) in enumerate(basis):
            f = b[at] if at < len(b) else 0
            if f:
                comb = b[m:] + [0] * (m + k + 1 - len(b))
                b = [d_out * x for x in b[:m]] + [d_out * x - f * y for x, y in zip(comb, d)]
                b[at] = b.pop()
                h = gcd(*b)
                basis[r] = (p, [x // h for x in b] if h > 1 else b)
        slots[s] = j
    return [Fraction(x, den) for x in mass]

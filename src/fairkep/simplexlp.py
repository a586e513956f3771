"""Exact rational LP solving: a fraction-free two-phase simplex with Bland's
rule, and Carathéodory support reduction by elimination.

Both keep every row as Python ints and eliminate with one shared step,
pivot · row − factor · pivot row divided by the gcd of the result (Bareiss-style
integer-preserving elimination), so no entry is ever a Fraction to normalise.

It solves every master LP of lottery construction, whatever its size: there
exact tie-free optima and exact duals matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Sequence

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


def lp_solve_exact(
    c: Sequence,
    A_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    A_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    free_vars: Sequence[int] = (),
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
    was negated.  Raises LpInfeasible or LpUnbounded.
    """
    c = [Fraction(v) for v in c]
    n = len(c)
    free = sorted(set(free_vars))
    # split free variables: x_i = x_i+ - x_i-
    ext = n + len(free)
    cx = c + [-c[v] for v in free]
    constraints = []  # (coefficients over the ext columns, rhs, is an = row)
    for rows, rhs, is_eq in ((A_ub, b_ub, False), (A_eq, b_eq, True)):
        for r, b in zip(rows, rhs):
            r = [Fraction(v) for v in r]
            constraints.append((r + [-r[v] for v in free], Fraction(b), is_eq))
    m = len(constraints)
    nslack = sum(1 for *_, is_eq in constraints if not is_eq)
    art0 = ext + nslack
    nart = sum(1 for _, b, is_eq in constraints if is_eq or b < 0)
    total = art0 + nart

    # constraint rows [coefficients | slack | artificial | rhs | 0], rhs >= 0
    tab: list[list[int]] = []
    basis: list[int] = []
    dual_of: list[tuple[int, int]] = []  # (column, sign): dual = sign · its reduced cost
    si, ai = ext, art0
    for r, b, is_eq in constraints:
        flip = b < 0
        ints, d = integer_scaled([-v for v in r] + [-b] if flip else r + [b])
        row = ints[:-1] + [0] * (nslack + nart) + [ints[-1], 0]
        if not is_eq:
            row[si] = -d if flip else d
            dual_of.append((si, 1))
            si += 1
        if is_eq or flip:
            row[ai] = d
            if is_eq:
                dual_of.append((ai, -1 if flip else 1))
            basis.append(ai)
            ai += 1
        else:
            basis.append(si - 1)
        tab.append(row)

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
        # drive artificials left at zero out of the basis; an artificial with
        # no nonzero entry to its left marks a redundant row and stays basic
        for i in range(m):
            if basis[i] >= art0:
                j = next((j for j in range(art0) if tab[i][j]), -1)
                if j >= 0:
                    if tab[i][j] < 0:
                        tab[i] = [-a for a in tab[i]]
                    _pivot(tab, basis, i, j)

    # phase 2: reduced costs c_B B^-1 A - c over the final phase-1 basis
    cfull = cx + [Fraction(0)] * (nslack + nart)
    weights = [(cfull[b] / tab[i][b], i) for i, b in enumerate(basis) if cfull[b]]
    ints, d2 = integer_scaled(cx + [w for w, _ in weights])
    z2 = [-a for a in ints[:ext]] + [0] * (nslack + nart + 1) + [d2]
    for f, (_, i) in zip(ints[ext:], weights):
        z2 = [z + f * a for z, a in zip(z2, tab[i])]
    tab.append(z2)
    _simplex(tab, basis, art0)

    xext = [Fraction(0)] * ext
    for i, b in enumerate(basis):
        if b < ext:
            xext[b] = Fraction(tab[i][-2], tab[i][b])
    x = xext[:n]
    for k, v in enumerate(free):
        x[v] -= xext[n + k]
    objective = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))

    zrow = tab[-1]
    duals = [Fraction(sign * zrow[j], zrow[-1]) for j, sign in dual_of]
    return LpResult(x=x, objective=objective, duals_ub=duals[:nslack], duals_eq=duals[nslack:])


def caratheodory(
    covers: Sequence[Iterable[Hashable]], weights: Sequence
) -> list[Fraction]:
    """Nonnegative weights with the same coverage and total, on independent columns.

    Column j covers the rows in covers[j] and carries weights[j] >= 0.  The
    returned weights give every row the same total (Σ_j w_j [r in covers[j]])
    and sum to the same value, and the columns left with positive weight are
    linearly independent as coverage vectors extended by the all-ones row, so
    there are at most 1 + (number of distinct rows) of them.

    Exact elimination: the columns enter, in order, an incremental reduced
    echelon basis of integer rows [vector | the same vector as a combination
    of columns].  A column that reduces to zero yields a null combination d;
    mass shifts along -d until a weight hits zero.  If that is the new column
    it is dropped; otherwise the zeroed column is eliminated from every row's
    combination, which exchanges it for the new column and keeps the echelon
    vectors.  Rows equal on every column are multiples of the all-ones row and
    are skipped, as are repeats of another row.
    """
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
    basis: list[tuple[int, list[int]]] = []  # (pivot, row); rows are 0 at other pivots
    for j in cols:
        row = [mask >> j & 1 for mask in patterns] + [0] * len(w)
        row[m + j] = 1
        for p, b in basis:
            row = _eliminate(row, b, p)
        pivot = next((i for i in range(m) if row[i]), None)
        if pivot is not None:
            basis = [(p, _eliminate(b, row, pivot)) for p, b in basis]
            basis.append((pivot, row))
            continue
        # Σ_c d_c · column c = 0 with d = row[m:]; shift mass along -d (d_j > 0)
        d = row[m:] if row[m + j] > 0 else [-x for x in row[m:]]
        out = j
        for c in cols:
            if d[c] > 0 and w[c] * d[out] < w[out] * d[c]:
                out = c
        t = w[out] / d[out]
        for c in cols:
            if d[c]:
                w[c] -= t * d[c]
        if out != j:
            basis = [(p, _eliminate(b, row, m + out)) for p, b in basis]
    return w


"""Exact rational LP solving: dense two-phase simplex with Bland's rule, and
Carathéodory support reduction by elimination.

Intended for the small systems that arise in lottery construction, where exact
tie-free optima and exact duals matter. Large systems go through scipy instead
(see fair.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Hashable, Iterable, Optional, Sequence

from .core import FairkepError


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


def _simplex(tab: list[list[Fraction]], basis: list[int], ncols: int) -> None:
    """Maximize in place; objective row is tab[-1] holding reduced costs (z_j - c_j).

    Bland's rule: entering = smallest index with negative reduced cost, leaving =
    smallest basis index among min-ratio rows. Terminates without cycling.
    """
    m = len(tab) - 1
    zrow = tab[-1]
    while True:
        enter = -1
        for j in range(ncols):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise LpUnbounded("LP is unbounded")
        piv = tab[leave][enter]
        row = tab[leave]
        if piv != 1:
            for j in range(len(row)):
                row[j] /= piv
        for i in range(m + 1):
            if i == leave:
                continue
            f = tab[i][enter]
            if f != 0:
                ri = tab[i]
                for j in range(len(row)):
                    ri[j] -= f * row[j]
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
    Returns an optimal basic solution with exact duals (duals_ub <= constraints
    in order, then duals_eq).
    """
    c = [Fraction(v) for v in c]
    n = len(c)
    free = sorted(set(free_vars))
    # split free variables: x_i = x_i+ - x_i-
    ext = n + len(free)
    neg_col = {v: n + k for k, v in enumerate(free)}

    def extend_row(row):
        row = [Fraction(v) for v in row]
        return row + [-row[v] for v in free]

    cx = c + [-c[v] for v in free]
    rows_ub = [extend_row(r) for r in A_ub]
    rows_eq = [extend_row(r) for r in A_eq]
    b_ub = [Fraction(v) for v in b_ub]
    b_eq = [Fraction(v) for v in b_eq]
    # normalize rhs to be nonnegative
    constraints = []  # (coeffs, rhs, kind) with kind "ub" or "eq", original index
    for i, (r, b) in enumerate(zip(rows_ub, b_ub)):
        constraints.append((r, b, "ub", i, 1))
    for i, (r, b) in enumerate(zip(rows_eq, b_eq)):
        constraints.append((r, b, "eq", i, 1))
    m = len(constraints)

    nslack = sum(1 for _, _, kind, _, _ in constraints if kind == "ub")
    total = ext + nslack + m  # + artificials (one per row, only used where needed)
    art0 = ext + nslack
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    slack_col_of: dict[int, int] = {}
    si = 0
    zero = Fraction(0)
    for ci, (r, b, kind, orig, sign) in enumerate(constraints):
        flip = b < 0
        coeffs = [-v if flip else v for v in r]
        rhs = -b if flip else b
        row = coeffs + [zero] * (nslack + m) + [rhs]
        if kind == "ub":
            row[ext + si] = Fraction(-1) if flip else Fraction(1)
            slack_col_of[ci] = ext + si
            si += 1
        if kind == "eq" or flip:
            # needs an artificial to start
            row[art0 + ci] = Fraction(1)
            basis.append(art0 + ci)
        else:
            basis.append(slack_col_of[ci])
        tab.append(row)

    # phase 1: minimize sum of artificials (maximize negative sum)
    zrow = [zero] * (total + 1)
    for i, b in enumerate(basis):
        if b >= art0:
            for j in range(total + 1):
                zrow[j] += tab[i][j]
    # reduced costs for maximizing -sum(artificials): z_j - c_j with c = -1 on artificials
    z1 = [-v for v in zrow]
    for j in range(art0, total):
        z1[j] += 1
    z1[-1] = -zrow[-1]
    tab.append(z1)
    _simplex(tab, basis, art0)  # artificials never re-enter
    if tab[-1][-1] < 0:
        raise LpInfeasible("LP infeasible")
    # drive any remaining artificials out of the basis (degenerate rows)
    for i in range(m):
        if basis[i] >= art0:
            pivoted = False
            for j in range(art0):
                if tab[i][j] != 0:
                    piv = tab[i][j]
                    for k in range(total + 1):
                        tab[i][k] /= piv
                    for r in range(m + 1):
                        if r != i and tab[r][j] != 0:
                            f = tab[r][j]
                            for k in range(total + 1):
                                tab[r][k] -= f * tab[i][k]
                    basis[i] = j
                    pivoted = True
                    break
            if not pivoted:
                # redundant row; keep artificial at zero, it will stay basic
                pass
    tab.pop()

    # phase 2
    cfull = cx + [zero] * (nslack + m)
    z2 = [zero] * (total + 1)
    for i, b in enumerate(basis):
        cb = cfull[b]
        if cb != 0:
            for j in range(total + 1):
                z2[j] += cb * tab[i][j]
    for j in range(total):
        z2[j] -= cfull[j]
    # forbid artificials from re-entering
    for j in range(art0, total):
        if z2[j] < 0:
            z2[j] = Fraction(1)
    tab.append(z2)
    _simplex(tab, basis, art0)

    xext = [zero] * ext
    for i, b in enumerate(basis):
        if b < ext:
            xext[b] = tab[i][-1]
    x = xext[:n]
    for v in free:
        x[v] -= xext[neg_col[v]]
    objective = sum((ci * xi for ci, xi in zip(c, x)), zero)

    # duals: solve y^T B = c_B over the working basis
    duals = _recover_duals(constraints, basis, cfull, ext, nslack, art0, slack_col_of, m)
    duals_ub = [zero] * len(b_ub)
    duals_eq = [zero] * len(b_eq)
    for ci, (r, b, kind, orig, sign) in enumerate(constraints):
        if kind == "ub":
            duals_ub[orig] = duals[ci]
        else:
            duals_eq[orig] = duals[ci]
    return LpResult(x=x, objective=objective, duals_ub=duals_ub, duals_eq=duals_eq)


def _recover_duals(constraints, basis, cfull, ext, nslack, art0, slack_col_of, m):
    """Solve y^T B = c_B exactly by Gaussian elimination on the basis columns."""
    zero = Fraction(0)

    def column(col):
        out = []
        for ci, (r, b, kind, orig, sign) in enumerate(constraints):
            flip = b < 0
            if col < ext:
                v = r[col]
                out.append(-v if flip else v)
            elif col < art0:
                v = Fraction(1) if col == slack_col_of.get(ci) else zero
                out.append(v if not (b < 0) else v)  # slack sign folded in at build
            else:
                out.append(Fraction(1) if col - art0 == ci else zero)
        # slack sign for flipped ub rows was set to -1 in the tableau build
        if ext <= col < art0:
            for ci, (r, b, kind, orig, sign) in enumerate(constraints):
                if col == slack_col_of.get(ci) and b < 0:
                    out[ci] = Fraction(-1)
        return out

    # build m x m system B^T y = c_B
    mat = [[zero] * m + [cfull[basis[i]]] for i in range(m)]
    for i in range(m):
        col = column(basis[i])
        for j in range(m):
            mat[i][j] = col[j]
    # gaussian elimination
    y = [zero] * m
    rows = mat
    piv_of_col = [-1] * m
    r = 0
    for cidx in range(m):
        sel = -1
        for i in range(r, m):
            if rows[i][cidx] != 0:
                sel = i
                break
        if sel < 0:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][cidx]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][cidx] != 0:
                f = rows[i][cidx]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_of_col[cidx] = r
        r += 1
    for cidx in range(m):
        if piv_of_col[cidx] >= 0:
            y[cidx] = rows[piv_of_col[cidx]][-1]
    # undo the rhs sign flips applied when building the tableau
    out = []
    for ci, (rr, b, kind, orig, sign) in enumerate(constraints):
        out.append(-y[ci] if b < 0 else y[ci])
    return out


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


def _eliminate(row: list[int], pivot_row: list[int], i: int) -> list[int]:
    """An integer multiple of row minus one of pivot_row, zero at entry i."""
    f, g = row[i], pivot_row[i]
    if not f:
        return row
    out = [g * a - f * b for a, b in zip(row, pivot_row)]
    k = gcd(*out)
    return [a // k for a in out] if k > 1 else out

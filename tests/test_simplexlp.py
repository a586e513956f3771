"""Exact rational simplex (optima, duals, infeasibility/unboundedness) and the
Carathéodory support reduction."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fairkep.simplexlp import LpInfeasible, LpUnbounded, caratheodory, lp_solve_exact
from helpers import rank

F = Fraction


class TestSmall:
    def test_basic_maximize(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6
        res = lp_solve_exact([1, 1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
        assert res.objective == F(14, 5)
        assert res.x == [F(8, 5), F(6, 5)]

    def test_equality_and_free_variable(self):
        # max y s.t. x + y = 1, y - x <= 0, x free
        res = lp_solve_exact(
            [0, 1], A_ub=[[-1, 1]], b_ub=[0], A_eq=[[1, 1]], b_eq=[1], free_vars=[0]
        )
        assert res.objective == F(1, 2)

    def test_infeasible(self):
        with pytest.raises(LpInfeasible):
            lp_solve_exact([1], A_ub=[[1], [-1]], b_ub=[F(-1), F(-1)])

    def test_unbounded(self):
        with pytest.raises(LpUnbounded):
            lp_solve_exact([1], A_ub=[[-1]], b_ub=[0])

    def test_degenerate_ties_terminate(self):
        # many redundant constraints through the same vertex (Bland's rule must
        # not cycle)
        A = [[1, 1], [2, 2], [3, 3], [1, 0], [0, 1]]
        b = [2, 4, 6, 1, 1]
        res = lp_solve_exact([1, 1], A_ub=A, b_ub=b)
        assert res.objective == 2

    def test_duals_certify_optimum(self):
        res = lp_solve_exact([1, 1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
        y = res.duals_ub
        # weak duality holds with equality at the optimum
        assert y[0] * 4 + y[1] * 6 == res.objective
        # dual feasibility: y^T A >= c
        assert y[0] * 1 + y[1] * 3 >= 1
        assert y[0] * 2 + y[1] * 1 >= 1
        assert all(v >= 0 for v in y)


def brute_vertex_optimum(c, A_ub, b_ub):
    """Enumerate basic feasible points of {Ax <= b, x >= 0} (exact)."""
    n = len(c)
    rows = [list(r) for r in A_ub] + [[F(1 if j == i else 0) for j in range(n)] for i in range(n)]
    rhs = list(b_ub) + [F(0)] * n
    best = None
    for combo in combinations(range(len(rows)), n):
        M = [[F(rows[i][j]) for j in range(n)] for i in combo]
        v = [F(rhs[i]) for i in combo]
        x = _solve_square(M, v)
        if x is None or any(xi < 0 for xi in x):
            continue
        if any(sum(F(A_ub[i][j]) * x[j] for j in range(n)) > b_ub[i] for i in range(len(A_ub))):
            continue
        val = sum(F(c[j]) * x[j] for j in range(n))
        if best is None or val > best:
            best = val
    return best


def _solve_square(M, v):
    n = len(v)
    M = [row[:] + [v[i]] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [a * inv for a in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


class TestRandomAgainstVertexEnumeration:
    def test_random_lps(self):
        rng = random.Random(3)
        tested = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            m = rng.randint(2, 5)
            c = [F(rng.randint(-3, 5)) for _ in range(n)]
            A = [[F(rng.randint(-2, 4)) for _ in range(n)] for _ in range(m)]
            b = [F(rng.randint(0, 6)) for _ in range(m)]
            # keep the region bounded
            A.append([F(1)] * n)
            b.append(F(10))
            expected = brute_vertex_optimum(c, A, b)
            res = lp_solve_exact(c, A_ub=A, b_ub=b)
            assert res.objective == expected
            # primal feasibility of the returned point
            assert all(x >= 0 for x in res.x)
            for row, rhs in zip(A, b):
                assert sum(a * x for a, x in zip(row, res.x)) <= rhs
            # strong duality
            assert sum(y * rhs for y, rhs in zip(res.duals_ub, b)) == res.objective
            tested += 1
        assert tested == 60


def coverage(covers, weights, rows):
    return {r: sum((w for c, w in zip(covers, weights) if r in c), F(0)) for r in rows}


def independent(covers, weights, rows):
    kept = [[1] + [1 if r in c else 0 for r in rows]
            for c, w in zip(covers, weights) if w > 0]
    return rank(kept) == len(kept)


columns = st.lists(
    st.tuples(
        st.frozensets(st.integers(0, 7), max_size=8),
        st.fractions(min_value=F(1, 12), max_value=5, max_denominator=12),
    ),
    min_size=1,
    max_size=25,
)


class TestCaratheodory:
    @settings(max_examples=150, deadline=None)
    @given(columns)
    def test_exact_and_independent(self, cols):
        covers = [c for c, _ in cols]
        weights = [w for _, w in cols]
        rows = range(8)
        out = caratheodory(covers, weights)
        assert len(out) == len(weights)
        assert all(isinstance(w, F) and w >= 0 for w in out)
        assert sum(out) == sum(weights)
        assert coverage(covers, out, rows) == coverage(covers, weights, rows)
        assert independent(covers, out, rows)
        full = [[1] + [1 if r in c else 0 for r in rows] for c in covers]
        if rank(full) == len(full):
            assert out == weights

    def test_independent_support_unchanged(self):
        # 13 unit columns and the all-ones column over 14 rows: 14 in, 14 out
        covers = [{r} for r in range(13)] + [set(range(14))]
        weights = [F(1, 28)] * 13 + [F(15, 28)]
        assert caratheodory(covers, weights) == weights

    def test_duplicate_columns_merge(self):
        covers = [{1, 2}, {3}, {1, 2}, {3}]
        weights = [F(1, 8), F(1, 4), F(3, 8), F(1, 4)]
        out = caratheodory(covers, weights)
        assert out == [F(1, 2), F(1, 2), F(0), F(0)]

    def test_single_and_zero_columns(self):
        assert caratheodory([{1, 2}], [F(1)]) == [F(1)]
        assert caratheodory([{1}, {2}], [F(0), F(1)]) == [F(0), F(1)]
        assert caratheodory([], []) == []

    def test_reduces_to_rank(self):
        # all 2-subsets of 6 rows: 15 columns in a space of rank 6
        covers = [set(c) for c in combinations(range(6), 2)]
        weights = [F(1, 15)] * 15
        out = caratheodory(covers, weights)
        assert sum(1 for w in out if w > 0) <= 6
        assert coverage(covers, out, range(6)) == {r: F(1, 3) for r in range(6)}

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            caratheodory([{1}, {2}], [F(1), F(-1)])

"""Exact rational simplex (optima, duals, infeasibility/unboundedness, the
pivot rule's choice of vertex, resumed solves of LPs grown by columns) and
the Carathéodory support reduction."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from fairkep.simplexlp import LpInfeasible, LpUnbounded, Tableau, caratheodory, lp_solve_exact
from helpers import rank, reference_caratheodory

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


def assert_certified(res, c, A_ub, b_ub, A_eq, b_eq, free_vars):
    """The exact optimality certificate of an LpResult."""
    x, y, z = res.x, res.duals_ub, res.duals_eq
    free = set(free_vars)
    assert all(isinstance(v, F) for v in x + y + z + [res.objective])
    assert all(x[j] >= 0 for j in range(len(c)) if j not in free)
    for row, rhs in zip(A_ub, b_ub):
        assert sum(F(a) * v for a, v in zip(row, x)) <= rhs
    for row, rhs in zip(A_eq, b_eq):
        assert sum(F(a) * v for a, v in zip(row, x)) == rhs
    assert sum(F(cj) * v for cj, v in zip(c, x)) == res.objective
    assert all(v >= 0 for v in y)
    for j, cj in enumerate(c):
        reduced = (sum(row[j] * v for row, v in zip(A_ub, y))
                   + sum(row[j] * v for row, v in zip(A_eq, z)) - cj)
        assert reduced == 0 if j in free else reduced >= 0, j
    assert sum(F(b) * v for b, v in zip(b_ub, y)) + sum(F(b) * v for b, v in zip(b_eq, z)) \
        == res.objective


def highs(c, A_ub, b_ub, A_eq, b_eq, free_vars):
    bounds = [(None, None) if j in free_vars else (0, None) for j in range(len(c))]
    return linprog([-float(v) for v in c],
                   A_ub=[[float(a) for a in r] for r in A_ub] or None,
                   b_ub=[float(b) for b in b_ub] or None,
                   A_eq=[[float(a) for a in r] for r in A_eq] or None,
                   b_eq=[float(b) for b in b_eq] or None,
                   bounds=bounds, method="highs")


class TestRandomCertificates:
    """Random LPs with = rows (one an exact multiple of another), negative
    right-hand sides and free variables.  Every optimum carries an exact
    certificate and matches HiGHS's objective; HiGHS statuses are no oracle
    (it has called feasible unbounded LPs infeasible), but an optimum HiGHS
    reports at a point that is feasible must not be called infeasible or
    unbounded here."""

    def random_lp(self, rng):
        n = rng.randint(1, 5)

        def coef():
            return F(rng.randint(-4, 5), rng.choice([1, 1, 2, 3])) if rng.random() < 0.7 else F(0)

        x0 = [F(rng.randint(0, 3)) for _ in range(n)]
        c = [coef() for _ in range(n)]
        A_ub = [[coef() for _ in range(n)] for _ in range(rng.randint(0, 4))]
        A_eq = [[coef() for _ in range(n)] for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.7:  # = rows hold at x0 >= 0, <= rows too unless their slack is -1
            b_ub = [sum(a * v for a, v in zip(r, x0)) + rng.randint(-1, 2) for r in A_ub]
            b_eq = [sum(a * v for a, v in zip(r, x0)) for r in A_eq]
        else:
            b_ub = [F(rng.randint(-3, 6)) for _ in A_ub]
            b_eq = [F(rng.randint(-3, 4)) for _ in A_eq]
        if A_eq and rng.random() < 0.4:
            k, s = rng.randrange(len(A_eq)), F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2]))
            A_eq.append([s * a for a in A_eq[k]])
            b_eq.append(s * b_eq[k])
        if rng.random() < 0.5:
            A_ub += [[F(1)] * n, [F(-1)] * n]
            b_ub += [F(10), F(10)]
        free = [j for j in range(n) if rng.random() < 0.3]
        return c, A_ub, b_ub, A_eq, b_eq, free

    def test_random_lps(self):
        rng = random.Random(11)
        outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for trial in range(300):
            lp = self.random_lp(rng)
            ref = highs(*lp)
            try:
                res = lp_solve_exact(*lp)
            except (LpInfeasible, LpUnbounded) as e:
                outcomes["infeasible" if isinstance(e, LpInfeasible) else "unbounded"] += 1
                if ref.status == 0:  # then HiGHS's point must be infeasible
                    _, A_ub, b_ub, A_eq, b_eq, _ = lp
                    lhs = [sum(float(a) * v for a, v in zip(r, ref.x)) for r in A_ub + A_eq]
                    excess = [v - b for v, b in zip(lhs, b_ub)]
                    excess += [abs(v - b) for v, b in zip(lhs[len(A_ub):], b_eq)]
                    assert max(excess, default=0) > 1e-7, (trial, e)
                continue
            outcomes["optimal"] += 1
            assert_certified(res, *lp)
            if ref.status == 0:
                assert abs(-ref.fun - float(res.objective)) <= 1e-9 * max(1, abs(ref.fun)), trial
        assert min(outcomes.values()) >= 20, outcomes


class TestPivotRule:
    """Degenerate LPs whose optimal vertex and duals are not unique: these pin
    the vertex that Bland's rule reaches from the slack basis in a cold solve
    (no start), since it fixes the columns a master keeps and so the pricing
    calls made."""

    COVERS = [{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0}, {1, 2, 3}]

    def maximin(self, fixed):
        # the maximin master over 4 pairs: max level, coverage >= level or floor
        k = len(self.COVERS)
        A_ub, b_ub = [], []
        for v in range(4):
            A_ub.append([-1 if v in cov else 0 for cov in self.COVERS] + [0 if v in fixed else 1])
            b_ub.append(-fixed.get(v, 0))
        return [0] * k + [1], A_ub, b_ub

    def test_all_zero_rhs(self):
        c, A_ub, b_ub = self.maximin({})
        res = lp_solve_exact(c, A_ub, b_ub, [[1] * 6 + [0]], [1])
        assert res.x == [F(1, 2), F(1, 2), 0, 0, 0, 0, F(1, 2)]
        assert res.objective == F(1, 2)
        assert res.duals_ub == [F(1, 2), 0, 0, F(1, 2)]
        assert res.duals_eq == [F(1, 2)]

    def test_redundant_eq_row(self):
        c, A_ub, b_ub = self.maximin({})
        res = lp_solve_exact(c, A_ub, b_ub, [[1] * 6 + [0], [2] * 6 + [0]], [1, 2])
        assert res.x == [F(1, 2), F(1, 2), 0, 0, 0, 0, F(1, 2)]
        assert res.objective == F(1, 2)
        assert res.duals_ub == [F(1, 2), 0, 0, F(1, 2)]
        assert res.duals_eq == [F(1, 2), 0]

    def test_flipped_ub_rows(self):
        c, A_ub, b_ub = self.maximin({0: F(1, 2), 3: F(1, 3)})
        res = lp_solve_exact(c, A_ub, b_ub, [[1] * 6 + [0]], [1])
        assert res.x == [F(1, 4), 0, F(1, 4), 0, 0, F(1, 2), F(3, 4)]
        assert res.objective == F(3, 4)
        assert res.duals_ub == [F(1, 2), F(1, 2), F(1, 2), 0]
        assert res.duals_eq == [F(1)]

    def test_beale_cycling_example(self):
        # Beale (1955): the textbook largest-coefficient rule cycles here
        c = [F(3, 4), -150, F(1, 50), -6]
        A_ub = [[F(1, 4), -60, F(-1, 25), 9], [F(1, 2), -90, F(-1, 50), 3], [0, 0, 1, 0]]
        b_ub = [0, 0, 1]
        res = lp_solve_exact(c, A_ub, b_ub)
        assert res.objective == F(1, 20)
        assert res.x == [F(1, 25), 0, 1, 0]
        assert_certified(res, c, A_ub, b_ub, [], [], [])

    def test_large_denominators_stay_exact(self):
        # prices as limit_denominator(10**12) leaves Nash's float gradients
        a = F(333333333333, 10**12)
        b = F(1, 999999999989)
        c = [F(1), F(1), F(7, 10**12 - 7), F(11, 10**12 - 11)]
        A_ub = [[a, b, 0, 0], [b, a, 0, 0]]
        b_ub = [1, 1]
        A_eq = [[0, 0, 1, 1]]
        res = lp_solve_exact(c, A_ub, b_ub, A_eq, [1])
        assert res.x == [1 / (a + b), 1 / (a + b), 0, 1]
        assert res.objective == 2 / (a + b) + F(11, 10**12 - 11)
        assert res.duals_ub == [1 / (a + b), 1 / (a + b)]
        assert res.duals_eq == [F(11, 10**12 - 11)]
        assert_certified(res, c, A_ub, b_ub, A_eq, [1], [])


def columns_of(lp, keep):
    """The LP over the columns in keep, in order."""
    c, A_ub, b_ub, A_eq, b_eq, free = lp
    return ([c[j] for j in keep], [[r[j] for j in keep] for r in A_ub], b_ub,
            [[r[j] for j in keep] for r in A_eq], b_eq, [i for i, j in enumerate(keep) if j in free])


def outcome(lp, start=None):
    try:
        return lp_solve_exact(*lp, start=start)
    except (LpInfeasible, LpUnbounded) as e:
        return type(e)


class TestResume:
    """A solve given a filled Tableau as its start resumes from the kept basis.
    Differential: random LPs with <= rows of both right-hand-side signs, =
    rows and free variables are solved cold over a prefix of their columns
    plus a fixed tail (the masters keep their level or free multiplier last),
    then resumed as the rest, none free, enter, one at a time or several at
    once.  Each resumed solve has the cold solve's outcome and optimal value,
    exactly, and an exact certificate; its vertex may differ."""

    def random_lp(self, rng):
        n = rng.randint(2, 7)

        def coef():
            return F(rng.randint(-4, 5), rng.choice([1, 1, 2, 3])) if rng.random() < 0.6 else 0

        x0 = [rng.randint(0, 2) for _ in range(n)]
        c = [coef() for _ in range(n)]
        A_ub = [[coef() for _ in range(n)] for _ in range(rng.randint(1, 4))]
        A_eq = [[coef() for _ in range(n)] for _ in range(rng.randint(0, 2))]
        # = rows hold at x0 >= 0, <= rows too unless their slack is -1
        b_ub = [sum(a * v for a, v in zip(r, x0)) + rng.randint(-1, 2) for r in A_ub]
        b_eq = [sum(a * v for a, v in zip(r, x0)) for r in A_eq]
        if rng.random() < 0.5:
            A_ub.append([1] * n)
            b_ub.append(rng.randint(3, 9))
        free = [j for j in range(n) if rng.random() < 0.25]
        return c, A_ub, b_ub, A_eq, b_eq, free

    def test_random_resumes(self):
        rng = random.Random(21)
        kinds = dict.fromkeys(("one", "several", "optimal", "unbounded", "negative_rhs",
                               "eq_rows", "free", "tail"), 0)
        for _ in range(400):
            *lp, free = self.random_lp(rng)
            n = len(lp[0])
            tail = list(range(n - rng.randint(0, 1), n))
            body = [j for j in range(n) if j not in tail]
            q = rng.randint(1, len(body) - 1) if len(body) > 1 else 0
            if not q:
                continue
            first = body[:q] + tail
            lp.append([j for j in free if j in first])
            for several in (False, True):
                start = Tableau()
                if isinstance(outcome(columns_of(lp, first), start), type):
                    break  # nothing to resume from
                grown = list(body[:q])
                rest = body[q:]
                while rest:
                    take = rng.randint(1, len(rest)) if several else 1
                    grown, rest = grown + rest[:take], rest[take:]
                    sub = columns_of(lp, grown + tail)
                    cold, warm = outcome(sub), outcome(sub, start)
                    if isinstance(cold, type):
                        assert warm is cold
                    else:
                        assert warm.objective == cold.objective
                        assert_certified(warm, *sub)
                    kinds["several" if take > 1 else "one"] += 1
                    kinds["optimal" if not isinstance(cold, type) else "unbounded"] += 1
                    kinds["negative_rhs"] += any(b < 0 for b in sub[2])
                    kinds["eq_rows"] += bool(sub[3])
                    kinds["free"] += bool(lp[5])
                    kinds["tail"] += bool(tail)
        assert min(kinds.values()) >= 50, kinds

    def test_resume_into_unbounded_keeps_start(self):
        # max x0 s.t. x0 <= 1; x1 with cost 1 and entry -1 in the row is a ray
        start = Tableau()
        assert lp_solve_exact([1], [[1]], [1], start=start).objective == 1
        kept = (start.tab, start.basis)
        with pytest.raises(LpUnbounded):
            lp_solve_exact([1, 1], [[1, -1]], [1], start=start)
        assert (start.tab, start.basis) == kept
        res = lp_solve_exact([1, 1], [[1, 1]], [1], start=start)
        assert res.objective == 1

    def test_redundant_eq_row_driven_out(self):
        # the second = row is twice the first over x0, x1, so its artificial
        # stays basic at zero; x2 breaks the dependence and must replace it
        lp = ([1, 2], [], [], [[1, 1], [2, 2]], [1, 2], [])
        start = Tableau()
        assert lp_solve_exact(*lp, start=start).objective == 2
        assert any(j >= 2 for j in start.basis)  # an artificial column
        grown = ([1, 2, 5], [], [], [[1, 1, 1], [2, 2, 3]], [1, 2], [])
        res = lp_solve_exact(*grown, start=start)
        assert res.objective == lp_solve_exact(*grown).objective == 2
        assert_certified(res, *grown)
        assert all(j < 3 for j in start.basis)

    def test_mismatched_start_refused(self):
        c, A_ub, b_ub, A_eq, b_eq = [1, 1], [[1, 2], [3, 1]], [4, 6], [[1, 1]], [2]
        start = Tableau()
        lp_solve_exact(c, A_ub, b_ub, A_eq, b_eq, start=start)
        kept = start.tab
        bad = [
            ([1, 1, 1], A_ub, [4, 5], A_eq, b_eq, ()),  # another right-hand side
            ([1, 1, 1], [r + [1] for r in A_ub], b_ub, [], [], ()),  # a row less
            ([1, 1, 1], [r + [1] for r in A_ub] + [[1, 1, 1]], b_ub + [9], [[1, 1, 1]], b_eq,
             ()),  # a row more
            ([1, 2, 1], [[1, 2, 1], [3, 1, 1]], b_ub, [[1, 1, 1]], b_eq, ()),  # an old cost moved
            ([1, 1, 1], [[1, 2, 1], [3, 2, 1]], b_ub, [[1, 1, 1]], b_eq, ()),  # an old entry moved
            ([1], [[1], [3]], b_ub, [[1]], b_eq, ()),  # a column fewer
            ([1, 1, 1], [[1, 2, 1], [3, 1, 1]], b_ub, [[1, 1, 1]], b_eq, [0]),  # an old column freed
            ([1, 1, 1], [[1, 2, 1], [3, 1, 1]], b_ub, [[1, 1, 1]], b_eq, [2]),  # a new column free
        ]
        for lp in bad:
            with pytest.raises(ValueError):
                lp_solve_exact(*lp, start=start)
        assert start.tab is kept


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

    def test_rejects_lengths_that_differ(self):
        with pytest.raises(ValueError):
            caratheodory([{1}, {2}, {1}], [F(1, 2), F(1, 2)])
        with pytest.raises(ValueError):
            caratheodory([{1}], [F(1, 2), F(1, 2)])

    def test_new_column_wins_a_ratio_tie(self):
        # with the all-ones row, {} + {1, 2} = {1} + {2}: column 3 ties column 2
        # at ratio 1 and is dropped, column 2 is left in the basis at weight 0,
        # and the repeat of {1, 2} is dropped onto it
        covers = [{1}, {2}, {1, 2}, set(), {1, 2}]
        weights = [F(1)] * 4 + [F(1, 2)]
        out = caratheodory(covers, weights)
        assert out == [F(2), F(2), F(1, 2), F(0), F(0)]
        assert out == reference_caratheodory(covers, weights)


    def test_earliest_basis_column_leaves_on_a_ratio_tie(self):
        # columns 1 and 2 tie for the least ratio as column 4 enters: column 1
        # leaves and column 2 stays at weight 0, so column 5, a repeat of
        # column 1, exchanges column 2 out at no mass shift and keeps its weight
        covers = [{0, 2, 3}, {0, 3}, {0, 1, 2, 3}, {1}, {2}, {0, 3}]
        weights = [F(1), F(1, 3), F(1, 3), F(1), F(1), F(1)]
        out = caratheodory(covers, weights)
        assert out == [F(5, 3), F(0), F(0), F(4, 3), F(2, 3), F(1)]
        assert out == reference_caratheodory(covers, weights)


@st.composite
def tie_prone_columns(draw):
    """Columns drawn from a few covers (repeats and the all-ones column among
    them) with weights from a few values, zero included, so that ratio ties
    and zero-weight basis columns are common."""
    rows = draw(st.integers(1, 6))
    pool = draw(st.lists(st.frozensets(st.integers(0, rows - 1)), min_size=1, max_size=6))
    pool.append(frozenset(range(rows)))
    covers = draw(st.lists(st.sampled_from(pool), max_size=20))
    values = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(1), F(2)])
    weights = draw(st.lists(values, min_size=len(covers), max_size=len(covers)))
    return covers, weights


class TestCaratheodoryReference:
    """The kernel against the reduced-echelon kernel it replaced, weight for weight."""

    @settings(max_examples=400, deadline=None)
    @given(tie_prone_columns())
    def test_tie_prone_columns(self, case):
        covers, weights = case
        out = caratheodory(covers, weights)
        assert out == reference_caratheodory(covers, weights)
        assert all(type(w) is F for w in out)

    @settings(max_examples=150, deadline=None)
    @given(columns)
    def test_random_columns(self, cols):
        covers = [c for c, _ in cols]
        weights = [w for _, w in cols]
        assert caratheodory(covers, weights) == reference_caratheodory(covers, weights)

    def test_seeded_wide_columns(self):
        # up to 40 columns over up to 10 rows: long runs of exchanges, whose
        # rewritten rows later columns reduce against
        rng = random.Random(11)
        reduced = 0
        for _ in range(300):
            rows = rng.randint(2, 10)
            density = rng.uniform(0.2, 0.8)
            covers = [{r for r in range(rows) if rng.random() < density}
                      for _ in range(rng.randint(1, 40))]
            weights = [F(rng.randint(0, 60), rng.randint(1, 12)) for _ in covers]
            out = caratheodory(covers, weights)
            assert out == reference_caratheodory(covers, weights)
            reduced += sum(1 for w in out if w) < sum(1 for w in weights if w)
        assert reduced >= 200

"""Column-generation solvers for fair lotteries over packing families.

The solvers share a restricted master over packing columns.  The master is
priced by any pricing callable that returns a best-price column of the
family; the solvers here price it with the exact packing oracle, and
lorenz.fixed_cardinality_reduction with a perfect-matching pricer.  Small
instances use the exact rational simplex (zero-tolerance certificates);
larger ones switch to HiGHS with a 1e-9 certificate tolerance.

- solve_maximin / solve_leximin: master LPs over (p_C, lambda); leximin_lottery
  is the level-fixing engine, with per-vertex saturation tests, over any
  priced master.
- solve_nash: fully-corrective conditional gradient; the linear subproblem is
  a pricing call with node prices 1/q_v, and the Frank-Wolfe gap certifies
  the log-objective within tolerance.
- solve_gini: Dinkelbach iterations on the mean-absolute-difference ratio with
  a column-generated inner LP.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linprog, minimize

from .core import (
    EMPTY_PACKING,
    FairkepError,
    KepInstance,
    Lottery,
    Packing,
    StructurePolicy,
    eval_gini,
    eval_leximin,
    eval_nash,
    eval_utilitarian,
)
from .oracle import (
    OracleQuery,
    PackingFamily,
    Uncoverable,
    acceptable_cardinality,
    coverable_pairs,
    max_price_packing,
)
from .simplexlp import LpInfeasible, LpUnbounded, caratheodory, lp_solve_exact

# masters stay exact-rational up to this many pairs (Gini has quadratically
# many rows, so it switches to floats earlier)
EXACT_PAIR_LIMIT = 40
GINI_EXACT_PAIR_LIMIT = 8
FLOAT_CERT_TOL = 1e-9
_PRICE_DENOM = 10**12


class StalledBelowTolerance(FairkepError):
    """Iterations stopped improving before reaching the requested gap."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


class DegenerateAllZero(FairkepError):
    """Every acceptable packing covers nothing, so the ratio is undefined."""


@dataclass(frozen=True)
class SolveReport:
    lottery: Lottery
    objective: object
    iterations: int
    pricing_calls: int
    gap: object
    marginals: dict[int, Fraction]


# ---------------------------------------------------------------------------
# LP front-end


def lp_solve(
    c: Sequence,
    A_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    A_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    free_vars: Sequence[int] = (),
    exact: bool = True,
):
    """Maximize c @ x s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    Variables in free_vars are unrestricted.  Returns (x, objective, duals_ub,
    duals_eq).  Exact mode runs simplexlp.lp_solve_exact, a fraction-free
    simplex on integer tableau rows under Bland's rule; its duals are read off
    the final objective row as exact Fractions: duals_ub >= 0, duals_eq of
    either sign, A_ubᵀ duals_ub + A_eqᵀ duals_eq >= c and b · duals equal to
    the objective.  Float mode runs HiGHS, with the same signs (duals good to
    ~1e-9).  Raises LpInfeasible / LpUnbounded.
    """
    if exact:
        res = lp_solve_exact(c, A_ub, b_ub, A_eq, b_eq, free_vars)
        return res.x, res.objective, res.duals_ub, res.duals_eq
    free = set(free_vars)
    bounds = [(None, None) if i in free else (0, None) for i in range(len(c))]
    res = linprog(
        [-float(v) for v in c],
        A_ub=[[float(v) for v in r] for r in A_ub] or None,
        b_ub=[float(v) for v in b_ub] or None,
        A_eq=[[float(v) for v in r] for r in A_eq] or None,
        b_eq=[float(v) for v in b_eq] or None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        raise LpInfeasible("LP infeasible")
    if res.status == 3:
        raise LpUnbounded("LP is unbounded")
    if res.status != 0:
        raise FairkepError(f"LP solve failed: {res.message}")
    duals_ub = [-m for m in res.ineqlin.marginals] if len(b_ub) else []
    duals_eq = [-m for m in res.eqlin.marginals] if len(b_eq) else []
    return list(res.x), -res.fun, duals_ub, duals_eq


# ---------------------------------------------------------------------------
# restricted master


class RestrictedMaster:
    """Growing pool of packing columns shared by every LP of one solve.

    pricing(prices) returns a packing of the family with the largest price
    sum, and that sum; it may add further columns of the family through add.
    exact picks the rational simplex over HiGHS for every LP of the solve.
    """

    def __init__(self, pairs: Sequence[int], pricing, exact: bool, seed: Packing):
        self.pairs = sorted(pairs)
        self.pricing = pricing
        self.exact = exact
        self.columns: list[Packing] = []
        self.covered: list[frozenset[int]] = []
        self._keys: set[frozenset] = set()
        self.pricing_calls = 0
        self.add(seed)

    def add(self, packing: Packing) -> bool:
        if packing.structures in self._keys:
            return False
        self._keys.add(packing.structures)
        self.columns.append(packing)
        self.covered.append(packing.covered)
        return True

    def price(self, prices: dict[int, object]) -> tuple[Packing, object]:
        self.pricing_calls += 1
        return self.pricing(prices)


def _oracle_master(
    instance: KepInstance, policy: StructurePolicy, exact_limit: int
) -> tuple[RestrictedMaster, bool]:
    """A master priced by the packing oracle over the policy's acceptable family.

    Its LPs are exact on up to exact_limit pairs.  Returns (master,
    full_coverage); full_coverage says the acceptable family is forced to
    cover every pair, so all marginals are 1 and the seed packing alone is
    optimal for any fair objective.
    """
    pairs = sorted(instance.pairs)
    # one family prices every query of the solve
    family = PackingFamily(instance, policy)
    cardinality = acceptable_cardinality(instance, policy, family)
    mode, k = cardinality
    cut_pool: list = []

    def query(prices, extra=None):
        return max_price_packing(
            OracleQuery(
                instance=instance, policy=policy, node_prices=prices, cardinality=cardinality
            ),
            value_only=True,
            cut_pool=cut_pool,
            extra_columns=extra,
            family=family,
        )

    def pricing(prices):
        # near-optimal packings found along the way join the column pool
        exact_prices = {
            v: p if isinstance(p, Fraction) else Fraction(p).limit_denominator(_PRICE_DENOM)
            for v, p in prices.items()
            if p
        }
        extra: list[tuple[Packing, Fraction]] = []
        packing, value = query(exact_prices, extra)
        for bonus, _ in extra:
            n = len(bonus.covered)
            if mode == "free" or (n == k if mode == "exact" else n >= k):
                master.add(bonus)
        return packing, value

    seed, _ = query({v: Fraction(1) for v in pairs})
    master = RestrictedMaster(pairs, pricing, len(pairs) <= exact_limit, seed)
    return master, cardinality == ("atleast", len(pairs))


def _maximin_lp(master: RestrictedMaster, fixed: dict[int, object]):
    """Maximize the minimum marginal over unfixed pairs, floors on fixed ones.

    Returns (level, primal weights over master.columns, iterations, gap).
    """
    rounds = 0
    gap = Fraction(0) if master.exact else 0.0
    while True:
        rounds += 1
        k = len(master.columns)
        c = [0] * k + [1]
        A_ub, b_ub = [], []
        for v in master.pairs:
            row = [-1 if v in cov else 0 for cov in master.covered]
            if v in fixed:
                row.append(0)
                b_ub.append(-fixed[v])
            else:
                row.append(1)
                b_ub.append(0)
            A_ub.append(row)
        x, _, duals_ub, duals_eq = lp_solve(
            c, A_ub, b_ub, [[1] * k + [0]], [1], exact=master.exact
        )
        z = duals_eq[0]
        prices = {v: y for v, y in zip(master.pairs, duals_ub)}
        packing, val = master.price(prices)
        if master.exact:
            if val <= z:
                return x[k], x[:k], rounds, Fraction(0)
            if not master.add(packing):
                raise FairkepError("priced an existing column with positive reduced cost")
        else:
            gap = max(0.0, float(val) - z)
            if gap <= FLOAT_CERT_TOL or not master.add(packing):
                return x[k], x[:k], rounds, gap


def _max_vertex_lp(
    master: RestrictedMaster,
    target: int,
    floors: dict[int, object],
    stop_above: object,
):
    """Maximize the target pair's marginal subject to floor constraints.

    Returns as soon as the value exceeds stop_above (no certificate needed);
    otherwise runs column generation to optimality.
    """
    while True:
        k = len(master.columns)
        c = [1 if target in cov else 0 for cov in master.covered]
        rows, rhs, row_pairs = [], [], []
        for v in master.pairs:
            f = floors.get(v, 0)
            if f and f > 0:
                rows.append([-1 if v in cov else 0 for cov in master.covered])
                rhs.append(-f)
                row_pairs.append(v)
        x, obj, duals_ub, duals_eq = lp_solve(
            c, rows, rhs, [[1] * k], [1], exact=master.exact
        )
        if obj > stop_above:
            return obj
        z = duals_eq[0]
        prices = {v: y for v, y in zip(row_pairs, duals_ub)}
        prices[target] = prices.get(target, Fraction(0) if master.exact else 0.0) + 1
        packing, val = master.price(prices)
        done = (val <= z) if master.exact else (float(val) <= z + FLOAT_CERT_TOL)
        if done or not master.add(packing):
            return obj


def _lottery_from(master: RestrictedMaster, weights: Sequence) -> Lottery:
    entries = []
    for pk, w in zip(master.columns, weights):
        if master.exact:
            if w > 0:
                entries.append((pk, Fraction(w)))
        elif w > 1e-12:
            entries.append((pk, Fraction(float(w)).limit_denominator(_PRICE_DENOM)))
    if not entries:
        entries = [(EMPTY_PACKING, Fraction(1))]
    total = sum(p for _, p in entries)
    return Lottery(tuple((pk, p / total) for pk, p in entries)).merged()


# ---------------------------------------------------------------------------
# solvers


def _trivial_report(instance: KepInstance, objective) -> SolveReport:
    lottery = Lottery(((EMPTY_PACKING, Fraction(1)),))
    return SolveReport(
        lottery=lottery,
        objective=objective,
        iterations=0,
        pricing_calls=0,
        gap=Fraction(0),
        marginals={v: Fraction(0) for v in instance.pairs},
    )


def _full_coverage_report(master: RestrictedMaster, objective) -> SolveReport:
    lottery = Lottery(((master.columns[0], Fraction(1)),))
    return SolveReport(
        lottery=lottery,
        objective=objective,
        iterations=0,
        pricing_calls=master.pricing_calls,
        gap=Fraction(0),
        marginals={v: Fraction(1) for v in master.pairs},
    )


def solve_maximin(instance: KepInstance, policy: StructurePolicy) -> SolveReport:
    """Lottery maximizing the minimum per-pair coverage probability."""
    if not instance.pairs:
        return _trivial_report(instance, Fraction(0))
    master, full_coverage = _oracle_master(instance, policy, EXACT_PAIR_LIMIT)
    if full_coverage:
        return _full_coverage_report(master, Fraction(1))
    level, weights, rounds, gap = _maximin_lp(master, {})
    lottery = sparsify(_lottery_from(master, weights))
    marginals = lottery.marginals(master.pairs)
    return SolveReport(
        lottery=lottery,
        objective=level if master.exact else float(level),
        iterations=rounds,
        pricing_calls=master.pricing_calls,
        gap=gap,
        marginals=marginals,
    )


def solve_leximin(instance: KepInstance, policy: StructurePolicy) -> SolveReport:
    """Lottery with the lexicographically maximal sorted marginal vector."""
    if not instance.pairs:
        return _trivial_report(instance, ())
    master, full_coverage = _oracle_master(instance, policy, EXACT_PAIR_LIMIT)
    if full_coverage:
        return _full_coverage_report(master, tuple([Fraction(1)] * len(master.pairs)))
    lottery, rounds, gap = leximin_lottery(master)
    marginals = lottery.marginals(master.pairs)
    return SolveReport(
        lottery=lottery,
        objective=eval_leximin([marginals[v] for v in master.pairs]),
        iterations=rounds,
        pricing_calls=master.pricing_calls,
        gap=gap,
        marginals=marginals,
    )


def leximin_lottery(master: RestrictedMaster) -> tuple[Lottery, int, object]:
    """Leximin lottery over the master's priced family, by level fixing.

    Maximize the minimum over unfixed pairs, then fix exactly the saturated
    pairs (those whose marginal cannot exceed the level, certified by
    per-vertex test LPs), and repeat on the rest.  Returns (sparsified
    lottery over the master's columns, rounds, gap).
    """
    sat_eps = Fraction(0) if master.exact else 1e-7
    fixed: dict[int, object] = {}
    weights: Sequence = []
    last_level = None
    rounds = 0
    gap = Fraction(0) if master.exact else 0.0
    while len(fixed) < len(master.pairs):
        level, weights, _, g = _maximin_lp(master, fixed)
        gap = max(gap, g)
        if last_level is not None and not level > last_level - (0 if master.exact else 1e-9):
            raise FairkepError(f"leximin levels must increase: {level} after {last_level}")
        floors = {v: fixed.get(v, level) for v in master.pairs}
        newly, best, best_mx = [], None, None
        for v in master.pairs:
            if v in fixed:
                continue
            qv = sum(w for w, cov in zip(weights, master.covered) if v in cov)
            if qv > level + sat_eps:
                continue  # the current primal already pushes v above the level
            if level >= 1 - (0 if master.exact else 1e-12):
                newly.append(v)  # marginals cannot exceed 1
                continue
            mx = _max_vertex_lp(master, v, floors, stop_above=level + sat_eps)
            if mx <= level + sat_eps:
                newly.append(v)
            elif best_mx is None or mx < best_mx:
                best, best_mx = v, mx
        if not newly:
            if master.exact:
                raise FairkepError("maximin optimum must saturate some pair")
            if best is None:
                raise FairkepError("no unfixed pair sits at the maximin level")
            newly = [best]  # float-noise fallback: fix the tightest pair
        for v in newly:
            fixed[v] = level
        last_level = level
        rounds += 1
    return sparsify(_lottery_from(master, weights)), rounds, gap


def solve_utilitarian(instance: KepInstance, policy: StructurePolicy) -> SolveReport:
    """Maximize expected coverage; ties resolved by leximin.

    Expected coverage is maximized exactly by lotteries over maximum-cardinality
    packings, which leaves the lottery underdetermined; this returns the leximin
    lottery among them (the documented choice).
    """
    if policy.cardinality_mode != "fixed":
        policy = replace(policy, cardinality_mode="max", delta=0)
    report = solve_leximin(instance, policy)
    return replace(
        report, objective=eval_utilitarian(list(report.marginals.values()))
    )


def solve_nash(
    instance: KepInstance, policy: StructurePolicy, tol: float = 1e-6
) -> SolveReport:
    """Maximize the product of marginals (equivalently sum of logs).

    Fully-corrective conditional gradient: the linear subproblem is a pricing
    call with node prices 1/q_v, and the duality gap sum(1/q_v for v in C*) - n
    certifies the log objective within tol.  Starts from the maximin lottery so
    iterates stay interior.  Requires every pair coverable.
    """
    if not instance.pairs:
        return _trivial_report(instance, Fraction(1))
    master, full_coverage = _oracle_master(instance, policy, EXACT_PAIR_LIMIT)
    if full_coverage:
        return _full_coverage_report(master, Fraction(1))
    level, weights, _, _ = _maximin_lp(master, {})
    if float(level) <= 0:
        raise Uncoverable("some pair has zero maximin coverage; Nash optimum undefined")
    pairs = master.pairs
    n = len(pairs)
    w = np.array([float(x) for x in weights], dtype=float)
    best_gap = float("inf")
    stalls = 0
    outer = 0
    for outer in range(1, 501):
        A = _indicator_matrix(master, pairs)
        q = A @ w
        grad = 1.0 / np.clip(q, 1e-15, None)
        prices = {v: grad[i] for i, v in enumerate(pairs)}
        packing, val = master.price(prices)
        gap = max(0.0, float(val) - n)
        best_gap = min(best_gap, gap)
        if gap <= tol:
            break
        grew = master.add(packing)
        if grew:
            A = _indicator_matrix(master, pairs)
            s = np.zeros(len(master.columns))
            s[-1] = 1.0
            w = np.append(w, 0.0)
            w = _line_search_mix(A, w, s)
        elif stalls >= 3:
            raise StalledBelowTolerance(
                f"Nash gap stalled at {best_gap:.3g} above tolerance {tol:g}", best_gap
            )
        else:
            stalls += 1
        w = _corrective_step(A, w)
    else:
        raise StalledBelowTolerance(
            f"Nash gap {best_gap:.3g} above tolerance {tol:g} after {outer} iterations",
            best_gap,
        )
    lottery = sparsify(_lottery_from(master, w))
    marginals = lottery.marginals(pairs)
    return SolveReport(
        lottery=lottery,
        objective=eval_nash([marginals[v] for v in pairs]),
        iterations=outer,
        pricing_calls=master.pricing_calls,
        gap=gap,
        marginals=marginals,
    )


def _indicator_matrix(master: RestrictedMaster, pairs: list[int]) -> np.ndarray:
    A = np.zeros((len(pairs), len(master.columns)))
    for j, cov in enumerate(master.covered):
        for i, v in enumerate(pairs):
            if v in cov:
                A[i, j] = 1.0
    return A


def _line_search_mix(A: np.ndarray, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Mix toward vertex s with the step maximizing sum(log((1-g)q + g*s_q))."""
    q = A @ w
    sq = A @ s
    d = sq - q

    def slope(g: float) -> float:
        denom = np.clip(q + g * d, 1e-300, None)
        return float(np.sum(d / denom))

    lo, hi = 0.0, 1.0
    if slope(0.0) <= 0:
        return w
    for _ in range(60):
        mid = (lo + hi) / 2
        if slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    g = lo
    return (1 - g) * w + g * s


def _corrective_step(A: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """Re-optimize sum(log q) over the simplex of current columns."""
    k = len(w0)

    def fun(w):
        q = np.clip(A @ w, 1e-15, None)
        return -float(np.sum(np.log(q)))

    def jac(w):
        q = np.clip(A @ w, 1e-15, None)
        return -(A.T @ (1.0 / q))

    res = minimize(
        fun,
        w0,
        jac=jac,
        bounds=[(0.0, 1.0)] * k,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0, "jac": lambda w: np.ones(k)}],
        method="SLSQP",
        options={"maxiter": 300, "ftol": 1e-14},
    )
    w = np.clip(res.x if res.success or res.fun <= fun(w0) else w0, 0.0, None)
    total = w.sum()
    return w / total if total > 0 else w0


def solve_gini(
    instance: KepInstance, policy: StructurePolicy, tol: float = 1e-8
) -> SolveReport:
    """Minimize the Gini coefficient of the marginal vector.

    Dinkelbach iterations on the ratio sum|q_u - q_v| / (2 n sum q): each inner
    problem min sum(t) - mu*2n*sum(q) with t_uv >= |q_u - q_v| is an LP solved
    by column generation; converges when the inner optimum reaches -tol.
    """
    if not instance.pairs:
        return _trivial_report(instance, Fraction(0))
    master, full_coverage = _oracle_master(instance, policy, GINI_EXACT_PAIR_LIMIT)
    if full_coverage:
        return _full_coverage_report(master, Fraction(0))
    _, weights, _, _ = _maximin_lp(master, {})
    weights = list(weights) + [0] * (len(master.columns) - len(weights))
    marginals = _lottery_from(master, weights).marginals(master.pairs)
    if all(q == 0 for q in marginals.values()):
        raise DegenerateAllZero("every acceptable packing covers nothing")
    mu = eval_gini([marginals[v] for v in master.pairs])
    tol_val = Fraction(tol).limit_denominator(10**14) if master.exact else tol
    outer = 0
    for outer in range(1, 61):
        D, p_star, q_star = _gini_inner(master, mu)
        if D >= -tol_val:
            break
        weights = p_star
        denom = 2 * len(master.pairs) * sum(q_star)
        if not denom > 0:
            raise FairkepError("Gini inner optimum covers no pair")
        mu_next = _abs_diff_sum(q_star) / denom
        if not mu_next < mu + (0 if master.exact else 1e-12):
            raise FairkepError(f"Gini ratio must decrease: {mu_next} after {mu}")
        mu = mu_next
    else:
        raise StalledBelowTolerance("Gini ratio iterations failed to converge", float(D))
    weights = list(weights) + [0] * (len(master.columns) - len(weights))
    lottery = sparsify(_lottery_from(master, weights))
    marginals = lottery.marginals(master.pairs)
    return SolveReport(
        lottery=lottery,
        objective=eval_gini([marginals[v] for v in master.pairs]),
        iterations=outer,
        pricing_calls=master.pricing_calls,
        gap=max(-D, Fraction(0) if master.exact else 0.0),
        marginals=marginals,
    )


def _abs_diff_sum(q: Sequence) -> object:
    s = sorted(q)
    n = len(s)
    return 2 * sum((2 * i - n + 1) * x for i, x in enumerate(s))


def _gini_inner(master: RestrictedMaster, mu):
    """min 2*sum(t) - mu*2n*sum(q) over the marginal polytope, via pricing.

    Variables: column weights p, marginals q, and t_uv >= |q_u - q_v|.
    Returns (inner optimum, p*, q*).
    """
    pairs = master.pairs
    n = len(pairs)
    idx = {v: i for i, v in enumerate(pairs)}
    upairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(upairs)
    coef_q = 2 * n * mu
    while True:
        k = len(master.columns)
        nv = k + n + m
        c = [0] * k + [coef_q] * n + [-2] * m
        A_eq, b_eq = [], []
        for v in pairs:
            row = [0] * nv
            for j, cov in enumerate(master.covered):
                if v in cov:
                    row[j] = -1
            row[k + idx[v]] = 1
            A_eq.append(row)
            b_eq.append(0)
        A_eq.append([1] * k + [0] * (n + m))
        b_eq.append(1)
        A_ub, b_ub = [], []
        for jj, (i, j) in enumerate(upairs):
            for sign in (1, -1):
                row = [0] * nv
                row[k + i] = sign
                row[k + j] = -sign
                row[k + n + jj] = -1
                A_ub.append(row)
                b_ub.append(0)
        x, obj, _, duals_eq = lp_solve(c, A_ub, b_ub, A_eq, b_eq, exact=master.exact)
        prices = {v: duals_eq[idx[v]] for v in pairs}
        z = duals_eq[n]
        packing, val = master.price(prices)
        done = (val <= z) if master.exact else (float(val) <= z + FLOAT_CERT_TOL)
        if done or not master.add(packing):
            return -obj, x[:k], x[k : k + n]


# ---------------------------------------------------------------------------
# support reduction and preprocessing


def sparsify(lottery: Lottery) -> Lottery:
    """Shrink the support to at most (covered pairs + 1), marginals unchanged.

    A merged support already within that bound is returned as is; otherwise
    simplexlp.caratheodory keeps linearly independent columns of the
    (marginals, total probability) system.
    """
    merged = lottery.merged()
    union = {v for pk, _ in merged.support for v in pk.covered}
    if len(merged.support) <= len(union) + 1:
        return merged
    weights = caratheodory([pk.covered for pk, _ in merged.support],
                           [p for _, p in merged.support])
    return Lottery(tuple((pk, p) for (pk, _), p in zip(merged.support, weights) if p > 0))


def preprocess(
    instance: KepInstance, policy: StructurePolicy
) -> tuple[KepInstance, list[int]]:
    """Drop pairs covered by no acceptable packing; returns (instance, dropped).

    One `oracle.coverable_pairs` witness loop under the policy's acceptable
    cardinality finds the kept pairs; both run on one packing family.  A
    packing covering a kept pair never routes through a dropped one, so one
    pass suffices; the instance itself comes back when nothing is dropped.
    """
    family = PackingFamily(instance, policy)
    card = acceptable_cardinality(instance, policy, family)
    kept = coverable_pairs(instance, policy, card, family=family)
    dropped = sorted(instance.pairs - kept)
    if not dropped:
        return instance, []
    return instance.restrict(kept), dropped

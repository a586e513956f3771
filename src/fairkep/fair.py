"""Column-generation solvers for fair lotteries over packing families.

The solvers share a restricted master over packing columns.  The master is
priced by any pricing callable that returns a best-price column of the
family; the solvers here price it with the exact packing oracle, and
lorenz.fixed_cardinality_reduction with a perfect-matching pricer.  One
column-generation loop (RestrictedMaster.generate) serves every LP and keeps
the dual certificates it ends on; exact masters check each priced packing
against them.  Small instances use the exact rational simplex
(zero-tolerance certificates); larger ones switch to HiGHS with a 1e-9
certificate tolerance.

- solve_maximin / solve_leximin: master LPs over (p_C, lambda); leximin_lottery
  is the level-fixing engine over any priced master: each round fixes the
  pairs that the certified maximin duals price.
- solve_nash: fully-corrective conditional gradient; the linear subproblem is
  a pricing call with node prices 1/q_v, each priced column enters at weight
  0 and SLSQP re-optimizes the whole mixture, and the Frank-Wolfe gap
  certifies the log-objective within tolerance.
- solve_gini: Dinkelbach iterations on the mean-absolute-difference ratio.
  The inner LP is column-generated and bounds the absolute differences by
  one variable and sort-order cuts, so it is exact under the same pair
  limit as every other objective.
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
    eval_maximin,
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

# masters of every objective stay exact-rational up to this many pairs; read
# at solve time
EXACT_PAIR_LIMIT = 40
# no solver reads this; its only reader is perfbench/workloads.py, which
# compares Gini items on more pairs with its float reference tolerance
GINI_EXACT_PAIR_LIMIT = 8
FLOAT_CERT_TOL = 1e-9
# float leximin compares levels, dual prices and final marginals within this,
# and float Gini masters separate sort-order cuts violated by more (HiGHS's own
# feasibility tolerances are 1e-7, so a tighter one could re-find a cut it has)
FLOAT_LEVEL_TOL = 1e-6
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
    sum, and that sum; the master itself decides which packings become columns.
    exact picks the rational simplex over HiGHS for every LP of the solve.
    certificates holds the (prices, z) on which column generation ended: no
    packing of the family has a price sum above z.
    """

    def __init__(self, pairs: Sequence[int], pricing, exact: bool, seed: Packing):
        self.pairs = sorted(pairs)
        self.pricing = pricing
        self.exact = exact
        self.columns: list[Packing] = []
        self.covered: list[frozenset[int]] = []
        self.certificates: list[tuple[dict[int, object], object]] = []
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
        """The pricing's best packing and its price sum.

        On an exact master the packing must also respect every recorded
        certificate; one that does not proves the pricing wrong, then or now.
        """
        self.pricing_calls += 1
        packing, value = self.pricing(prices)
        if self.exact:
            for y, z in self.certificates:
                if sum((y.get(v, 0) for v in packing.covered), Fraction(0)) > z:
                    raise FairkepError(
                        f"pricing returned a packing above the certified bound {z}"
                    )
        return packing, value

    def generate(self, solve):
        """Column generation: re-solve the restricted LP until pricing certifies it.

        solve() solves the LP over the current columns and returns (solution,
        prices, z), where the pair prices and z are its optimal duals: no
        column prices above z.  The loop ends, and records (prices, z), once
        the best packing of the family prices at most z as well: exactly on
        exact masters, within FLOAT_CERT_TOL on float ones.  A float master
        also stops, uncertified and with the gap it reached, when pricing
        returns a column it already has.  Returns (solution, prices, rounds,
        gap).
        """
        rounds = 0
        while True:
            rounds += 1
            solution, prices, z = solve()
            packing, value = self.price(prices)
            if self.exact:
                gap = Fraction(0)
                done = value <= z
            else:
                gap = max(0.0, float(value) - z)
                done = gap <= FLOAT_CERT_TOL
            if done:
                self.certificates.append((prices, z))
                return solution, prices, rounds, gap
            if not self.add(packing):
                if self.exact:
                    raise FairkepError("priced an existing column with positive reduced cost")
                return solution, prices, rounds, gap


def _oracle_master(
    instance: KepInstance, policy: StructurePolicy
) -> tuple[RestrictedMaster, bool]:
    """A master priced by the packing oracle over the policy's acceptable family.

    Each pricing call is one oracle query, prices in and one best packing
    out, on the family built here for the whole solve; the oracle keeps no
    solver state between calls.  Its LPs are exact on up to EXACT_PAIR_LIMIT
    pairs.  Its seed is the family's unit-price optimum: under cardinality
    ≥ k the maximum packing `acceptable_cardinality` has just found.  Returns
    (master, full_coverage); full_coverage says the acceptable family is
    forced to cover every pair, so all marginals are 1 and the seed packing
    alone is optimal for any fair objective.
    """
    pairs = sorted(instance.pairs)
    # one family prices every query of the solve
    family = PackingFamily(instance, policy)
    cardinality = acceptable_cardinality(instance, policy, family)

    def pricing(prices):
        exact_prices = {
            v: p if isinstance(p, Fraction) else Fraction(p).limit_denominator(_PRICE_DENOM)
            for v, p in prices.items()
            if p
        }
        return max_price_packing(
            OracleQuery(
                instance=instance, policy=policy, node_prices=exact_prices, cardinality=cardinality
            ),
            value_only=True,
            family=family,
        )

    seed, _ = family.unit_optimum(cardinality)
    master = RestrictedMaster(pairs, pricing, len(pairs) <= EXACT_PAIR_LIMIT, seed)
    return master, cardinality == ("atleast", len(pairs))


def _maximin_lp(master: RestrictedMaster, fixed: dict[int, object]):
    """Maximize the minimum marginal over unfixed pairs, floors on fixed ones.

    Returns (level, primal weights over master.columns, certified pair prices,
    iterations, gap).
    """

    def solve():
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
        return x, dict(zip(master.pairs, duals_ub)), duals_eq[0]

    x, prices, rounds, gap = master.generate(solve)
    return x[-1], x[:-1], prices, rounds, gap


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


def _solve(instance: KepInstance, policy: StructurePolicy, evaluate, run,
           empty) -> SolveReport:
    """The frame of every oracle-priced solver.

    An empty pool gets the empty packing, with objective `empty`.  Otherwise
    one oracle master prices the solve, exact on up to EXACT_PAIR_LIMIT pairs.  A
    family forced to cover every pair gets its seed packing; any other runs
    run(master) -> (lottery, iterations, gap, objective).  An objective of
    None, and the forced family's, is evaluate(marginal vector).
    """
    if not instance.pairs:
        lottery = Lottery(((EMPTY_PACKING, Fraction(1)),))
        return SolveReport(lottery, empty, 0, 0, Fraction(0), {})
    master, full_coverage = _oracle_master(instance, policy)
    if full_coverage:
        lottery = Lottery(((master.columns[0], Fraction(1)),))
        iterations, gap, objective = 0, Fraction(0), None
    else:
        lottery, iterations, gap, objective = run(master)
    marginals = lottery.marginals(master.pairs)
    if objective is None:
        objective = evaluate([marginals[v] for v in master.pairs])
    return SolveReport(lottery, objective, iterations, master.pricing_calls, gap, marginals)


def solve_maximin(instance: KepInstance, policy: StructurePolicy) -> SolveReport:
    """Lottery maximizing the minimum per-pair coverage probability."""

    def run(master):
        level, weights, _, rounds, gap = _maximin_lp(master, {})
        objective = level if master.exact else float(level)
        return sparsify(_lottery_from(master, weights)), rounds, gap, objective

    return _solve(instance, policy, eval_maximin, run, empty=Fraction(0))


def solve_leximin(instance: KepInstance, policy: StructurePolicy) -> SolveReport:
    """Lottery with the lexicographically maximal sorted marginal vector."""
    return _solve(instance, policy, eval_leximin,
                  lambda master: (*leximin_lottery(master), None), empty=())


def leximin_lottery(master: RestrictedMaster) -> tuple[Lottery, int, object]:
    """Leximin lottery over the master's priced family, by dual fixing.

    Each round maximizes the minimum marginal over the unfixed pairs, with
    the fixed pairs held at their levels.  By complementary slackness, a pair
    whose certified maximin dual price is positive sits at the level in every
    maximin optimum, so the round fixes those pairs at the level (all of
    them once the level reaches 1).  The unfixed prices sum to at least 1, so
    every round fixes a pair and there are at most n rounds.  Levels never
    decrease, though consecutive ones may be equal.  Float masters compare
    levels, prices and marginals within FLOAT_LEVEL_TOL.  Returns
    (sparsified lottery over the master's columns, rounds, gap).
    """
    tol = Fraction(0) if master.exact else FLOAT_LEVEL_TOL
    fixed: dict[int, object] = {}
    level = None
    rounds = 0
    gap = Fraction(0) if master.exact else 0.0
    while len(fixed) < len(master.pairs):
        last = level
        level, weights, prices, _, g = _maximin_lp(master, fixed)
        gap = max(gap, g)
        rounds += 1
        if last is not None and level < last - tol:
            raise FairkepError(f"leximin levels must not decrease: {level} after {last}")
        newly = [v for v in master.pairs if v not in fixed]
        if level < 1 - tol:
            newly = [v for v in newly if prices[v] > tol]
        if not newly:
            raise FairkepError(f"the maximin duals at level {level} price no unfixed pair")
        for v in newly:
            fixed[v] = level
    lottery = sparsify(_lottery_from(master, weights))
    marginals = lottery.marginals(master.pairs)
    off = [v for v in master.pairs if abs(marginals[v] - fixed[v]) > tol]
    if off:
        raise FairkepError(f"pairs {off} end away from the levels they were fixed at")
    return lottery, rounds, gap


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
    certifies the log objective within tol.  A priced column enters at weight
    0 and the corrective step re-optimizes the mixture over every column.
    Starts from the maximin lottery so iterates stay interior.  Requires every
    pair coverable.
    """

    def run(master):
        level, weights, _, _, _ = _maximin_lp(master, {})
        if float(level) <= 0:
            raise Uncoverable("some pair has zero maximin coverage; Nash optimum undefined")
        pairs = master.pairs
        n = len(pairs)
        w = np.array([float(x) for x in weights], dtype=float)
        A = _indicator_matrix(master, pairs)
        best_gap = float("inf")
        stalls = 0
        outer = 0
        for outer in range(1, 501):
            q = A @ w
            grad = 1.0 / np.clip(q, 1e-15, None)
            prices = {v: grad[i] for i, v in enumerate(pairs)}
            packing, val = master.price(prices)
            gap = max(0.0, float(val) - n)
            best_gap = min(best_gap, gap)
            if gap <= tol:
                break
            if not master.add(packing):
                if stalls >= 3:
                    raise StalledBelowTolerance(
                        f"Nash gap stalled at {best_gap:.3g} above tolerance {tol:g}", best_gap
                    )
                stalls += 1
            if len(master.columns) > len(w):
                A = _indicator_matrix(master, pairs)
                w = np.append(w, np.zeros(len(master.columns) - len(w)))
            w = _corrective_step(A, w)
        else:
            raise StalledBelowTolerance(
                f"Nash gap {best_gap:.3g} above tolerance {tol:g} after {outer} iterations",
                best_gap,
            )
        return sparsify(_lottery_from(master, w)), outer, gap, None

    return _solve(instance, policy, eval_nash, run, empty=Fraction(1))


def _indicator_matrix(master: RestrictedMaster, pairs: list[int]) -> np.ndarray:
    A = np.zeros((len(pairs), len(master.columns)))
    for j, cov in enumerate(master.covered):
        for i, v in enumerate(pairs):
            if v in cov:
                A[i, j] = 1.0
    return A


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
    problem min T - mu*2n*sum(q), with T >= sum|q_u - q_v| imposed by
    sort-order cuts (_gini_inner), is an LP solved by column generation;
    converges when the inner optimum reaches -tol.  Exact on up to
    EXACT_PAIR_LIMIT pairs, like every other objective.
    """

    def run(master):
        _, weights, _, _, _ = _maximin_lp(master, {})
        marginals = _lottery_from(master, weights).marginals(master.pairs)
        if all(q == 0 for q in marginals.values()):
            raise DegenerateAllZero("every acceptable packing covers nothing")
        mu = eval_gini([marginals[v] for v in master.pairs])
        tol_val = Fraction(tol).limit_denominator(10**14) if master.exact else tol
        outer = 0
        cuts: dict[tuple[int, ...], list[int]] = {}
        for outer in range(1, 61):
            D, p_star, q_star = _gini_inner(master, mu, cuts)
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
        # zero first: max keeps the first of equals, and -D is -0.0 when D is 0.0
        gap = max(Fraction(0) if master.exact else 0.0, -D)
        return sparsify(_lottery_from(master, weights)), outer, gap, None

    return _solve(instance, policy, eval_gini, run, empty=Fraction(0))


def _abs_diff_sum(q: Sequence) -> object:
    s = sorted(q)
    n = len(s)
    return 2 * sum((2 * i - n + 1) * x for i, x in enumerate(s))


def _gini_inner(master: RestrictedMaster, mu, cuts: dict):
    """min T - mu*2n*sum(q) over the marginal polytope, via pricing.

    The LP's variables are the column weights p, whose marginals are q, and
    T >= 0, which stands for _abs_diff_sum(q): the maximum over orderings pi
    of 2 * sum_i (2i - n + 1) q_pi(i), reached at the ascending order of q.
    cuts maps each ordering separated so far in the solve to its
    coefficients over q, and the LP holds T >= those coefficients times q for
    each.  Every LP is re-solved until the ascending order of its own q*
    violates no cut (exactly, or beyond FLOAT_LEVEL_TOL on float masters),
    so pricing only sees optima of the LP over every ordering.

    The simplex runs on the LP's dual, which has a row per column where the
    LP has one per cut, and whose right-hand sides are not all 0 as the
    cuts' are.  Its cut multipliers lam give each pair the price 2n*mu less
    lam times the pair's cut coefficients.  Returns (inner optimum, p*, q*).
    """
    pairs = master.pairs
    n = len(pairs)
    coef_q = 2 * n * mu
    tol = 0 if master.exact else FLOAT_LEVEL_TOL

    def solve():
        k = len(master.columns)
        cols = [[i for i, v in enumerate(pairs) if v in cov] for cov in master.covered]
        b_ub = [-coef_q * len(col) for col in cols] + [1]
        while True:
            # the dual's variables: lam >= 0 per cut, then the free multiplier
            # of sum(p) = 1; its rows: one per column, then one for T
            rows = list(cuts.values())
            A_ub = [[-sum(r[i] for i in col) for r in rows] + [-1] for col in cols]
            A_ub.append([1] * len(rows) + [0])
            lam, _, x, _ = lp_solve([0] * len(rows) + [-1], A_ub, b_ub,
                                    free_vars=[len(rows)], exact=master.exact)
            q = [0] * n
            for col, p in zip(cols, x):
                for i in col:
                    q[i] += p
            order = tuple(sorted(range(n), key=q.__getitem__))
            row = [0] * n
            for i, j in enumerate(order):
                row[j] = 2 * (2 * i - n + 1)
            value = sum(a * qi for a, qi in zip(row, q))
            if not value > x[k] + tol:
                break
            if order in cuts:
                raise FairkepError(f"the Gini cut of ordering {order} is violated in its own LP")
            cuts[order] = row
        prices = {v: coef_q - sum(y * r[i] for y, r in zip(lam, rows))
                  for i, v in enumerate(pairs)}
        return (value - coef_q * sum(q), x[:k], q), prices, lam[-1]

    optimum, _, _, _ = master.generate(solve)
    return optimum


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
    cardinality finds the kept pairs; both run on one packing family, whose
    maximum packing is the loop's first witness under cardinality ≥ k.  A
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

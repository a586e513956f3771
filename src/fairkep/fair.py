"""Column-generation solvers for fair lotteries over packing families.

The solvers share a restricted master over packing columns.  The master is
priced by any pricing callable that returns a best-price column of the
family; the solvers here price it with the exact packing oracle, and
lorenz.fixed_cardinality_reduction with a perfect-matching pricer.  One
column-generation loop (RestrictedMaster.generate) serves every LP and keeps
the dual certificates it ends on; every priced packing is checked against
them.  Every master LP, at every pool size, runs on the exact rational
simplex, so certificates hold with zero tolerance and every objective but
Nash's is an exact Fraction; an LP that has only gained columns since its
last solve resumes from that solve's tableau.

- solve_maximin / solve_leximin: master LPs over (p_C, lambda); leximin_lottery
  is the level-fixing engine over any priced master: each round fixes the
  pairs that the certified maximin duals price.
- solve_nash: fully-corrective conditional gradient; the linear subproblem is
  a pricing call with node prices 1/q_v, each priced column enters at weight
  0 and SLSQP re-optimizes the whole mixture, and the Frank-Wolfe gap
  certifies the log-objective within tolerance.  The outer loop runs on
  Python floats: numpy and scipy load in _corrective_step alone, so a solve
  whose maximin start is already optimal never loads them.
- solve_gini: Dinkelbach iterations on the mean-absolute-difference ratio.
  The inner LP is column-generated and bounds the absolute differences by
  one variable and sort-order cuts, exact like every other master LP.

Beyond that, only the oracle's HiGHS routes load scipy.

`lottery`, `best_packing` and `pool_metric` are the front door, the CLI's
too: the request picks the engine, column generation here, the matching
engines of `lorenz` or the 2-path solver of `paths`.  Those two load at call
time, since `lorenz` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    EMPTY_PACKING,
    MATCHING_POLICY,
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
    Uncoverable,
    _family_of,
    acceptable_cardinality,
    always_covered_count,
    coverable_pairs,
    coverage_losses,
    delta_star,
    max_price_packing,
)
from .simplexlp import Tableau, caratheodory, lp_solve_exact

# no solver reads this; its only reader is perfbench/workloads.py, which
# compares Gini items on more pairs with its float reference tolerance
GINI_EXACT_PAIR_LIMIT = 8
# Nash's float gradient prices are rounded to this denominator before pricing
_PRICE_DENOM = 10**12
OBJECTIVES = ("utilitarian", "maximin", "leximin", "nash", "gini")
METRICS = ("delta_star", "always_covered", "coverage_loss", "max_cardinality")


class StalledBelowTolerance(FairkepError):
    """Iterations stopped improving before reaching the requested gap."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


class DegenerateAllZero(FairkepError):
    """Every acceptable packing covers nothing, so the ratio is undefined."""


@dataclass(frozen=True)
class SolveReport:
    """A solver's lottery, exact marginals, objective, work counts and gap.

    objective and gap are Fractions (leximin's objective a tuple of them) on
    every path but solve_nash, whose float gap certifies its objective to tol.
    """

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
    start: Optional[Tableau] = None,
):
    """Maximize c @ x s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    Variables in free_vars are unrestricted.  Returns (x, objective, duals_ub,
    duals_eq) from simplexlp.lp_solve_exact, a fraction-free simplex on
    integer tableau rows under Bland's rule; its duals are read off the final
    objective row as exact Fractions: duals_ub >= 0, duals_eq of either sign,
    A_ubᵀ duals_ub + A_eqᵀ duals_eq >= c and b · duals equal to the
    objective.  Every master LP goes through this name, whole: its full cost
    vector and rows.  start is the Tableau of the LP's last solve, filled by
    it: a master that has only gained columns since resumes from it (see
    lp_solve_exact), and one whose rows or right-hand sides changed starts
    an empty one.  Raises LpInfeasible / LpUnbounded.
    """
    res = lp_solve_exact(c, A_ub, b_ub, A_eq, b_eq, free_vars, start=start)
    return res.x, res.objective, res.duals_ub, res.duals_eq


# ---------------------------------------------------------------------------
# restricted master


class RestrictedMaster:
    """Growing pool of packing columns shared by every LP of one solve.

    pricing(prices) returns a packing of the family with the largest price
    sum, and that sum; the master itself decides which packings become columns.
    Every LP of the solve is exact and rational.  certificates holds the
    (prices, z) on which column generation ended: no packing of the family has
    a price sum above z.
    """

    def __init__(self, pairs: Sequence[int], pricing, seed: Packing):
        self.pairs = sorted(pairs)
        self.pricing = pricing
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

        The packing must also respect every recorded certificate; one that
        does not proves the pricing wrong, then or now.
        """
        self.pricing_calls += 1
        packing, value = self.pricing(prices)
        for y, z in self.certificates:
            if sum((y.get(v, 0) for v in packing.covered), Fraction(0)) > z:
                raise FairkepError(f"pricing returned a packing above the certified bound {z}")
        return packing, value

    def generate(self, solve):
        """Column generation: re-solve the restricted LP until pricing certifies it.

        solve() solves the LP over the current columns and returns (solution,
        prices, z), where the pair prices and z are its optimal duals: no
        column prices above z.  The loop ends, and records (prices, z), once
        the best packing of the family prices at most z as well, exactly, so
        the LP's optimum is the family's.  A priced column that the master
        already has proves the LP or the pricing wrong and raises.  Returns
        (solution, prices, rounds).  Between calls the LP gains the priced
        column, so a solve() whose LP has a variable per column keeps one
        simplexlp.Tableau for the loop and resumes from it (_maximin_lp); one
        whose LP gains a row per column solves each call cold (_gini_inner).
        """
        rounds = 0
        while True:
            rounds += 1
            solution, prices, z = solve()
            packing, value = self.price(prices)
            if value <= z:
                self.certificates.append((prices, z))
                return solution, prices, rounds
            if not self.add(packing):
                raise FairkepError("priced an existing column with positive reduced cost")


def _oracle_master(
    instance: KepInstance, policy: StructurePolicy
) -> tuple[RestrictedMaster, bool]:
    """A master priced by the packing oracle over the policy's acceptable family.

    Each pricing call is one oracle query, prices in and one best packing
    out, on one family for the whole solve (the one `preprocess` attached to
    the instance, or a new one); the oracle keeps no solver state between
    calls.  Float prices (Nash's gradients) are rounded to Fractions first.
    Its seed is the family's unit-price optimum: under cardinality ≥ k the
    maximum packing `acceptable_cardinality` has just found.  Returns
    (master, full_coverage); full_coverage says the acceptable family is
    forced to cover every pair, so all marginals are 1 and the seed packing
    alone is optimal for any fair objective.
    """
    pairs = sorted(instance.pairs)
    # one family prices every query of the solve
    family = _family_of(instance, policy)
    cardinality = acceptable_cardinality(instance, policy, family)

    def pricing(prices):
        exact_prices = {
            v: p if isinstance(p, Fraction) else Fraction(p).limit_denominator(_PRICE_DENOM)
            for v, p in prices.items()
            if p
        }
        return max_price_packing(family, exact_prices, cardinality, value_only=True)

    seed, _ = family.unit_optimum(cardinality)
    master = RestrictedMaster(pairs, pricing, seed)
    return master, cardinality == ("atleast", len(pairs))


def _maximin_lp(master: RestrictedMaster, fixed: dict[int, object]):
    """Maximize the minimum marginal over unfixed pairs, floors on fixed ones.

    Returns (level, primal weights over master.columns, certified pair prices,
    iterations).  Each priced column is one more variable of the same rows,
    so every LP after the round's first resumes from the last one's tableau.
    """
    tableau = Tableau()

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
        x, _, duals_ub, duals_eq = lp_solve(c, A_ub, b_ub, [[1] * k + [0]], [1], start=tableau)
        return x, dict(zip(master.pairs, duals_ub)), duals_eq[0]

    x, prices, rounds = master.generate(solve)
    return x[-1], x[:-1], prices, rounds


def _lottery_from(master: RestrictedMaster, weights: Sequence) -> Lottery:
    entries = [(pk, Fraction(w)) for pk, w in zip(master.columns, weights) if w > 0]
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
    one oracle master, exact at every pool size, prices the solve.  A family
    forced to cover every pair gets its seed packing; any other runs
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
        level, weights, _, rounds = _maximin_lp(master, {})
        return sparsify(_lottery_from(master, weights)), rounds, Fraction(0), level

    return _solve(instance, policy, eval_maximin, run, empty=Fraction(0))


def solve_leximin(instance: KepInstance, policy: StructurePolicy) -> SolveReport:
    """Lottery with the lexicographically maximal sorted marginal vector."""
    return _solve(instance, policy, eval_leximin,
                  lambda master: (*leximin_lottery(master), None), empty=())


def leximin_lottery(master: RestrictedMaster) -> tuple[Lottery, int, Fraction]:
    """Leximin lottery over the master's priced family, by dual fixing.

    Each round maximizes the minimum marginal over the unfixed pairs, with
    the fixed pairs held at their levels.  By complementary slackness, a pair
    whose certified maximin dual price is positive sits at the level in every
    maximin optimum, so the round fixes those pairs at the level (all of
    them once the level reaches 1).  The unfixed prices sum to at least 1, so
    every round fixes a pair and there are at most n rounds.  Levels never
    decrease, though consecutive ones may be equal; all comparisons are
    exact.  Returns (sparsified lottery over the master's columns, rounds,
    gap Fraction(0)); a master without pairs has nothing to fix and returns
    its seed packing in 0 rounds.
    """
    if not master.pairs:
        return Lottery(((master.columns[0], Fraction(1)),)), 0, Fraction(0)
    fixed: dict[int, Fraction] = {}
    level = None
    rounds = 0
    while len(fixed) < len(master.pairs):
        last = level
        level, weights, prices, _ = _maximin_lp(master, fixed)
        rounds += 1
        if last is not None and level < last:
            raise FairkepError(f"leximin levels must not decrease: {level} after {last}")
        newly = [v for v in master.pairs if v not in fixed]
        if level < 1:
            newly = [v for v in newly if prices[v] > 0]
        if not newly:
            raise FairkepError(f"the maximin duals at level {level} price no unfixed pair")
        for v in newly:
            fixed[v] = level
    lottery = sparsify(_lottery_from(master, weights))
    marginals = lottery.marginals(master.pairs)
    off = [v for v in master.pairs if marginals[v] != fixed[v]]
    if off:
        raise FairkepError(f"pairs {off} end away from the levels they were fixed at")
    return lottery, rounds, Fraction(0)


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
        level, weights, _, _ = _maximin_lp(master, {})
        if level <= 0:
            raise Uncoverable("some pair has zero maximin coverage; Nash optimum undefined")
        pairs = master.pairs
        n = len(pairs)
        w = [float(x) for x in weights]
        best_gap = float("inf")
        stalls = 0
        outer = 0
        for outer in range(1, 501):
            prices = {}
            for v in pairs:
                q = sum(wj for wj, cov in zip(w, master.covered) if v in cov)
                prices[v] = 1.0 / max(q, 1e-15)
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
            w += [0.0] * (len(master.columns) - len(w))
            w = _corrective_step(master, w)
        else:
            raise StalledBelowTolerance(
                f"Nash gap {best_gap:.3g} above tolerance {tol:g} after {outer} iterations",
                best_gap,
            )
        return sparsify(_lottery_from(master, w)), outer, gap, None

    return _solve(instance, policy, eval_nash, run, empty=Fraction(1))


def _corrective_step(master: RestrictedMaster, w0: list[float]) -> list[float]:
    """Re-optimize sum(log q) over the simplex of the master's columns."""
    import numpy as np
    from scipy.optimize import minimize

    A = np.array([[1.0 if v in cov else 0.0 for cov in master.covered] for v in master.pairs])
    x0 = np.array(w0)
    k = len(w0)

    def fun(w):
        q = np.clip(A @ w, 1e-15, None)
        return -float(np.sum(np.log(q)))

    def jac(w):
        q = np.clip(A @ w, 1e-15, None)
        return -(A.T @ (1.0 / q))

    res = minimize(
        fun,
        x0,
        jac=jac,
        bounds=[(0.0, 1.0)] * k,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0, "jac": lambda w: np.ones(k)}],
        method="SLSQP",
        options={"maxiter": 300, "ftol": 1e-14},
    )
    w = np.clip(res.x if res.success or res.fun <= fun(x0) else x0, 0.0, None)
    total = w.sum()
    return (w / total).tolist() if total > 0 else w0


def solve_gini(
    instance: KepInstance, policy: StructurePolicy, tol: float = 1e-8
) -> SolveReport:
    """Minimize the Gini coefficient of the marginal vector.

    Dinkelbach iterations on the ratio sum|q_u - q_v| / (2 n sum q): each inner
    problem min T - mu*2n*sum(q), with T >= sum|q_u - q_v| imposed by
    sort-order cuts (_gini_inner), is an LP solved by column generation;
    converges when the exact inner optimum reaches -tol.  Every LP is exact
    and rational, so the objective and the gap (-D, at most tol) are
    Fractions.
    """

    def run(master):
        _, weights, _, _ = _maximin_lp(master, {})
        marginals = _lottery_from(master, weights).marginals(master.pairs)
        if all(q == 0 for q in marginals.values()):
            raise DegenerateAllZero("every acceptable packing covers nothing")
        mu = eval_gini([marginals[v] for v in master.pairs])
        tol_val = Fraction(tol).limit_denominator(10**14)
        outer = 0
        cuts: dict[tuple[int, ...], list[int]] = {}
        for outer in range(1, 61):
            D, p_star, q_star = _gini_inner(master, mu, cuts)
            if D >= -tol_val:
                break
            weights = p_star
            if not sum(q_star) > 0:
                raise FairkepError("Gini inner optimum covers no pair")
            mu_next = eval_gini(q_star)
            if not mu_next < mu:
                raise FairkepError(f"Gini ratio must decrease: {mu_next} after {mu}")
            mu = mu_next
        else:
            raise StalledBelowTolerance("Gini ratio iterations failed to converge", float(D))
        return sparsify(_lottery_from(master, weights)), outer, max(Fraction(0), -D), None

    return _solve(instance, policy, eval_gini, run, empty=Fraction(0))


def _gini_inner(master: RestrictedMaster, mu, cuts: dict):
    """min T - mu*2n*sum(q) over the marginal polytope, via pricing.

    The LP's variables are the column weights p, whose marginals are q, and
    T >= 0, which stands for sum over ordered pairs |q_u - q_v| (eval_gini's
    numerator): the maximum over orderings pi of 2 * sum_i (2i - n + 1)
    q_pi(i), reached at the ascending order of q.
    cuts maps each ordering separated so far in the solve to its
    coefficients over q, and the LP holds T >= those coefficients times q for
    each.  Every LP is re-solved until the ascending order of its own q*
    violates no cut, exactly, so pricing only sees optima of the LP over
    every ordering.

    The simplex runs on the LP's dual, which has a row per column where the
    LP has one per cut, and whose right-hand sides are not all 0 as the
    cuts' are.  Its cut multipliers lam give each pair the price 2n*mu less
    lam times the pair's cut coefficients.  A cut is one more dual column, so
    the re-solve after it resumes from the last tableau; a priced column is
    one more dual row, so each pricing round starts cold.  Returns (inner
    optimum, p*, q*).
    """
    pairs = master.pairs
    n = len(pairs)
    coef_q = 2 * n * mu

    def solve():
        k = len(master.columns)
        cols = [[i for i, v in enumerate(pairs) if v in cov] for cov in master.covered]
        b_ub = [-coef_q * len(col) for col in cols] + [1]
        tableau = Tableau()
        # the dual's variables: lam >= 0 per cut, then the free multiplier of
        # sum(p) = 1; its rows: one per column, then one for T.  A column's
        # row gains one entry per cut
        rows = list(cuts.values())
        col_rows = [[-sum(r[i] for i in col) for r in rows] for col in cols]
        while True:
            A_ub = [entries + [-1] for entries in col_rows]
            A_ub.append([1] * len(rows) + [0])
            lam, _, x, _ = lp_solve([0] * len(rows) + [-1], A_ub, b_ub, free_vars=[len(rows)],
                                    start=tableau)
            q = [0] * n
            for col, p in zip(cols, x):
                for i in col:
                    q[i] += p
            order = tuple(sorted(range(n), key=q.__getitem__))
            row = [0] * n
            for i, j in enumerate(order):
                row[j] = 2 * (2 * i - n + 1)
            value = sum(a * qi for a, qi in zip(row, q))
            if not value > x[k]:
                break
            if order in cuts:
                raise FairkepError(f"the Gini cut of ordering {order} is violated in its own LP")
            cuts[order] = row
            rows.append(row)
            for entries, col in zip(col_rows, cols):
                entries.append(-sum(row[i] for i in col))
        prices = {v: coef_q - sum(y * r[i] for y, r in zip(lam, rows))
                  for i, v in enumerate(pairs)}
        return (value - coef_q * sum(q), x[:k], q), prices, lam[-1]

    optimum, _, _ = master.generate(solve)
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
    """Drop pairs covered by no acceptable packing; returns (reduced, dropped).

    One `oracle.coverable_pairs` witness loop under the policy's acceptable
    cardinality finds the kept pairs; both run on one packing family, whose
    maximum packing is the loop's first witness under cardinality ≥ k.  A
    packing covering a kept pair never routes through a dropped one, so one
    pass suffices.  `reduced` is always a new instance,
    `instance.restrict(kept)`, equal to the input when nothing is dropped,
    and it carries the family restricted to it (`PackingFamily.restrict`),
    maximum included under modes max and delta, so δ* and a solve over it
    with the same structures enumerate nothing and search no maximum again.
    The input carries nothing new.
    """
    family = _family_of(instance, policy)
    card = acceptable_cardinality(instance, policy, family)
    kept = coverable_pairs(family, card)
    reduced = instance.restrict(kept)
    # set as a frozen dataclass's __init__ sets a field; `replace` and
    # `restrict` copy fields only, so no instance made from it carries it
    object.__setattr__(reduced, "_family", family.restrict(reduced))
    return reduced, sorted(instance.pairs - kept)


# ---------------------------------------------------------------------------
# front door: the request picks the engine


def lottery(instance: KepInstance, policy: StructurePolicy, objective: str = "leximin", *,
            node_weights: Optional[dict] = None, edge_weights: Optional[dict] = None,
            tol: float = 1e-6) -> SolveReport:
    """The `objective` lottery over the policy's acceptable packings, from the engine that answers it.

    Weights, node {pair: w} or edge {(u, v): w} (one map, under
    `MATCHING_POLICY` exactly), and mode "fixed" under its structures go to
    `lorenz`'s matching engines, for leximin alone.  Their objective is the
    sorted marginal vector over the pairs on a mutual-compatibility edge (the
    pairs `preprocess` keeps), with no iterations or pricing calls and gap 0.
    The rest is column generation.  Every objective but utilitarian runs over
    the pool `preprocess` reduces at any cardinality, whatever the mode, and
    under mode "max" at δ* (`oracle.delta_star`).  Nash runs to `tol`, Gini
    to min(tol, 1e-8).
    A request no engine answers raises ValueError before any engine runs.
    """
    weighted = [w for w in (node_weights, edge_weights) if w is not None]
    if weighted and (policy != MATCHING_POLICY or len(weighted) > 1):
        raise ValueError("weights weigh maximum matchings by one map, under MATCHING_POLICY alone")
    matching = bool(weighted) or (policy.cardinality_mode == "fixed"
                            and policy.structure_rules == MATCHING_POLICY.structure_rules)
    if objective not in OBJECTIVES or matching and objective != "leximin":
        raise ValueError(f"no engine answers objective {objective!r} here")
    if matching:
        from . import lorenz

        if node_weights is not None:
            chosen = lorenz.node_weight_leximin(instance, node_weights)
        elif edge_weights is not None:
            chosen = lorenz.edge_weight_reduction(instance, edge_weights)
        else:
            chosen = lorenz.fixed_cardinality_reduction(instance, mu=policy.mu)
        q = chosen.marginals({v for e in instance.undirected_edges() for v in e})
        return SolveReport(chosen, eval_leximin(list(q.values())), 0, 0, Fraction(0), q)
    if objective != "utilitarian":
        any_size = replace(policy, cardinality_mode="delta", delta=len(instance.pairs))
        instance, _ = preprocess(instance, any_size)
        if policy.cardinality_mode == "max":
            policy = replace(any_size, delta=delta_star(instance, policy))
    if objective == "nash":
        return solve_nash(instance, policy, tol=tol)
    if objective == "gini":
        return solve_gini(instance, policy, tol=min(tol, 1e-8))
    solve = {"utilitarian": solve_utilitarian, "maximin": solve_maximin, "leximin": solve_leximin}
    return solve[objective](instance, policy)


def best_packing(instance: KepInstance, policy: StructurePolicy,
                 prices: Optional[dict] = None) -> tuple[Packing, Optional[Fraction], object]:
    """A best packing under the policy, its value, and its engine's certificate.

    `paths.TWO_PATH` goes to `paths.max_2path_packing`, whose deficiency
    certificate over the NDDs proves its packing maximum, and
    `paths.TWO_CYCLE_TWO_PATH` to its oracle family's value-only maximum.
    Both take no prices and no relaxation, mode "max" alone (else ValueError),
    and return value None.  Any other policy gets one full oracle query at `prices`
    (every pair at 1 by default) under its acceptable cardinality.
    """
    from . import paths

    rules = policy.structure_rules
    if rules in (paths.TWO_PATH.structure_rules, paths.TWO_CYCLE_TWO_PATH.structure_rules):
        if prices is not None or policy.cardinality_mode != "max":
            raise ValueError("the 2-path policies find a maximum packing; they take no prices, delta or mu")
        if rules == paths.TWO_PATH.structure_rules:
            packing, certificate = paths.max_2path_packing(instance)
            return packing, None, certificate
        return _family_of(instance, policy).maximum()[0], None, None
    if prices is None:
        prices = {v: Fraction(1) for v in instance.pairs}
    family = _family_of(instance, policy)
    card = acceptable_cardinality(instance, policy, family)
    return (*max_price_packing(family, prices, card), None)


def pool_metric(instance: KepInstance, policy: StructurePolicy, metric: str):
    """One of the `METRICS` of the pool under the policy.

    "delta_star" is the largest coverage loss over the pairs some packing
    covers, the δ* `lottery` relaxes to; "coverage_loss" maps every pair to
    its loss, None where no packing covers it; "max_cardinality" is a
    maximum packing's size; "always_covered" is the (count, pairs) covered by
    every acceptable packing.  Only "always_covered" reads the policy's
    cardinality mode: the others raise ValueError under mode delta or fixed.
    """
    if metric not in METRICS or policy.cardinality_mode != "max" and metric != "always_covered":
        raise ValueError(f"no metric {metric!r} under cardinality mode {policy.cardinality_mode!r}")
    if metric == "always_covered":
        return always_covered_count(instance, policy)
    if metric == "max_cardinality":
        return _family_of(instance, policy).maximum()[1]
    losses = coverage_losses(instance, policy)
    if metric == "coverage_loss":
        return losses
    return max((x for x in losses.values() if x is not None), default=0)

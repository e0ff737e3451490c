import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate

from branching_ou.harness import ExperimentConfig, run_oracle_crosscheck
from branching_ou.kernels import Factor, Kernel
from branching_ou import tree_oracle
from branching_ou.model import (
    MAX_ARITY,
    ArityCapError,
    BudgetExceededError,
    ModelParams,
    derive,
)
from branching_ou.ou import Func1D
from branching_ou.tree_oracle import (
    OracleKernelError,
    enumerate_trees,
    exact_mixed_moment,
)

from helpers import (FUNC_ONE, FUNC_X, mixed_moment_forward, second_moment_linear,
                     yule_second_moment)

SLOW = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, x0=(0.5,))
X2 = Func1D.polynomial([0.0, 0.0, 1.0])
LIN, SQ, CUBE, MIXED = [0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [0.3, -1.0, 0.5, 1.0]


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def independent_tree_count(n):
    # one leaf-label partition times one unordered binary shape per block set
    from branching_ou.ustats import set_partitions

    total = 0
    for part in set_partitions(n):
        m = len(part)
        total += 1 if m == 1 else double_factorial(2 * m - 3)
    return total


class TestEnumeration:
    def test_small_counts(self):
        assert len(enumerate_trees(1)) == 1
        assert len(enumerate_trees(2)) == 2
        assert len(enumerate_trees(3)) == 7

    def test_cross_enumeration_count(self):
        for n in range(1, MAX_ARITY + 1):
            assert len(enumerate_trees(n)) == independent_tree_count(n)

    def test_cap(self):
        with pytest.raises(ArityCapError):
            enumerate_trees(7)

    def test_structural_invariants(self):
        for tree in enumerate_trees(3):
            n_inner = len(tree.inner_nodes)
            n_leaves = len(tree.leaves)
            assert n_inner == n_leaves - 1
            assert tree.multiplicity == 2**n_inner
            # parents precede children; the root has exactly one child
            assert tree.parent[0] == -1
            for i in range(1, len(tree.parent)):
                assert tree.parent[i] < i
            assert sum(1 for q in tree.parent[1:] if q == 0) == 1
            for i in tree.inner_nodes:
                assert sum(1 for q in tree.parent if q == i) == 2
            labels = sorted(i for _, block in tree.leaf_labels for i in block)
            assert labels == [1, 2, 3]

    def test_single_tree_for_n1(self):
        (tree,) = enumerate_trees(1)
        assert tree.parent == (-1, 0)
        assert (tree.inner_nodes, tree.leaves) == ((), (1,))
        assert tree.leaf_labels == ((1, (1,)),)
        assert tree.multiplicity == 1


class TestTreeContribution:
    """Moments that one tree carries: n = 1 has a single tree, and at t = 0
    only the tree without inner vertices contributes."""

    def test_single_leaf_is_tilted_semigroup(self):
        t = 1.3
        got = exact_mixed_moment(1, t, SLOW, [FUNC_X])
        want = math.exp(0.5 * t) * 0.5 * math.exp(-t)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_horizon(self):
        # x0 = 0.5: the split tree has no time to split, so E<X_0, x>^2 = x0^2
        got = exact_mixed_moment(2, 0.0, SLOW, [FUNC_X, FUNC_X])
        assert got == pytest.approx(0.25, abs=1e-14)


class TestExactMixedMoment:
    def test_yule_second_moment(self):
        params = ModelParams(lam=1.0, p=1.0, mu=1.0, sigma=1.0)
        for t in (0.5, 1.0, 2.0):
            got = exact_mixed_moment(2, t, params, [FUNC_ONE, FUNC_ONE])
            assert got == pytest.approx(yule_second_moment(t, 1.0), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_yule_higher_moments(self, n):
        # N_t is geometric with q = e^{-lam t}: E (N)_k = k! (1-q)^{k-1} / q^k,
        # and E N^n = sum_k S(n, k) E (N)_k with Stirling numbers S
        stirling = {3: (1, 3, 1), 4: (1, 7, 6, 1)}[n]
        params = ModelParams(lam=1.0, p=1.0, mu=1.0, sigma=1.0)
        for t in (0.5, 1.0, 2.0):
            q = math.exp(-t)
            want = sum(s * math.factorial(k) * (1 - q) ** (k - 1) / q**k
                       for k, s in enumerate(stirling, start=1))
            got = exact_mixed_moment(n, t, params, [FUNC_ONE] * n)
            assert got == pytest.approx(want, rel=1e-13)

    def test_first_moment_formula(self):
        params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, x0=(1.0,))
        for t in (0.5, 2.0, 5.0):
            got = exact_mixed_moment(1, t, params, [FUNC_X])
            assert got == pytest.approx(math.exp(0.5 * t) * math.exp(-t), rel=1e-12)

    @pytest.mark.parametrize("mu", [1.0, 0.25, 0.1])
    def test_second_moment_against_hand_formula(self, mu):
        params = ModelParams(lam=1.0, p=0.75, mu=mu, sigma=1.0, x0=(0.5,))
        for t in (1.0, 3.0):
            got = exact_mixed_moment(2, t, params, [FUNC_X, FUNC_X])
            assert got == pytest.approx(second_moment_linear(t, params), rel=1e-12)

    def test_recursion_consistency(self):
        # the moment solves an integral equation in the tilted semigroup;
        # evaluate the right-hand side with scipy quadrature and explicit
        # Gaussian transition formulas
        params = SLOW
        mu, g, s2 = params.mu, derive(params).growth_rate, 0.5
        x0 = params.x0[0]

        def second_moment_transition(x, dt):
            return x**2 * math.exp(-2 * mu * dt) + s2 * (1 - math.exp(-2 * mu * dt))

        for t in (1.0, 2.0, 4.0):
            lhs = exact_mixed_moment(2, t, params, [FUNC_X, FUNC_X])

            def integrand(s):
                # 2 v_1(y, s) v_2(y, s) = 2 e^{2gs} e^{-2 mu s} y^2,
                # pushed through T_{t-s} and tilted
                inner = 2 * math.exp(2 * g * s - 2 * mu * s) * \
                    second_moment_transition(x0, t - s)
                return math.exp(g * (t - s)) * inner

            integral, _ = integrate.quad(integrand, 0.0, t, limit=200)
            rhs = math.exp(g * t) * second_moment_transition(x0, t) + \
                params.p * params.lam * integral
            assert abs(lhs - rhs) <= 1e-5 * abs(rhs)

    @pytest.mark.parametrize("t", [0.1, 2.0, 30.0])
    @pytest.mark.parametrize("params, factors", [
        (ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.3, x0=(-0.7,)),
         [[MIXED], [CUBE], [MIXED]]),
        # resonant case: g = 2 mu
        (ModelParams(lam=1.0, p=0.75, mu=0.25, sigma=1.2, x0=(-0.4,)),
         [[CUBE], [LIN], [SQ], [MIXED]]),
        (ModelParams(lam=1.0, p=0.75, mu=0.25, sigma=1.0, dim=2, x0=(0.5, -0.3)),
         [[CUBE, LIN], [LIN, SQ], [MIXED, CUBE]]),
    ], ids=["n3-cubic", "n4-mixed-degrees", "n3-2d"])
    def test_higher_degree_against_forward_equations(self, params, factors, t):
        # cubic factors give leaf moments of degree 4 to 6 in the split
        # variables; at the short horizon every split lies near the start
        fs = [Factor.from_polys(f) for f in factors]
        got = exact_mixed_moment(len(fs), t, params, fs)
        want = mixed_moment_forward(t, params, factors)
        assert got == pytest.approx(want, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("factors, t", [
        ([[CUBE], [MIXED], [LIN], [LIN], [SQ]], 2.0),
        ([[LIN], [LIN], [SQ], [LIN], [[1.0, 1.0]], [LIN]], 0.5),
    ], ids=["n5-cubic-mixed", "n6-mixed-degrees"])
    def test_top_arities_against_forward_equations(self, factors, t):
        # resonant case, g = 2 mu
        params = ModelParams(lam=1.0, p=0.75, mu=0.25, sigma=1.2, x0=(-0.4,))
        fs = [Factor.from_polys(f) for f in factors]
        got = exact_mixed_moment(len(fs), t, params, fs)
        want = mixed_moment_forward(t, params, factors)
        assert got == pytest.approx(want, rel=1e-11, abs=0.0)

    def test_normalized_second_moment_stays_bounded(self):
        # canonical tensor square in the slow regime: the exponentially
        # normalized moment approaches a finite limit instead of growing
        params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, x0=(0.0,))
        vals = [
            math.exp(-0.5 * t) * exact_mixed_moment(2, t, params, [FUNC_X, FUNC_X])
            for t in (2.0, 6.0, 10.0)
        ]
        assert vals[2] < vals[1] * 1.05
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])

    @pytest.mark.parametrize("t", [80.0, 120.0])
    def test_slow_second_moment_long_horizon(self, t):
        # x0 = 0, s^2 = 1/2, g = 1/2: the hand formula of
        # helpers.second_moment_linear integrates to
        # e^{-gt} E<X_t, x>^2 = 1 - 2 e^{-3t/2} + e^{-2t}, which is 1 to far
        # below the tolerance at these horizons
        params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, x0=(0.0,))
        got = exact_mixed_moment(2, t, params, [FUNC_X, FUNC_X]) * math.exp(-0.5 * t)
        assert got == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [80.0, 120.0])
    def test_slow_fourth_moment_long_horizon(self, t):
        # e^{-gt/2} <X_t, x> tends to sqrt(W) N(0, 1) with W independent of
        # the Gaussian, E W^2 = 2 p lam / g = 3 (the factorial second moment
        # of the population) and unit variance from the second-moment test,
        # so e^{-2gt} E<X_t, x>^4 -> 3 E W^2 = 9
        params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, x0=(0.0,))
        got = exact_mixed_moment(4, t, params, [FUNC_X] * 4) * math.exp(-t)
        assert got == pytest.approx(9.0, rel=1e-10)

    def test_slow_sixth_moment_long_horizon(self):
        # as above, e^{-3gt} E<X_t, x>^6 -> 15 E W^3 = 202.5: W is 0 with
        # probability 1/3 and otherwise exponential with mean 3/2, so
        # E W^3 = (2/3) 3! (3/2)^3 = 13.5
        params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, x0=(0.0,))
        got = exact_mixed_moment(6, 40.0, params, [FUNC_X] * 6) * math.exp(-60.0)
        assert got == pytest.approx(202.5, rel=1e-8)

    def test_fast_second_moment_long_horizon(self):
        # g = 1/2 > 2 mu = 1/5, s^2 = 5, x0 = 0: in the hand formula of
        # helpers.second_moment_linear the pair integral dominates, and
        # e^{-2(g - mu)t} E<X_t, x>^2 -> 2 p lam s^2 (1/(g - 2 mu) - 1/g) = 10;
        # the remainder at t = 80 is of order e^{-24}
        params = ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0, x0=(0.0,))
        got = exact_mixed_moment(2, 80.0, params, [FUNC_X, FUNC_X]) * \
            math.exp(-0.8 * 80.0)
        assert got == pytest.approx(10.0, rel=1e-9)

    @pytest.mark.parametrize("t", [80.0, 120.0])
    def test_critical_second_moment_long_horizon(self, t):
        # g = 2 mu = 1/2, s^2 = 2, x0 = 0: in the hand formula of
        # helpers.second_moment_linear the pair integrand e^{gu} e^{-2 mu u}
        # is 1, so e^{-gt} E<X_t, x>^2 = s^2 (1 - e^{-gt})
        # + 2 p lam s^2 (t - (1 - e^{-gt}) / g) = 3 t - 4 (1 - e^{-gt});
        # divided by t that is 3 - 4/t up to 4 e^{-gt} / t < 1e-17
        params = ModelParams(lam=1.0, p=0.75, mu=0.25, sigma=1.0, x0=(0.0,))
        got = exact_mixed_moment(2, t, params, [FUNC_X, FUNC_X]) * \
            math.exp(-0.5 * t) / t
        assert got == pytest.approx(3.0 - 4.0 / t, rel=1e-9)

    def test_monotone_horizon_for_nonnegative_kernel(self):
        params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, x0=(0.0,))
        vals = [exact_mixed_moment(1, t, params, [X2]) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_third_moment_runs(self):
        got = exact_mixed_moment(3, 1.0, SLOW, [FUNC_X, FUNC_X, FUNC_X])
        assert np.isfinite(got)

    def test_two_dim_first_moment(self):
        # coordinates evolve independently: the cross-product mean factorizes
        params = ModelParams(lam=1.0, p=0.75, mu=0.5, sigma=1.0, dim=2,
                             x0=(1.0, -2.0))
        cross = Factor.from_polys([LIN, LIN])
        for t in (0.8, 2.0):
            got = exact_mixed_moment(1, t, params, [cross])
            want = math.exp(0.5 * t) * (1.0 * math.exp(-0.5 * t)) * \
                (-2.0 * math.exp(-0.5 * t))
            assert got == pytest.approx(want, rel=1e-10)

    def test_two_dim_second_moment_vs_monte_carlo(self, monkeypatch):
        from branching_ou.simulator import simulate_farm
        from branching_ou.ustats import v_statistics

        params = ModelParams(lam=1.0, p=0.75, mu=0.5, sigma=1.0, dim=2,
                             x0=(0.5, 0.0))
        cross = Factor.from_polys([LIN, LIN])
        t = 1.5
        oracle = exact_mixed_moment(2, t, params, [cross, cross])
        f = Kernel.tensor_sum([(1.0, (cross, cross))], dim=2)
        monkeypatch.setattr("branching_ou.simulator.FARM_BATCH", 4000)
        farm = simulate_farm(params, (t,), 20_000, seed=71)
        vals = v_statistics(farm[0], f)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - oracle) <= 4 * se

    def test_fourth_moment_vs_squared_v_statistic(self, monkeypatch):
        # the arity-2 V-statistic of x (x) x is <X_t, x>^2
        from branching_ou.simulator import simulate_farm
        from branching_ou.ustats import v_statistics

        t = 1.5
        oracle = exact_mixed_moment(4, t, SLOW, [FUNC_X] * 4)
        f = Kernel.from_slot_funcs([FUNC_X, FUNC_X])
        monkeypatch.setattr("branching_ou.simulator.FARM_BATCH", 4000)
        farm = simulate_farm(SLOW, (t,), 20_000, seed=83)
        vals = v_statistics(farm[0], f) ** 2
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - oracle) <= 4 * se

    def test_arity_checks(self):
        with pytest.raises(ValueError):
            exact_mixed_moment(2, 1.0, SLOW, [FUNC_X])
        with pytest.raises(ArityCapError):
            exact_mixed_moment(7, 1.0, SLOW, [FUNC_X] * 7)

    def test_rejects_dimension_mismatch(self):
        cross = Factor.from_polys([LIN, LIN])
        with pytest.raises(OracleKernelError):
            exact_mixed_moment(1, 1.0, SLOW, [cross])

    @pytest.mark.parametrize("t", [-1.0, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("n", [1, 2])
    def test_bad_horizon_refused(self, n, t):
        # a negative horizon gives the split-time generator negative
        # entries, on which the series in ``_nonnegative_expm`` never
        # stops at n = 2; it is refused before any tree is integrated
        start = time.perf_counter()
        with pytest.raises(ValueError, match="finite and nonnegative"):
            exact_mixed_moment(n, t, SLOW, [FUNC_X] * n)
        assert time.perf_counter() - start < 1.0

    def test_budget_refuses_before_integrating(self, monkeypatch):
        # six distinct cubics: 3,797 trees x 4^6 monomial combinations x
        # 10^5 coefficient entries, which would run for minutes
        def no_tree(*args):
            raise AssertionError("a tree was planned or integrated")

        monkeypatch.setattr(tree_oracle, "_Planner", no_tree)
        monkeypatch.setattr(tree_oracle, "_Moments", no_tree)
        cubics = [Func1D.polynomial([0.1 * i, -1.0, 0.5, 1.0]) for i in range(6)]
        misses = tree_oracle._plan.cache_info().misses
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            exact_mixed_moment(6, 10.0, SLOW, cubics)
        assert time.perf_counter() - start < 1.0
        assert tree_oracle._plan.cache_info().misses == misses

    def test_shape_memo_is_read_only(self):
        tree = max(enumerate_trees(3), key=lambda tree: len(tree.inner_nodes))
        moment = tree_oracle._Moments(tree_oracle._shape(tree.parent), 1.0, SLOW, 2)
        for counts in ((0, 0, 0), (2, 1, 1)):
            assert not moment[counts].flags.writeable
        assert moment[(2, 1, 1)] is moment[(2, 1, 1)]

    def test_one_memo_per_shape_per_call(self, monkeypatch):
        # every tree of a shape reads the one memo its shape's pass builds,
        # whether the plan is new or kept
        built = []

        class Counted(tree_oracle._Moments):
            def __init__(self, shape, *args):
                built.append(shape)
                super().__init__(shape, *args)

        monkeypatch.setattr(tree_oracle, "_Moments", Counted)
        factors = [Func1D.polynomial([0.2 * i, 1.0, 0.5]) for i in range(4)]
        shapes = {tree.parent for tree in enumerate_trees(4)}
        tree_oracle._plan.cache_clear()
        for _ in ("cold", "warm"):
            built.clear()
            exact_mixed_moment(4, 1.2, SLOW, factors)
            assert len(built) == len(set(built)) == len(shapes)


def sweep_values() -> list[float]:
    """Oracle values over n = 1..4, several t, mu and x0, 1-D and 2-D
    factors, and the ``n5-cubic-mixed`` moment, in a fixed order."""
    one_d = [Factor.from_polys([f]) for f in (MIXED, LIN, SQ, [1.0])]
    two_d = [Factor.from_polys(f) for f in ([LIN, SQ], [[1.0], LIN], [MIXED, [1.0, 0.5]],
                                            [SQ, LIN])]
    values = []
    for mu, x0 in ((1.0, 0.5), (0.25, -0.4), (0.1, 0.0)):
        for t in (0.0, 0.7, 3.0):
            for dim, pool in ((1, one_d), (2, two_d)):
                params = ModelParams(lam=1.0, p=0.75, mu=mu, sigma=1.2, dim=dim,
                                     x0=(x0, -0.5 * x0)[:dim])
                for n in range(1, 5):
                    values.append(exact_mixed_moment(n, t, params, pool[:n]))
    params = ModelParams(lam=1.0, p=0.75, mu=0.25, sigma=1.2, x0=(-0.4,))
    values.append(exact_mixed_moment(5, 2.0, params, [Factor.from_polys([f]) for f in
                                                      (CUBE, MIXED, LIN, LIN, SQ)]))
    return values


def clear_oracle_caches():
    for cache in (tree_oracle._trees, tree_oracle._plan, tree_oracle._shape,
                  tree_oracle._chain_integral, tree_oracle._order_sum):
        cache.cache_clear()


class TestPlan:
    """A factor list is planned once and evaluated at each (t, params)."""

    # the sweep's values since the plan is keyed on the sorted factors (the
    # sha256 of their ``float.hex`` forms)
    SWEEP_DIGEST = "451eb0ca6ee8d844"

    def test_values_bit_identical_warm_and_cold(self):
        clear_oracle_caches()
        cold = sweep_values()
        # every plan of the sweep is built now, and most time integrals
        assert sweep_values() == cold
        digest = hashlib.sha256(" ".join(float(v).hex() for v in cold).encode())
        assert digest.hexdigest()[:16] == self.SWEEP_DIGEST

    def test_new_horizon_reuses_the_plan(self):
        factors = [Factor.from_polys([f]) for f in ([1.0], LIN, SQ)]
        exact_mixed_moment(3, 1.0, SLOW, factors)
        info = tree_oracle._plan.cache_info()
        # equal factors built afresh hash alike, so they find the plan too
        again = [Factor.from_polys([f]) for f in ([1.0], LIN, SQ)]
        for t in (1.5, 2.5):
            exact_mixed_moment(3, t, SLOW, again)
        after = tree_oracle._plan.cache_info()
        assert (after.misses, after.hits) == (info.misses, info.hits + 2)

    def test_factor_orders_share_one_plan(self):
        # the moment is symmetric in its factors: every order of one
        # multiset finds the one plan and gives the same bits
        factors = [Factor.from_polys([f]) for f in ([1.0], LIN, SQ)]
        tree_oracle._plan.cache_clear()
        values = {exact_mixed_moment(3, 1.3, SLOW, list(order))
                  for order in itertools.permutations(factors)}
        info = tree_oracle._plan.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        assert len(values) == 1

    def test_plan_cache_is_bounded(self):
        for c in range(20):
            exact_mixed_moment(2, 1.0, SLOW, [FUNC_X, Func1D.polynomial([float(c), 1.0])])
        info = tree_oracle._plan.cache_info()
        assert info.currsize == info.maxsize == 8

    def test_returned_tree_list_cannot_change_the_cache(self):
        want = exact_mixed_moment(3, 1.0, SLOW, [FUNC_X, X2, FUNC_X])
        trees = enumerate_trees(3)
        trees.reverse()
        trees[0] = trees[1]
        del trees[2:]
        assert len(enumerate_trees(3)) == 7
        assert exact_mixed_moment(3, 1.0, SLOW, [FUNC_X, X2, FUNC_X]) == want


class TestPolynomialKernelCrossCheck:
    """A two-term 2-D kernel whose slots are sums of coordinate products:
    the oracle takes each slot as one coefficient array, and the forward
    equations take one product at a time, so they meet term by term after
    expanding every slot multilinearly into its products."""

    PARAMS = ModelParams(lam=1.0, p=0.75, mu=0.5, sigma=1.0, dim=2, x0=(0.5, -0.3))
    # (coef, slots); a slot is a list of (weight, per-coordinate vectors)
    TERMS = [
        (0.7, [[(1.0, [LIN, [1.0]]), (-0.5, [[1.0], SQ])],
               [(1.0, [LIN, LIN]), (0.4, [[1.0], [1.0]])]]),
        (-1.3, [[(1.0, [[1.0], LIN]), (2.0, [SQ, [1.0]])],
                [(1.0, [LIN, [0.0, 0.5]]), (-1.0, [[1.0], [1.0]])]]),
    ]

    @staticmethod
    def slot(atoms) -> Factor:
        return Factor.combine((w, Factor.from_polys(vectors)) for w, vectors in atoms)

    def kernel(self) -> Kernel:
        return Kernel.tensor_sum(
            [(coef, [self.slot(s) for s in slots]) for coef, slots in self.TERMS],
            dim=2)

    def forward(self, t, slots) -> float:
        return sum(math.prod(w for w, _ in choice) *
                   mixed_moment_forward(t, self.PARAMS, [v for _, v in choice])
                   for choice in itertools.product(*slots))

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_terms_against_forward_equations(self, t):
        for (coef, slots), (_, factors) in zip(self.TERMS, self.kernel().terms):
            assert len(np.flatnonzero(factors[0].coeffs)) == 2
            got = exact_mixed_moment(2, t, self.PARAMS, factors)
            assert got == pytest.approx(self.forward(t, slots), rel=1e-11, abs=0.0)

    def test_run_oracle_crosscheck(self):
        # a config's kernel comes from its spec: each slot's atoms expanded
        # into the rank-1 products that ``forward`` sums, 8 terms in all
        spec = {"dim": 2, "terms": [
            {"coef": coef * math.prod(w for w, _ in choice),
             "slots": [vectors for _, vectors in choice]}
            for coef, slots in self.TERMS for choice in itertools.product(*slots)]}
        config = ExperimentConfig.from_dict({
            "params": {"lambda": 1.0, "p": 0.75, "mu": 0.5, "sigma": 1.0,
                       "dim": 2, "x0": [0.5, -0.3]},
            "kernel": spec, "t_grid": [0.5, 1.5], "replicas": 4000, "seed": 29})
        assert len(config.kernel.terms) == 8
        report = run_oracle_crosscheck(config)
        for check, t in zip(report.checks, config.t_grid, strict=True):
            want = sum(coef * self.forward(t, slots) for coef, slots in self.TERMS)
            assert check.target == pytest.approx(want, rel=1e-11)
        assert report.passed, report.checks

    def test_crosscheck_plans_each_term_once(self):
        # nine slot lists are more than the plan cache keeps: taken time by
        # time, every term would be planned again at every grid time
        terms = [{"coef": 1.0, "slots": [[[0.1 * c, 1.0]], [[0.0, 1.0]]]}
                 for c in range(9)]
        config = ExperimentConfig.from_dict({
            "params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
            "kernel": {"dim": 1, "terms": terms}, "t_grid": [0.5, 1.0, 1.5],
            "replicas": 50, "seed": 5})
        tree_oracle._plan.cache_clear()
        run_oracle_crosscheck(config)
        info = tree_oracle._plan.cache_info()
        assert (info.misses, info.hits) == (9, 18)

import gc
import itertools
import math
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branching_ou import kernels
from branching_ou.kernels import Factor, Kernel, hoeffding_table, substitute_partition
from branching_ou.model import (ArityCapError, BudgetExceededError, ModelParams,
                                classify, derive)
from branching_ou.ou import Func1D, default_rule
from branching_ou import ustats
from branching_ou.simulator import FarmLevel, ParticleSnapshot
from branching_ou.ustats import (
    normalized_u_statistic,
    normalized_u_statistics,
    partition_coefficients,
    set_partitions,
    u_statistic,
    u_statistics,
    v_statistic,
    v_statistics,
)

from helpers import FUNC_ONE, FUNC_X, brute_u, brute_v

PARAMS = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}


def snap(*values):
    return ParticleSnapshot(t=1.0, positions=np.asarray(values, float).reshape(-1, 1))


def kernel_xy(symmetric=True):
    return Kernel.from_slot_funcs([FUNC_X, FUNC_X], symmetric=symmetric)


class TestPartitions:
    @pytest.mark.parametrize("n", sorted(BELL))
    def test_bell_numbers(self, n):
        parts = set_partitions(n)
        assert len(parts) == BELL[n]
        assert len(set(parts)) == BELL[n]
        for p in parts:
            assert sorted(i for b in p for i in b) == list(range(1, n + 1))

    def test_coefficients_n2(self):
        coeffs = partition_coefficients(2)
        assert coeffs[((1,), (2,))] == 1
        assert coeffs[((1, 2),)] == -1

    def test_singleton_partition_always_one(self):
        for n in range(1, 6):
            coeffs = partition_coefficients(n)
            discrete = tuple((i,) for i in range(1, n + 1))
            assert coeffs[discrete] == 1

    def test_pair_blocks_sign_rule(self):
        # partitions made of 1- and 2-blocks carry (-1)^(number of 2-blocks)
        for n in range(2, 6):
            coeffs = partition_coefficients(n)
            for part, a in coeffs.items():
                if all(len(b) <= 2 for b in part):
                    k = sum(1 for b in part if len(b) == 2)
                    assert a == (-1) ** k

    def test_closed_form_product_over_blocks(self):
        for n in range(1, 6):
            coeffs = partition_coefficients(n)
            for part, a in coeffs.items():
                want = 1
                for b in part:
                    want *= (-1) ** (len(b) - 1) * math.factorial(len(b) - 1)
                assert a == want

    def test_expansion_n1(self):
        assert list(partition_coefficients(1).items()) == [(((1,),), 1)]

    def test_expansion_cap(self):
        assert len(partition_coefficients(6)) == 203
        with pytest.raises(ArityCapError):
            partition_coefficients(7)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_inversion_against_brute_force(self, n):
        # sum_J a_J V(f_J) must reproduce the off-diagonal sum exactly
        rng = np.random.default_rng(n)
        pts = rng.integers(-3, 4, size=5).astype(float)
        fn = lambda *xs: float(np.prod([x + i for i, x in enumerate(xs)]))
        want = brute_u(pts, fn, n)
        total = 0.0
        for part, a in partition_coefficients(n).items():
            def merged(*ys, _part=part):
                full = [None] * n
                for j, b in enumerate(_part):
                    for i in b:
                        full[i - 1] = ys[j]
                return fn(*full)
            total += a * brute_v(pts, merged, len(part))
        assert total == want


class TestVStatistic:
    def test_tensor_example(self):
        assert v_statistic(snap(1.0, 2.0), kernel_xy()) == 9.0

    def test_linear_statistic(self):
        f = Kernel.from_slot_funcs([FUNC_X])
        assert v_statistic(snap(1.0, 2.0, -0.5), f) == pytest.approx(2.5)

    def test_constant_kernel_counts(self):
        f = Kernel.from_slot_funcs([FUNC_ONE, FUNC_ONE, FUNC_ONE])
        assert v_statistic(snap(*range(4)), f) == pytest.approx(4**3)

    def test_empty_snapshot(self):
        empty = ParticleSnapshot(t=0.0, positions=np.empty((0, 1)))
        assert v_statistic(empty, kernel_xy()) == 0.0

    def test_black_box_matches_brute(self):
        f = Kernel.black_box(
            lambda args: args[0][:, 0] ** 2 * args[1][:, 0], arity=2, dim=1
        )
        pts = np.array([0.5, -1.0, 2.0])
        want = brute_v(pts, lambda a, b: a**2 * b, 2)
        assert v_statistic(snap(*pts), f) == pytest.approx(want, abs=1e-12)

    def test_budget(self):
        # 101^4 evaluations, just past the 1e8 budget (100^4 equals it)
        f = Kernel.black_box(lambda args: args[0][:, 0], arity=4, dim=1)
        with pytest.raises(BudgetExceededError):
            v_statistic(snap(*range(101)), f)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            v_statistic(
                ParticleSnapshot(t=0.0, positions=np.zeros((3, 2))), kernel_xy()
            )

    def test_level_of_several_replicas_refused(self):
        # a snapshot is a one-replica level; a wider one is not read as its
        # first replica
        level = FarmLevel(1.0, np.arange(4.0).reshape(-1, 1), np.array([2, 2]))
        for strategy in ("naive", "inclusion-exclusion"):
            with pytest.raises(ValueError):
                u_statistic(level, kernel_xy(), strategy)
        with pytest.raises(ValueError):
            v_statistic(level, kernel_xy())
        with pytest.raises(ValueError):
            normalized_u_statistic(level, kernel_xy(), 2, classify(PARAMS), derive(PARAMS))


class TestUStatistic:
    def test_tensor_example_both_strategies(self):
        s = snap(1.0, 2.0)
        assert u_statistic(s, kernel_xy(), "naive") == 4.0
        assert u_statistic(s, kernel_xy(), "inclusion-exclusion") == 4.0

    def test_small_count_gives_zero(self):
        s = snap(3.0)
        assert u_statistic(s, kernel_xy(), "naive") == 0.0
        assert u_statistic(s, kernel_xy(), "inclusion-exclusion") == 0.0

    def test_injective_tuple_count(self):
        f = Kernel.from_slot_funcs([FUNC_ONE, FUNC_ONE])
        s = snap(*range(7))
        assert u_statistic(s, f, "naive") == pytest.approx(42.0)
        assert u_statistic(s, f, "inclusion-exclusion") == pytest.approx(42.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_strategies_agree_exactly_on_integer_lattice(self, seed):
        # integer positions and coefficients keep every evaluation an exact
        # float integer, so the two strategies must agree bit for bit
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 13))
        pts = rng.integers(-2, 3, size=m).astype(float)
        terms = []
        for _ in range(int(rng.integers(1, 3))):
            slots = tuple(
                Factor.from_polys([rng.integers(-2, 3, size=3).astype(float)])
                for _ in range(n)
            )
            terms.append((float(rng.integers(-2, 3)), slots))
        f = Kernel.tensor_sum(terms, dim=1)
        s = snap(*pts)
        assert u_statistic(s, f, "naive") == u_statistic(s, f, "inclusion-exclusion")

    def test_matches_brute_force_floats(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=6)
        f = Kernel.from_slot_funcs([FUNC_X, Func1D.polynomial([1.0, 0.0, 1.0])])
        want = brute_u(pts, lambda a, b: a * (1 + b * b), 2)
        assert u_statistic(snap(*pts), f, "naive") == pytest.approx(want, rel=1e-12)
        assert u_statistic(snap(*pts), f, "inclusion-exclusion") == pytest.approx(
            want, rel=1e-12
        )

    def test_one_budget_counts_each_enumeration_tuples(self, monkeypatch):
        # kernels.index_chunks alone reads the budget: lowered to 4^3, every
        # black-box enumeration of arity 3 runs on 4 particles or quadrature
        # nodes, and on 5 (5^3 index tuples) is refused before evaluating
        monkeypatch.setattr(kernels, "BLACKBOX_BUDGET", 4**3)
        rows = []

        def fn(args):
            rows.append(len(args[0]))
            return args[0][:, 0] * args[1][:, 0] * args[2][:, 0]

        bb = Kernel.black_box(fn, arity=3, dim=1, symmetric=True)
        runs = {
            "V": lambda m: v_statistic(snap(*range(m)), bb),
            "U": lambda m: u_statistic(snap(*range(m)), bb),
            "naive U": lambda m: u_statistic(snap(*range(m)), bb, "naive"),
            "table": lambda m: hoeffding_table(bb, PARAMS, default_rule(PARAMS, m)),
        }
        # rows evaluated at 4: every tuple; the 4 * 3 * 2 injective ones, by
        # either strategy; the total integral's
        within = {"V": 64, "U": 24, "naive U": 24, "table": 64}
        for name, run in runs.items():
            rows.clear()
            run(4)
            assert sum(rows) == within[name], name
            rows.clear()
            with pytest.raises(BudgetExceededError, match="5 x 5 x 5 black-box"):
                run(5)
            assert rows == [], name

    def test_naive_budget(self):
        # 102^4 index tuples, past the 1e8 budget: the naive U-statistic
        # enumerates all of them and masks out the non-injective ones
        f = Kernel.from_slot_funcs([FUNC_X, FUNC_X, FUNC_X, FUNC_X])
        with pytest.raises(BudgetExceededError):
            u_statistic(snap(*range(102)), f, "naive")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            u_statistic(snap(1.0, 2.0), kernel_xy(), "magic")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=8),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, values, rnd):
        values = [float(v) for v in values]
        shuffled = list(values)
        rnd.shuffle(shuffled)
        f = kernel_xy()
        assert u_statistic(snap(*values), f) == u_statistic(snap(*shuffled), f)

    def test_merged_kernels_memoized_and_bounded(self):
        # an equal kernel reuses its plan and gives the same bits; a stream
        # of fresh kernels stays within the cache bound, and black boxes are
        # not cached
        s = snap(0.5, -1.5, 2.0, 1.0)
        first = u_statistic(s, kernel_xy())
        hits = ustats._plan.cache_info().hits
        assert u_statistic(s, kernel_xy()) == first
        assert ustats._plan.cache_info().hits == hits + 1
        for c in range(20):
            u_statistic(s, Kernel.from_slot_funcs(
                [FUNC_X, Func1D.polynomial([float(c), 1.0])]))
        info = ustats._plan.cache_info()
        assert info.currsize == info.maxsize
        u_statistic(s, Kernel.black_box(lambda xs: xs[0][:, 0], arity=2, dim=1))
        assert ustats._plan.cache_info() == info

    def test_scaling_exact(self):
        f = kernel_xy()
        tripled = Kernel.tensor_sum([(3.0 * c, slots) for c, slots in f.terms],
                                    dim=f.dim, symmetric=f.symmetric)
        s = snap(0.5, -1.5, 2.0)
        assert u_statistic(s, tripled) == 3.0 * u_statistic(s, f)



def positive_black_box_and_twin():
    """x^2 (1 + y^2)(1 + z^2) + 1 as a black box and as a tensor sum; every
    value is positive, so the sums carry no cancellation."""
    def fn(args):
        x, y, z = (a[:, 0] for a in args)
        return x**2 * (1.0 + y**2) * (1.0 + z**2) + 1.0

    sq = Factor.from_polys([[0.0, 0.0, 1.0]])
    one_plus_sq = Factor.from_polys([[1.0, 0.0, 1.0]])
    twin = Kernel.tensor_sum(
        [(1.0, (sq, one_plus_sq, one_plus_sq)), (1.0, (Factor.constant(1.0, 1),) * 3)],
        dim=1,
    )
    return Kernel.black_box(fn, arity=3, dim=1), twin


class TestBatchedBlackBox:
    SNAPSHOTS = {
        "duplicated": snap(0.5, 0.5, -1.0, 2.0, 0.5, -1.0),
        # 41^3 = 68,921 index tuples: more than one chunk
        "two_chunks": snap(*np.random.default_rng(11).normal(size=41)),
    }

    @pytest.mark.parametrize("name", sorted(SNAPSHOTS))
    def test_v_statistic_matches_twin(self, name):
        bb, twin = positive_black_box_and_twin()
        s = self.SNAPSHOTS[name]
        assert v_statistic(s, bb) == pytest.approx(v_statistic(s, twin), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(SNAPSHOTS))
    def test_naive_u_statistic_matches_twin(self, name):
        bb, twin = positive_black_box_and_twin()
        s = self.SNAPSHOTS[name]
        assert u_statistic(s, bb, "naive") == pytest.approx(u_statistic(s, twin),
                                                            rel=1e-12)

    @pytest.mark.parametrize("name", sorted(SNAPSHOTS))
    def test_u_statistic_strategies_give_the_same_bits(self, name):
        # a black box's U-statistic enumerates injective tuples either way
        bb, _ = positive_black_box_and_twin()
        s = self.SNAPSHOTS[name]
        assert u_statistic(s, bb) == u_statistic(s, bb, "naive")


class TestHoeffdingDecompositionOfU:
    @pytest.mark.parametrize("n", [2, 3])
    def test_projection_decomposition_identity(self, n):
        # U^n(f) = sum_k binom(n, k) (m-k)!/(m-n)! U^k(order-k projection)
        from branching_ou.kernels import project
        from branching_ou.ou import Func1D, default_rule

        x2 = Func1D.polynomial([0.0, 0.0, 1.0])
        f = Kernel.from_slot_funcs([x2] * n, symmetric=True)
        rng = np.random.default_rng(3)
        pts = rng.normal(size=6)
        s = snap(*pts)
        m = 6
        lhs = u_statistic(s, f, "naive")
        rhs = 0.0
        for k in range(n + 1):
            proj = project(f, range(1, k + 1), PARAMS)
            uk = proj if k == 0 else u_statistic(s, proj, "naive")
            rhs += math.comb(n, k) * math.perm(m - k, n - k) * uk
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestHoeffdingNormalized:
    def test_canonical_slow_normalization(self):
        s = snap(*np.linspace(-1, 1, 9))
        f = kernel_xy()
        consts = derive(PARAMS)
        regime = classify(PARAMS)
        got = normalized_u_statistic(s, f, 2, regime, consts)
        want = u_statistic(s, f) / 9.0
        assert got == pytest.approx(want, rel=1e-12)

    def test_order_zero_slow_normalization(self):
        # f(x, y) = x + y has order 0: scaling count^{-(n - k/2)} = count^{-3/2}
        f = Kernel.tensor_sum(
            [
                (1.0, (Factor.from_polys([[0.0, 1.0]]), Factor.constant(1.0, 1))),
                (1.0, (Factor.constant(1.0, 1), Factor.from_polys([[0.0, 1.0]]))),
            ],
            dim=1, symmetric=True,
        )
        s = snap(*np.linspace(-1, 1, 4))
        consts = derive(PARAMS)
        regime = classify(PARAMS)
        got = normalized_u_statistic(s, f, 1, regime, consts)
        want = u_statistic(s, f) * 4.0 ** -1.5
        assert got == pytest.approx(want, rel=1e-12)

    def test_fast_normalization(self):
        params = ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0)
        consts = derive(params)
        regime = classify(params)
        s = ParticleSnapshot(t=2.0, positions=np.array([[0.3], [-0.4], [1.0]]))
        f = kernel_xy()
        got = normalized_u_statistic(s, f, 2, regime, consts)
        want = u_statistic(s, f) * math.exp(-(0.5 * 2 - 0.1 * 2) * 2.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_count_error(self):
        empty = ParticleSnapshot(t=1.0, positions=np.empty((0, 1)))
        with pytest.raises(ValueError):
            normalized_u_statistic(empty, kernel_xy(), 2, classify(PARAMS),
                                   derive(PARAMS))


def reference_v(positions, f):
    """Tensor V-statistic of one snapshot from a ``.sum()`` per slot."""
    out = 0.0
    for coef, slots in f.terms:
        prod = coef
        for fac in slots:
            prod *= float(fac(positions).sum())
        out += prod
    return out


def reference_u(positions, f):
    """(U-statistic, sum of |a_J| |V_J|) of one snapshot: the partition
    expansion over per-snapshot reference V-statistics."""
    if positions.shape[0] < f.arity:
        return 0.0, 0.0
    pieces = [a * reference_v(positions, substitute_partition(f, J))
              for J, a in partition_coefficients(f.arity).items()]
    return sum(pieces), sum(abs(p) for p in pieces)


def ragged_level(counts, dim, seed):
    rng = np.random.default_rng(seed)
    return FarmLevel(3.0, rng.normal(0.3, 1.2, size=(sum(counts), dim)),
                     np.array(counts, dtype=np.int64))


POLY_KERNELS = {
    1: Kernel.tensor_sum([(2.0, (Factor.from_polys([[1.0, -0.5, 0.25]]),)),
                          (-1.0, (Factor.from_polys([[0.0, 1.0]]),))], dim=1),
    2: Kernel.tensor_sum([(1.0, (Factor.from_polys([[0.0, 1.0]]),
                                 Factor.from_polys([[0.0, 1.0]]))),
                          (0.5, (Factor.from_polys([[-1.0, 0.0, 1.0]]),
                                 Factor.constant(1.0, 1)))], dim=1),
    3: Kernel.from_slot_funcs([FUNC_X, Func1D.polynomial([0.0, 0.0, 1.0]), FUNC_X]),
    4: Kernel.from_slot_funcs([FUNC_X] * 4, symmetric=True),
}
# extinct replicas, replicas with fewer particles than the arity, and
# populations up to a few hundred
COUNTS = [0, 1, 2, 3, 0, 4, 7, 30, 1, 250, 0, 64]


class TestBatchedStatistics:
    @pytest.mark.parametrize("n", sorted(POLY_KERNELS))
    def test_matches_per_snapshot_reference(self, n):
        f = POLY_KERNELS[n]
        level = ragged_level(COUNTS, 1, seed=n)
        v = v_statistics(level, f)
        u = u_statistics(level, f)
        assert v.shape == u.shape == (len(COUNTS),)
        for i, s in enumerate(level):
            want_v = reference_v(s.positions, f)
            assert v[i] == pytest.approx(want_v, rel=1e-12, abs=1e-300)
            want_u, scale = reference_u(s.positions, f)
            assert abs(u[i] - want_u) <= 1e-12 * scale
            if s.count < n:
                assert u[i] == 0.0
            assert u_statistic(s, f) == pytest.approx(u[i], rel=1e-12, abs=1e-12 * scale)
        assert np.all(v[level.counts == 0] == 0.0)

    def test_two_dim_multi_term_kernel(self):
        def slot(*coeffs):
            return Factor.from_polys([list(c) for c in coeffs])

        f = Kernel.tensor_sum(
            [(1.0, (slot([0, 1], [1]), slot([1], [0, 1]), slot([0, 1], [0, 1]))),
             (-0.7, (slot([1, 0, 1], [1]), slot([1], [1]), slot([0, 1], [1]))),
             (0.2, (slot([1], [0, 0, 1]), slot([0, 1], [0, 1]), slot([1], [1])))],
            dim=2)
        level = ragged_level(COUNTS, 2, seed=5)
        v = v_statistics(level, f)
        u = u_statistics(level, f)
        for i, s in enumerate(level):
            assert v[i] == pytest.approx(reference_v(s.positions, f), rel=1e-12)
            want_u, scale = reference_u(s.positions, f)
            assert abs(u[i] - want_u) <= 1e-12 * scale

    def test_integer_positions_against_brute_force(self):
        level = FarmLevel(1.0, np.array([[1.0], [-2.0], [3.0], [0.5], [2.0]]),
                          np.array([3, 0, 2], dtype=np.int64))
        f = Kernel.from_slot_funcs([FUNC_X, Func1D.polynomial([1.0, 1.0])])
        got = u_statistics(level, f)
        for i, s in enumerate(level):
            want = brute_u(s.positions[:, 0], lambda a, b: a * (1.0 + b), 2)
            assert got[i] == pytest.approx(want, abs=1e-12)

    def test_normalized_matches_per_snapshot(self):
        f = POLY_KERNELS[2]
        level = ragged_level([c for c in COUNTS if c], 1, seed=9)
        consts = derive(PARAMS)
        regime = classify(PARAMS)
        got = normalized_u_statistics(level, f, 1, regime, consts)
        for i, s in enumerate(level):
            want = normalized_u_statistic(s, f, 1, regime, consts)
            assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-15)
        with pytest.raises(ValueError):
            normalized_u_statistics(ragged_level([2, 0], 1, seed=1), f, 1,
                                    regime, consts)

    def test_black_box_falls_back_per_replica(self):
        f = Kernel.black_box(lambda args: args[0][:, 0] * args[1][:, 0] ** 2,
                             arity=2, dim=1)
        level = ragged_level([3, 0, 1, 5], 1, seed=2)
        got_v = v_statistics(level, f)
        got_u = u_statistics(level, f)
        for i, s in enumerate(level):
            x = s.positions[:, 0]
            assert got_v[i] == pytest.approx(brute_v(x, lambda a, b: a * b * b, 2),
                                             abs=1e-12)
            assert got_u[i] == pytest.approx(brute_u(x, lambda a, b: a * b * b, 2),
                                             abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            v_statistics(ragged_level([2, 3], 2, seed=0), kernel_xy())

    def test_no_reference_cycle_keeps_the_level(self):
        # a cycle through a level would keep its positions alive until the
        # cyclic collector runs, raising the peak memory of a farm loop
        xy = Factor.from_polys([[0.0, 1.0], [1.0, 0.0, 1.0]])
        f = Kernel.from_slot_funcs([xy, xy, Factor.constant(1.0, 2)])
        level = ragged_level(COUNTS, 2, seed=3)
        alive = weakref.ref(level)
        gc.disable()
        try:
            u_statistics(level, f)
            v_statistics(level, f)
            del level
            assert alive() is None
        finally:
            gc.enable()


# small coefficients and positions, with signed zeros among the positions
COEFS = st.sampled_from([1.0, -1.0, 0.5, -0.75, 2.0, 3.0])
SLOT_COEFS = st.sampled_from([0.0, 1.0, -1.0, 0.5, -1.5, 2.0])
POSITIONS = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-2.0, 2.0, allow_subnormal=False))


@st.composite
def kernels_and_levels(draw):
    """A tensor-sum kernel of arity 1-4 and dim 1-2 whose terms draw their
    slots from a small pool (so slots repeat), among them a constant and
    polynomials of several monomials, and a ragged level of up to four
    replicas of at most six particles, extinct ones included."""
    dim = draw(st.integers(1, 2))
    arity = draw(st.integers(1, 4))
    pool = [Factor.constant(1.0, dim)]
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.tuples(*[st.integers(1, 3)] * dim))
        coeffs = draw(st.lists(SLOT_COEFS, min_size=math.prod(shape),
                               max_size=math.prod(shape)))
        pool.append(Factor(np.reshape(coeffs, shape)))
    pick = st.integers(0, len(pool) - 1)
    terms = [(draw(COEFS), [pool[i] for i in draw(st.lists(pick, min_size=arity,
                                                           max_size=arity))])
             for _ in range(draw(st.integers(1, 3)))]
    counts = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    values = draw(st.lists(POSITIONS, min_size=sum(counts) * dim,
                           max_size=sum(counts) * dim))
    level = FarmLevel(1.0, np.reshape(np.array(values, dtype=float), (-1, dim)),
                      np.array(counts, dtype=np.int64))
    return Kernel.tensor_sum(terms, dim=dim), level


def python_value(f, rows):
    """The kernel at one tuple of rows, in raw Python floats."""
    total = 0.0
    for coef, slots in f.terms:
        prod = coef
        for fac, row in zip(slots, rows):
            prod *= sum(c * math.prod(float(x) ** k for x, k in zip(row, idx))
                        for idx, c in np.ndenumerate(fac.coeffs))
        total += prod
    return total


def absolute_scale(f, positions):
    """Sum over the partition expansion of |a_J| times the V-statistic of
    the J-merged kernel with every coefficient replaced by its absolute
    value, at the absolute positions: a bound on the sum of the absolute
    terms of any evaluation order."""
    g = Kernel.tensor_sum([(abs(c), [Factor(np.abs(s.coeffs)) for s in slots])
                           for c, slots in f.terms], dim=f.dim)
    x = np.abs(positions)
    return sum(abs(a) * reference_v(x, substitute_partition(g, J))
               for J, a in partition_coefficients(f.arity).items())


class TestPlanAgainstEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(kernels_and_levels())
    def test_statistics_match_naive_and_brute_force(self, case):
        f, level = case
        v = v_statistics(level, f)
        u = u_statistics(level, f)
        for i, s in enumerate(level):
            scale = absolute_scale(f, s.positions)
            want_v = brute_v(s.positions, lambda *rows: python_value(f, rows), f.arity)
            assert abs(v[i] - want_v) <= 1e-12 * scale
            if s.count < f.arity:
                assert u[i] == 0.0
            assert abs(u[i] - u_statistic(s, f, "naive")) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# high-degree slots against exact rational sums


def hermite_e(k):
    """Integer power coefficients of He_k by He_{j+1} = x He_j - j He_{j-1}."""
    prev, cur = [0], [1]
    for j in range(k):
        prev, cur = cur, [a - j * b for a, b in
                          itertools.zip_longest([0] + cur, prev, fillvalue=0)]
    return [float(c) for c in cur]


def exact_slot(coeffs, point):
    """The stored coefficient array at ``point`` in exact rationals, by
    Horner's rule along the first coordinate."""
    if coeffs.ndim == 0:
        return Fraction(float(coeffs))
    acc, x = Fraction(0), Fraction(float(point[0]))
    for sub in coeffs[::-1]:
        acc = acc * x + exact_slot(sub, point[1:])
    return acc


def exact_u(f, positions):
    """(U-statistic, sum of |kernel| over the tuples), exactly, by
    enumerating the injective tuples."""
    total = spread = Fraction(0)
    for coef, slots in f.terms:
        values = [[exact_slot(s.coeffs, p) for p in positions] for s in slots]
        for idx in itertools.permutations(range(len(positions)), f.arity):
            prod = Fraction(coef)
            for v, i in zip(values, idx):
                prod *= v[i]
            total += prod
            spread += abs(prod)
    return total, spread


HIGH_DEGREE = {
    # (slot coefficient vectors per coordinate, arity, particles, scale, seed)
    "1d_he20_he20": ([hermite_e(20)], 2, 8, 1.5, 2),
    "3d_arity2_degree12": ([hermite_e(12)] * 3, 2, 8, 0.7, 2),
    "2d_arity3_degree8": ([hermite_e(8)] * 2, 3, 7, 1.5, 9),
}


class TestHighDegreeSlots:
    @pytest.mark.parametrize("name", sorted(HIGH_DEGREE))
    def test_u_statistic_matches_exact_rationals(self, name):
        # power coefficients of merged slots cancel, losing about 1e-7 of
        # these U-statistics; slot values multiplied per particle do not
        vectors, arity, m, scale, seed = HIGH_DEGREE[name]
        f = Kernel.from_slot_funcs([Factor.from_polys(vectors)] * arity)
        positions = np.random.default_rng(seed).normal(0.0, scale, size=(m, len(vectors)))
        want, spread = exact_u(f, positions)
        assert spread <= 10 * abs(want)  # no cancellation in the statistic itself
        got = u_statistic(ParticleSnapshot(t=1.0, positions=positions), f)
        assert float(abs(Fraction(got) - want) / abs(want)) <= 1e-12

    def test_one_segment_sum_per_distinct_block(self, monkeypatch):
        # the sums run over products of slot values, one per multiset of
        # slots that a particle feeds, never over the monomials of merged
        # slots (up to 19^2 of them here)
        rng = np.random.default_rng(6)
        a, b, c = (Factor(rng.normal(size=(7, 7))) for _ in range(3))
        f = Kernel.tensor_sum([(1.0, (a, b, a)), (-0.5, (c, c, b))], dim=2)
        blocks = {frozenset(Counter(slots[i - 1] for i in block).items())
                  for J in set_partitions(3) for _, slots in f.terms for block in J}
        calls = []
        original = FarmLevel.segment_sum

        def counted(self, values):
            calls.append(1)
            return original(self, values)

        level = ragged_level(COUNTS, 2, seed=6)
        monkeypatch.setattr(FarmLevel, "segment_sum", counted)
        u = u_statistics(level, f)
        assert 0 < len(calls) <= len(blocks)
        for i, s in enumerate(level):
            want_u, scale = reference_u(s.positions, f)
            assert abs(u[i] - want_u) <= 1e-9 * scale

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from branching_ou import simulator
from branching_ou.model import ModelParams, derive, extinction_by
from branching_ou.simulator import (
    AllExtinctError,
    FarmLevel,
    ResourceCapError,
    _run_batch,
    condition_on_survival,
    position_sum,
    simulate,
    simulate_farm,
)
from branching_ou.kernels import Kernel
from branching_ou.ou import stationary_std
from branching_ou.tree_oracle import exact_mixed_moment
from branching_ou.ustats import v_statistics

from helpers import FUNC_X, extinction_ode, full_tree_farm, mean_se

SLOW = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)
FAST = ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0)


def farm_counts(farm_level):
    return np.array([s.count for s in farm_level])


class TestBasics:
    def test_time_zero_single_particle_at_start(self):
        params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, x0=(2.5,))
        s = simulate(params, 0.0, 1)
        assert s.count == 1
        assert np.allclose(s.positions, [[2.5]])

    def test_determinism(self):
        a = simulate(SLOW, 4.0, 123)
        b = simulate(SLOW, 4.0, 123)
        assert a.count == b.count
        assert np.array_equal(a.positions, b.positions)

    def test_farm_stream_pinned(self, monkeypatch):
        # three batches, the last partial; the digest of the counts pins
        # the RNG stream, and that of the positions the motion and the
        # replica order
        monkeypatch.setattr(simulator, "FARM_BATCH", 16)
        params = ModelParams(lam=1.0, p=0.75, mu=0.5, sigma=2.0, dim=2,
                             x0=(1.0, -1.0))
        farm = simulate_farm(params, (2.0, 0.5), 40, seed=3)
        assert isinstance(farm, list) and [level.t for level in farm] == [0.5, 2.0]
        counts, positions = hashlib.sha256(), hashlib.sha256()
        for level in farm:
            counts.update(farm_counts(level).astype("<i8").tobytes())
            positions.update(np.concatenate([s.positions for s in level])
                             .astype("<f8").tobytes())
        assert counts.hexdigest() == (
            "9d88f829f15c8d1ff5cc6b975f86a72b29f3b3f090b558ddfc27117c9464441b")
        assert positions.hexdigest() == (
            "27a302a09a72f6818667f63b1ab27f6e746e2ef48e908d817d0a302bd246781d")
        in_order = simulate_farm(params, (0.5, 2.0), 40, seed=3)
        for a, b in zip(farm, in_order):
            assert np.array_equal(a.counts, b.counts)
            assert np.array_equal(a.positions, b.positions)

    def test_farm_stream_pinned_repeated_grid(self, monkeypatch):
        # a t = 0 grid point, a repeated time, which draws nothing, and
        # lines that live across several grid times
        monkeypatch.setattr(simulator, "FARM_BATCH", 16)
        params = ModelParams(lam=1.0, p=0.75, mu=0.5, sigma=2.0, dim=2,
                             x0=(1.0, -1.0))
        grid = (0.0, 0.5, 0.5, 2.0, 3.0)
        farm = simulate_farm(params, grid, 40, seed=3)
        assert [level.t for level in farm] == list(grid)
        assert [int(level.counts.sum()) for level in farm] == [40, 50, 50, 93, 126]
        assert np.array_equal(farm[1].positions, farm[2].positions)
        assert np.array_equal(farm[0].positions, np.tile([1.0, -1.0], (40, 1)))
        counts, positions = hashlib.sha256(), hashlib.sha256()
        for level in farm:
            counts.update(level.counts.astype("<i8").tobytes())
            positions.update(level.positions.astype("<f8").tobytes())
        assert counts.hexdigest() == (
            "e69339644168be7944d96cab1f2744549581e2813740715a966f6a01100aae13")
        assert positions.hexdigest() == (
            "00c43aacb6d15813bcc9b7abb9ddf18af54f56c064972a73e181b189af308030")

    @pytest.mark.parametrize("dim", [1, 2])
    def test_counts_do_not_depend_on_the_start(self, dim):
        # the number and order of draws depend only on counts, so farms of
        # one seed from different starts share their genealogies
        farms = [simulate_farm(ModelParams(lam=1.0, p=0.75, mu=0.5, sigma=1.0,
                                           dim=dim, x0=(x,) * dim),
                               (1.0, 2.5, 2.5, 4.0), 300, seed=8)
                 for x in (0.0, 3.0)]
        for a, b in zip(*farms):
            assert np.array_equal(a.counts, b.counts)
            assert not np.array_equal(a.positions, b.positions)

    def test_farm_level_views(self, monkeypatch):
        monkeypatch.setattr(simulator, "FARM_BATCH", 20)  # three batches
        level = simulate_farm(SLOW, (3.0,), 50, seed=9)[0]
        assert len(level) == 50 and level.counts.sum() == level.positions.shape[0]
        snaps = list(level)
        assert all(isinstance(s, FarmLevel) and len(s) == 1 and s.t == 3.0 for s in snaps)
        assert [s.count for s in snaps] == level.counts.tolist()
        assert np.array_equal(np.concatenate([s.positions for s in snaps]),
                              level.positions)
        assert np.array_equal(level[-1].positions, snaps[-1].positions)
        with pytest.raises(IndexError):
            level[50]
        with pytest.raises(ValueError):
            level[0].positions[...] = 0.0
        sums = level.segment_sum(level.positions)
        for s, got in zip(snaps, sums):
            assert got == pytest.approx(s.positions.sum(axis=0), rel=1e-12, abs=1e-12)
        big = level.select(level.counts >= 3)
        assert [s.count for s in big] == [s.count for s in snaps if s.count >= 3]
        assert np.array_equal(
            big.positions, np.concatenate([s.positions for s in snaps if s.count >= 3]))

    def test_resource_cap_raises(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_PARTICLES", 50)
        with pytest.raises(ResourceCapError, match="^replica 0 exceeded "
                           "MAX_PARTICLES=50$") as info:
            simulate(ModelParams(lam=5.0, p=1.0, mu=1.0, sigma=1.0), 2.0, 3)
        assert 0.0 <= info.value.time_reached <= 2.0

    def test_simulate_refuses_over_the_farm_budget(self, monkeypatch):
        # one slow-regime replica expects e^{t / 2} particles, above the 1e8
        # farm budget from t = 36.9 on: refused at time 0, before any draw
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch was simulated")

        monkeypatch.setattr(simulator, "_run_batch", no_batch)
        with pytest.raises(ResourceCapError, match="MAX_FARM_PARTICLES") as info:
            simulate(SLOW, 37.0, 1)
        assert info.value.time_reached == 0.0

    def test_resource_cap_names_replica_in_farm(self, monkeypatch):
        # a Yule farm expecting e^5 ~ 148 particles per replica at t = 1:
        # only some of the 20 replicas pass 200 births, and the one with the
        # most births at the generation the cap trips is named; it passes
        # 200 births in the uncapped farm too
        params = ModelParams(lam=5.0, p=1.0, mu=1.0, sigma=1.0)
        monkeypatch.setattr(simulator, "MAX_PARTICLES", 200)
        with pytest.raises(ResourceCapError,
                           match=r"^replica 7 exceeded MAX_PARTICLES=200$") as info:
            simulate_farm(params, (1.0,), 20, seed=4)
        assert 0.0 <= info.value.time_reached <= 1.0
        assert info.value.time_reached == 0.4414885795878668
        # with p = 1 no particle dies childless: n particles took 2n - 1 births
        monkeypatch.setattr(simulator, "MAX_PARTICLES", 10_000)
        farm = simulate_farm(params, (1.0,), 20, seed=4)
        births = 2 * farm[0].counts - 1
        assert 0 < np.count_nonzero(births > 200) < 20
        assert births[7] > 200

    def test_farm_budget_checked_before_drawing(self, monkeypatch):
        # at t = 20 a slow-regime replica expects e^{10} = 22026.5 particles,
        # so 4539 replicas fit the 1e8 farm budget and 4540 do not
        calls = []

        def fake_batch(params, t_grid, n_replicas, rng):
            calls.append(n_replicas)
            return [(np.empty((0, 1)), np.zeros(n_replicas, dtype=np.int64))
                    for _ in t_grid]

        monkeypatch.setattr("branching_ou.simulator._run_batch", fake_batch)
        monkeypatch.setattr(simulator, "FARM_BATCH", 5000)
        simulate_farm(SLOW, (20.0,), 4539, seed=1)
        assert calls == [4539]
        with pytest.raises(ResourceCapError, match="MAX_FARM_PARTICLES") as info:
            simulate_farm(SLOW, (20.0,), 4540, seed=1)
        assert info.value.time_reached == 0.0
        # the budget sums over the grid: two times at t = 20 need half the replicas
        with pytest.raises(ResourceCapError):
            simulate_farm(SLOW, (20.0, 20.0), 2300, seed=1)
        assert calls == [4539]

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_grid_time_refused(self, t):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simulate_farm(SLOW, (1.0, t), 10, seed=1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simulate(SLOW, t, 1)

    @pytest.mark.parametrize("n_replicas, batch_size", [(0, 10), (-3, 10)])
    def test_bad_count_refused(self, n_replicas, batch_size, monkeypatch):
        # refused before any batch, whatever the batch size
        monkeypatch.setattr(simulator, "FARM_BATCH", batch_size)
        with pytest.raises(ValueError, match="at least 1"):
            simulate_farm(SLOW, (1.0,), n_replicas, seed=1)

    def test_dim2_positions(self):
        params = ModelParams(lam=1.0, p=0.75, mu=0.5, sigma=2.0, dim=2,
                             x0=(1.0, -1.0))
        s = simulate(params, 1.5, 11)
        assert s.positions.shape[1] == 2

    def test_dim2_coordinate_moments(self):
        params = ModelParams(lam=1.0, p=0.75, mu=0.5, sigma=2.0, dim=2,
                             x0=(1.0, -1.0))
        t = 1.5
        farm = simulate_farm(params, (t,), 6000, seed=67)
        means = np.array([s.positions.mean(axis=0) for s in farm[0] if s.count])
        want = np.array([1.0, -1.0]) * math.exp(-0.5 * t)
        for c in range(2):
            m, se = mean_se(means[:, c])
            assert abs(m - want[c]) <= 4 * se
        m2 = np.array([(s.positions**2).mean(axis=0) for s in farm[0] if s.count])
        s2 = 4.0 / (2 * 0.5)
        want2 = want**2 + s2 * (1 - math.exp(-2 * 0.5 * t))
        for c in range(2):
            m, se = mean_se(m2[:, c])
            assert abs(m - want2[c]) <= 4 * se



def generator(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class TestCountsOnly:
    DIM2 = ModelParams(lam=1.0, p=0.75, mu=0.5, sigma=2.0, dim=2, x0=(1.0, -1.0))
    YULE = ModelParams(lam=5.0, p=1.0, mu=1.0, sigma=1.0)

    @pytest.mark.parametrize("p", [0.55, 0.75, 0.9, 1.0])
    def test_counts_match_a_positions_farm_in_law(self, p):
        # the transition-law draw and the simulated genealogy give the same
        # counts in law at both grid times and on the increment between them
        params = ModelParams(lam=1.0, p=p, mu=1.0, sigma=1.0)
        grid, n = (1.5, 3.0), 3000
        want = [level.counts for level in simulate_farm(params, grid, n, seed=17)]
        got = [level.counts for level in simulator.farm_counts(params, grid, n, seed=17)]
        pairs = list(zip(got, want)) + [(got[1] - got[0], want[1] - want[0])]
        for a, b in pairs:
            assert sstats.ks_2samp(a, b).pvalue > 0.01

    def test_law_extinction_and_mean(self):
        t, n = 4.0, 4000
        (level,) = simulator.farm_counts(SLOW, (t,), n, seed=71)
        counts = level.counts
        q = extinction_by(t, SLOW)
        assert abs(np.mean(counts == 0) - q) <= 4 * math.sqrt(q * (1 - q) / n)
        m, se = mean_se(counts)
        assert abs(m - math.exp(derive(SLOW).growth_rate * t)) <= 4 * se

    @pytest.mark.parametrize("params", [SLOW, YULE], ids=["slow", "yule"])
    def test_exact_second_moments(self, params):
        # E N_t^2 = e^{gt} + 2 lam p e^{gt} (e^{gt} - 1) / g, reached in two
        # steps, and E N_s N_t = e^{g(t - s)} E N_s^2 across the step
        g = derive(params).growth_rate
        s, t = (0.3, 0.6) if params is self.YULE else (1.0, 3.0)
        level_s, level_t = simulator.farm_counts(params, (s, t), 20_000, seed=73)

        def second(u):
            e = math.exp(g * u)
            return e + 2.0 * params.lam * params.p * e * (e - 1.0) / g

        n_s, n_t = level_s.counts.astype(float), level_t.counts.astype(float)
        m, se = mean_se(n_t**2)
        assert abs(m - second(t)) <= 4 * se
        m, se = mean_se(n_s * n_t)
        assert abs(m - math.exp(g * (t - s)) * second(s)) <= 4 * se

    def test_paths_and_determinism(self):
        # levels come in increasing time order; t = 0 holds the root; a
        # repeated time draws nothing; an extinct replica stays extinct;
        # one seed gives one farm
        grid = (2.0, 0.0, 0.5, 2.0)
        farm = simulator.farm_counts(SLOW, grid, 400, seed=3)
        assert [level.t for level in farm] == [0.0, 0.5, 2.0, 2.0]
        for level in farm:
            assert level.counts.shape == (400,)
            assert level.positions.shape == (level.counts.sum(), 0)
        assert np.all(farm[0].counts == 1)
        assert np.array_equal(farm[2].counts, farm[3].counts)
        assert (farm[1].counts == 0).any()
        assert np.all(farm[2].counts[farm[1].counts == 0] == 0)
        again = simulator.farm_counts(SLOW, grid, 400, seed=3)
        assert all(np.array_equal(a.counts, b.counts) for a, b in zip(farm, again))
        other = simulator.farm_counts(SLOW, grid, 400, seed=4)
        assert not np.array_equal(farm[2].counts, other[2].counts)

    def test_pure_birth_never_dies(self):
        (level,) = simulator.farm_counts(self.YULE, (1.0,), 2000, seed=5)
        assert level.counts.min() >= 1

    @pytest.mark.parametrize("batch_size", [7, 16, 40])
    def test_batches_hold_their_substreams(self, batch_size, monkeypatch):
        # positions farms come in increasing time order, and batch b holds
        # substream (seed, b)
        monkeypatch.setattr(simulator, "FARM_BATCH", batch_size)
        farm = simulate_farm(self.DIM2, (2.0, 0.5), 40, seed=3)
        assert [level.t for level in farm] == [0.5, 2.0]
        assert [level.counts.shape for level in farm] == [(40,), (40,)]
        grid = np.array([0.5, 2.0])
        for b, lo in enumerate(range(0, 40, batch_size)):
            size = min(batch_size, 40 - lo)
            batch = _run_batch(self.DIM2, grid, size, generator((3, b)))
            for level, (positions, want) in zip(farm, batch):
                rows = slice(level.offsets[lo], level.offsets[lo + size])
                assert np.array_equal(level.counts[lo:lo + size], want)
                assert np.array_equal(level.positions[rows], positions)

    @pytest.mark.parametrize("cap", [("MAX_PARTICLES", 200), ("MAX_GENERATIONS", 3)],
                             ids=["particles", "generations"])
    def test_caps_raise_as_in_a_full_batch(self, cap, monkeypatch):
        # a one-batch farm trips a cap as its batch does on substream
        # (seed, 0); the counts farm grows nothing and meets no cap
        monkeypatch.setattr(simulator, *cap)
        grid = np.array([1.0])
        with pytest.raises(ResourceCapError) as batch:
            _run_batch(self.YULE, grid, 20, generator((4, 0)))
        with pytest.raises(ResourceCapError, match=r"^(replica \d+ exceeded "
                           r"MAX_PARTICLES=200|generation budget "
                           r"MAX_GENERATIONS=3 exhausted)$") as farm:
            simulate_farm(self.YULE, (1.0,), 20, seed=4)
        assert str(farm.value) == str(batch.value)
        assert farm.value.time_reached == batch.value.time_reached
        (level,) = simulator.farm_counts(self.YULE, (1.0,), 20, seed=4)
        assert level.counts.max() > 200

    def test_refusals_as_in_a_full_farm(self, monkeypatch):
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch was simulated")

        monkeypatch.setattr(simulator, "_run_batch", no_batch)
        for farm in (simulate_farm, simulator.farm_counts):
            with pytest.raises(ResourceCapError, match="MAX_FARM_PARTICLES") as info:
                farm(SLOW, (20.0,), 4540, seed=1)
            assert info.value.time_reached == 0.0
            with pytest.raises(ValueError, match="finite and nonnegative"):
                farm(SLOW, (1.0, math.nan), 10, seed=1)
            with pytest.raises(ValueError, match="at least 1"):
                farm(SLOW, (1.0,), 0, seed=1)

    def test_statistics_refuse_a_level_without_positions(self):
        (level,) = simulator.farm_counts(SLOW, (2.0,), 10, seed=1)
        with pytest.raises(ValueError, match="dimension"):
            v_statistics(level, Kernel.from_slot_funcs([FUNC_X], symmetric=True))


class TestCapsProperty:
    # every small run either finishes or stops at a cap, and a cap reports a
    # time inside the horizon; the counts farm meets no cap and finishes
    # unless the farm budget refuses it before any draw.  The caps are
    # patched inside the body: hypothesis refuses function-scoped fixtures
    @settings(max_examples=50, deadline=None)
    @given(params=st.sampled_from([SLOW, FAST, ModelParams(lam=3.0, p=1.0, mu=1.0,
                                                           sigma=1.0)]),
           replicas=st.integers(1, 20), max_particles=st.integers(1, 500),
           max_generations=st.integers(1, 50), t=st.floats(0.0, 8.0),
           seed=st.integers(0, 2**16))
    def test_runs_finish_or_stop_at_a_cap(self, params, replicas, max_particles,
                                          max_generations, t, seed):
        calls = [
            lambda: simulate_farm(params, (t / 2, t), replicas, seed),
            lambda: position_sum(params, t, generator(seed)),
        ]
        with mock.patch.object(simulator, "MAX_PARTICLES", max_particles), \
                mock.patch.object(simulator, "MAX_GENERATIONS", max_generations):
            for call in calls:
                try:
                    call()
                except ResourceCapError as exc:
                    assert 0.0 <= exc.time_reached <= t
        try:
            simulator.farm_counts(params, (t / 2, t), replicas, seed)
        except ResourceCapError as exc:
            assert "MAX_FARM_PARTICLES" in str(exc) and exc.time_reached == 0.0

class TestMotionAndPlacement:
    """The farm moves every tree line by one Gaussian increment in the
    clock ``ou.clock`` and places each step's leaves by replica without a
    sort."""

    @pytest.mark.parametrize("mu, grid", [(120.0, (4.0,)), (50.0, (0.5, 1.5, 1.5, 4.0))],
                             ids=["one_step", "multi_step"])
    def test_large_mu_dt_stays_finite(self, mu, grid):
        # a clock run forward, exp(2 mu dt) - 1, overflows at mu dt = 480;
        # this one has no factor above 1, so no step overflows and every
        # position keeps its OU marginal, variance s^2 (1 - exp(-2 mu t))
        params = ModelParams(lam=1.0, p=0.75, mu=mu, sigma=1.0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            farm = simulate_farm(params, grid, 2000, seed=5)
        s2 = stationary_std(params) ** 2
        for level in farm:
            assert np.isfinite(level.positions).all()
            alive = level.counts > 0
            per_rep = level.segment_sum(level.positions[:, 0] ** 2)[alive] / \
                level.counts[alive]
            m, se = mean_se(per_rep)
            assert abs(m - s2 * -math.expm1(-2.0 * mu * level.t)) <= 4 * se

    def test_placement_is_a_stable_sort_by_replica(self, monkeypatch):
        # three batches, the last partial, a repeated grid time and extinct
        # replicas: every step's placement equals a stable argsort by
        # replica of its generations' leaves, concatenated
        place, interleaved, sizes = simulator._place, [], []

        def checked(leaves, n_replicas, dim):
            pos, counts = place(leaves, n_replicas, dim)
            reps = np.concatenate([np.repeat(ids, first[1:] - first[:-1])
                                   for ids, first, _ in leaves])
            order = np.argsort(reps, kind="stable")
            assert np.array_equal(pos, np.concatenate([x for *_, x in leaves])[order])
            assert np.array_equal(counts, np.bincount(reps, minlength=n_replicas))
            interleaved.append(bool(np.any(order != np.arange(order.size))))
            sizes.append(n_replicas)
            return pos, counts

        monkeypatch.setattr(simulator, "_place", checked)
        monkeypatch.setattr(simulator, "FARM_BATCH", 16)
        params = ModelParams(lam=1.0, p=0.75, mu=0.5, sigma=2.0, dim=2, x0=(1.0, -1.0))
        farm = simulate_farm(params, (0.0, 0.5, 0.5, 2.0, 3.0), 40, seed=3)
        # each batch places at its three steps of positive length
        assert sizes == [16] * 3 + [16] * 3 + [8] * 3
        assert any(interleaved)
        assert (farm[-1].counts == 0).any()

    @pytest.mark.parametrize("seed", range(5))
    def test_place_matches_a_stable_sort(self, seed):
        # random generations with empty ones, replicas with no leaf and
        # replicas holding lines but no leaf in a generation
        rng = np.random.default_rng(seed)
        n_replicas, leaves, reps = 12, [], []
        for _ in range(6):
            ids = np.flatnonzero(rng.random(n_replicas) < 0.4)
            ids = ids[ids != 5]
            n = rng.integers(0, 4, size=ids.size)
            leaves.append((ids, np.concatenate(([0], np.cumsum(n))),
                           rng.standard_normal((int(n.sum()), 3))))
            reps.append(np.repeat(ids, n))
        pos, counts = simulator._place(leaves, n_replicas, 3)
        reps = np.concatenate(reps)
        order = np.argsort(reps, kind="stable")
        assert np.array_equal(pos, np.concatenate([x for *_, x in leaves])[order])
        assert np.array_equal(counts, np.bincount(reps, minlength=n_replicas))
        assert counts[5] == 0

    @pytest.mark.parametrize("grid", [(1.0,), (0.3, 0.3, 0.6, 1.0)], ids=["one", "steps"])
    @pytest.mark.parametrize("cap, match", [
        (("MAX_PARTICLES", 200), r"^replica \d+ exceeded MAX_PARTICLES=200$"),
        (("MAX_GENERATIONS", 12), r"^generation budget MAX_GENERATIONS=12 exhausted$"),
    ], ids=["particles", "generations"])
    def test_caps_raise_inside_the_horizon(self, grid, cap, match, monkeypatch):
        # split times are recovered only for the error: both caps still
        # trip, in a one-step and a several-step farm, at a time in [0, t]
        monkeypatch.setattr(simulator, *cap)
        with pytest.raises(ResourceCapError, match=match) as info:
            simulate_farm(ModelParams(lam=5.0, p=1.0, mu=1.0, sigma=1.0), grid, 20, seed=4)
        assert 0.0 <= info.value.time_reached <= 1.0


class TestFarmLaw:
    """``simulate_farm`` draws only the reconstructed tree over each grid
    step; ``full_tree_farm`` draws every lifetime of the genealogy.  Per
    seed, seven two-sample KS tests at level 0.01 compare the per-replica
    count, sum and sum of squares of the positions (over all coordinates)
    at both grid times and the product of the two sums.  Over the seven
    seeds, 49 tests, more than three failures has probability below 0.002
    for independent tests."""

    SEEDS = range(7)

    @pytest.mark.parametrize("params, grid", [
        (SLOW, (1.5, 3.0)),
        (ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0, x0=(1.0,)), (2.0, 4.0)),
        (ModelParams(lam=1.0, p=0.6, mu=0.5, sigma=2.0, dim=2, x0=(1.0, -1.0)),
         (1.0, 3.0)),
    ], ids=["slow", "fast", "dim2"])
    def test_matches_the_full_tree(self, params, grid):
        def stats(farm):
            sums = [level.segment_sum(level.positions).sum(axis=1) for level in farm]
            squares = [level.segment_sum(level.positions**2).sum(axis=1)
                       for level in farm]
            return [level.counts for level in farm] + sums + squares + \
                [sums[0] * sums[1]]

        failures = 0
        for seed in self.SEEDS:
            got = stats(simulate_farm(params, grid, 6000, seed))
            want = stats(full_tree_farm(params, grid, 6000, seed))
            failures += sum(sstats.ks_2samp(a, b).pvalue < 0.01
                            for a, b in zip(got, want))
        assert failures <= 3


class TestBranchingLaw:
    def test_yule_survival_of_root(self):
        # pure birth: P(count == 1 at t) = exp(-lam t)
        params = ModelParams(lam=1.0, p=1.0, mu=1.0, sigma=1.0)
        farm = simulate_farm(params, (0.7,), 4000, seed=23)
        frac = float(np.mean(farm_counts(farm[0]) == 1))
        want = math.exp(-0.7)
        se = math.sqrt(want * (1 - want) / 4000)
        assert abs(frac - want) <= 4 * se

    def test_extinction_fraction_matches_ode(self):
        farm = simulate_farm(SLOW, (3.0,), 6000, seed=29)
        frac = float(np.mean(farm_counts(farm[0]) == 0))
        want = extinction_ode(3.0, SLOW.lam, SLOW.p)
        se = math.sqrt(want * (1 - want) / 6000)
        assert abs(frac - want) <= 4 * se

    def test_expected_count_growth(self):
        farm = simulate_farm(SLOW, (5.0,), 8000, seed=31)
        mean, se = mean_se(farm_counts(farm[0]))
        assert abs(mean - math.exp(0.5 * 5.0)) <= 4 * se


class TestPositionLaw:
    def test_marginal_matches_ou_law(self):
        # branching does not displace particles: each position is an OU draw
        params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, x0=(1.0,))
        t = 2.0
        farm = simulate_farm(params, (t,), 6000, seed=37)
        per_rep_mean = np.array([s.positions.mean() for s in farm[0] if s.count])
        mean, se = mean_se(per_rep_mean)
        assert abs(mean - math.exp(-t)) <= 4 * se
        per_rep_m2 = np.array([(s.positions**2).mean() for s in farm[0] if s.count])
        m2, se2 = mean_se(per_rep_m2)
        want = math.exp(-2 * t) + 0.5 * (1 - math.exp(-2 * t))
        assert abs(m2 - want) <= 4 * se2


class TestObservables:
    def test_v_martingale_and_mean_one(self):
        grid = (1.0, 2.5, 4.0)
        farm = simulate_farm(SLOW, grid, 6000, seed=41)
        consts = derive(SLOW)
        v = np.stack([
            np.exp(-consts.growth_rate * np.asarray(grid))[k] * farm_counts(farm[k])
            for k in range(3)
        ])
        for k in range(3):
            mean, se = mean_se(v[k])
            assert abs(mean - 1.0) <= 4 * se
        diff, se = mean_se(v[2] - v[1])
        assert abs(diff) <= 4 * se

    def test_farm_extinction_is_absorbing(self):
        # a replica with no particles at one grid time has none later
        farm = simulate_farm(SLOW, (0.5, 1.0, 2.0, 4.0, 6.0), 300, seed=29)
        counts = np.stack([level.counts for level in farm])
        assert (counts[0] == 0).any()
        for k in range(1, len(farm)):
            assert np.all(counts[k][counts[k - 1] == 0] == 0)

    def test_h_martingale_mean_is_start(self):
        params = ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0, x0=(0.0,))
        farm = simulate_farm(params, (3.0,), 6000, seed=43)
        consts = derive(params)
        h = np.array([
            math.exp((params.mu - consts.growth_rate) * 3.0) * s.positions.sum()
            for s in farm[0]
        ])
        mean, se = mean_se(h)
        assert abs(mean) <= 4 * se

    def test_h_variance_stabilizes_fast_regime(self):
        grid = (12.0, 16.0)
        farm = simulate_farm(FAST, grid, 800, seed=47)
        consts = derive(FAST)
        h = {}
        for k, t in enumerate(grid):
            h[t] = np.array([
                math.exp((FAST.mu - consts.growth_rate) * t) * s.positions.sum()
                for s in farm[k]
            ])
        v12, v16 = h[12.0].var(ddof=1), h[16.0].var(ddof=1)
        assert abs(v12 / v16 - 1.0) < 0.10
        # oracle: variance equals the normalized second moment from the
        # tree expansion (start at 0)
        oracle = math.exp(-2 * (consts.growth_rate - FAST.mu) * 12.0) * \
            exact_mixed_moment(2, 12.0, FAST, [FUNC_X, FUNC_X])
        se = v12 * math.sqrt(2.0 / len(h[12.0])) * 2.5
        assert abs(v12 - oracle) <= 4 * se

    def test_fourth_moment_proxy_bounded(self):
        grid = (4.0, 6.0, 8.0)
        farm = simulate_farm(SLOW, grid, 4000, seed=53)
        consts = derive(SLOW)
        vals = []
        for k, t in enumerate(grid):
            y = (np.exp(-consts.growth_rate * t) * farm_counts(farm[k])) ** 4
            vals.append(mean_se(y))
        (m0, s0), (m2, s2) = vals[0], vals[-1]
        assert m2 - m0 <= 2 * math.hypot(s0, s2) + 0.05 * m0


class TestConditioning:
    def test_identity_when_all_alive(self):
        level = FarmLevel(1.0, np.ones((10, 1)), np.full(5, 2, dtype=np.int64))
        alive, frac = condition_on_survival(level)
        assert len(alive) == 5 and frac == 1.0

    def test_mixed(self):
        level = FarmLevel(1.0, np.ones((6, 1)), np.array([3, 0, 3], dtype=np.int64))
        alive, frac = condition_on_survival(level)
        assert len(alive) == 2
        assert frac == pytest.approx(2 / 3)

    def test_all_extinct_error(self):
        dead = FarmLevel(1.0, np.empty((0, 1)), np.zeros(2, dtype=np.int64))
        with pytest.raises(AllExtinctError):
            condition_on_survival(dead)

    def test_farm_level_shares_positions(self):
        level = simulate_farm(SLOW, (4.0,), 200, seed=61)[0]
        alive, frac = condition_on_survival(level)
        assert np.shares_memory(alive.positions, level.positions)
        assert alive.counts.tolist() == [c for c in level.counts.tolist() if c]
        assert frac == np.count_nonzero(level.counts) / 200

    def test_survival_fraction_long_horizon(self):
        farm = simulate_farm(SLOW, (10.0,), 6000, seed=59)
        _, frac = condition_on_survival(farm[0])
        want = 1.0 - derive(SLOW).extinction_prob
        se = math.sqrt(want * (1 - want) / 6000)
        assert abs(frac - want) <= 3 * se


class TestPositionSum:
    """``position_sum`` draws (N, S) from the genealogy's skeleton and the
    exact Gaussian law of S given it; it must agree in law with summing the
    positions ``full_tree_farm`` draws from the whole genealogy."""

    @pytest.mark.parametrize("params, t", [
        (FAST, 4.0),
        (ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0, dim=2, x0=(2.0, -1.0)), 2.0),
    ], ids=["dim1", "dim2"])
    def test_law_matches_simulated_sum(self, params, t):
        rng = np.random.default_rng(71)
        n = 1500
        new = np.array([position_sum(params, t, rng)[1] for _ in range(n)])
        (level,) = full_tree_farm(params, (t,), n, seed=71)
        old = level.segment_sum(level.positions)
        for u in np.vstack([np.eye(params.dim), np.ones(params.dim)]):
            assert sstats.ks_2samp(new @ u, old @ u).pvalue > 0.01

    def test_count_mean_is_growth(self):
        rng = np.random.default_rng(73)
        t = 4.0
        counts = np.array([position_sum(FAST, t, rng)[0] for _ in range(3000)])
        m, se = mean_se(counts)
        assert abs(m - math.exp(derive(FAST).growth_rate * t)) <= 4 * se

    @pytest.mark.parametrize("params, t", [
        (FAST, 4.0),
        (ModelParams(lam=1.0, p=1.0, mu=0.1, sigma=1.0), 2.0),
    ], ids=["fast", "yule"])
    def test_count_law_on_survival(self, params, t):
        # a replica survives with probability 1 - extinction_by(T), and on
        # survival its count is Geometric on {1, 2, ...} with mean
        # F = 1 + (b / r) (exp(r T) - 1) (Kendall 1948): P(N = 1) = 1 / F
        rng = np.random.default_rng(83)
        n = 4000
        counts = np.array([position_sum(params, t, rng)[0] for _ in range(n)])
        alive = counts[counts > 0]
        q = 1.0 - extinction_by(t, params)
        assert abs(alive.size / n - q) <= 4 * math.sqrt(q * (1 - q) / n)
        b, r = params.lam * params.p, derive(params).growth_rate
        f = 1.0 + b / r * math.expm1(r * t)
        p1 = 1.0 / f
        assert abs(np.mean(alive == 1) - p1) <= 4 * math.sqrt(p1 * (1 - p1) / alive.size)
        m, se = mean_se(alive)
        assert abs(m - f) <= 4 * se

    @pytest.mark.parametrize("t", [1e4, 1e300])
    def test_long_horizon_never_overflows(self, t, monkeypatch):
        # exp(r T) overflows a float long before these horizons; a replica
        # there dies out or meets the particle cap inside the horizon
        monkeypatch.setattr(simulator, "MAX_PARTICLES", 10**5)
        outcomes = set()
        for seed in range(6):
            try:
                count, s = position_sum(FAST, t, np.random.default_rng(seed))
            except ResourceCapError as exc:
                assert 0.0 <= exc.time_reached <= t
                outcomes.add("cap")
            else:
                assert count == 0 and s.tolist() == [0.0]
                outcomes.add("extinct")
        assert outcomes == {"cap", "extinct"}

    def test_extinct_sum_is_exactly_zero(self):
        params = ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0, dim=2, x0=(-2.0, 3.0))
        rng = np.random.default_rng(79)
        draws = [position_sum(params, 3.0, rng) for _ in range(200)]
        extinct = [s for count, s in draws if count == 0]
        assert extinct
        for s in extinct:
            assert s.tolist() == [0.0, 0.0]
        assert all(np.all(s != 0.0) for count, s in draws if count)

    def test_time_zero_is_the_start(self):
        params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, x0=(2.5,))
        count, s = position_sum(params, 0.0, np.random.default_rng(1))
        assert count == 1 and s.tolist() == [2.5]

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_bad_time_refused(self, t):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            position_sum(FAST, t, np.random.default_rng(1))

    def test_caps_raise_as_in_simulate(self):
        # a Yule replica at rate 5 expects e^{10} particles by t = 2: inside
        # the farm budget, far over either patched cap
        params = ModelParams(lam=5.0, p=1.0, mu=1.0, sigma=1.0)
        draws = (lambda: position_sum(params, 2.0, np.random.default_rng(3)),
                 lambda: simulate(params, 2.0, 3))
        for name, value, match in (("MAX_PARTICLES", 50, "MAX_PARTICLES=50"),
                                   ("MAX_GENERATIONS", 3, "MAX_GENERATIONS=3")):
            with mock.patch.object(simulator, name, value):
                for draw in draws:
                    with pytest.raises(ResourceCapError, match=match) as info:
                        draw()
                    assert 0.0 <= info.value.time_reached <= 2.0

"""Exact simulation of the branching OU particle system.

Each particle lives an Exp(lam) lifetime; at death it is replaced by two
offspring at its location with probability p, by none otherwise, and moves
between events by the exact OU transition.  The engine advances whole
generations at once as flat arrays, recording every particle's position at
each requested observation time; the joint law at the observation grid is
exact because every advancement leg is an exact OU transition and the grid
points are visited in increasing order along each lifetime.

Reproducibility: a farm derives one RNG substream per replica batch from
(seed, batch_index), and the within-batch order of draws is a fixed
function of the configuration, so results do not depend on scheduling or
worker counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import DerivedConstants, ModelParams, derive
from .ou import relax, stationary_std


class ResourceCapError(RuntimeError):
    """The particle budget was exhausted before the horizon."""

    def __init__(self, message: str, time_reached: float):
        super().__init__(message)
        self.time_reached = time_reached


class AllExtinctError(RuntimeError):
    """Conditioning on survival received only extinct replicas."""


@dataclass(frozen=True)
class Caps:
    """Resource limits for a single replica."""

    max_particles: int = 10_000_000
    max_generations: int = 100_000


@dataclass(frozen=True)
class ParticleSnapshot:
    """All alive-particle positions at one time; count 0 means extinct."""

    t: float
    positions: np.ndarray  # (count, dim)

    @property
    def count(self) -> int:
        return self.positions.shape[0]


class FarmLevel:
    """Every replica at one grid time, kept flat: ``positions`` holds all
    particles sorted by replica (in simulation order within a replica),
    replica ``i`` owning rows ``offsets[i]:offsets[i + 1]``.  Indexing and
    iterating give read-only ``ParticleSnapshot`` views; per-replica
    statistics come from ``segment_sum`` without a loop over replicas."""

    def __init__(self, t: float, positions: np.ndarray, counts: np.ndarray):
        positions = positions.view()
        positions.flags.writeable = False
        self.t = t
        self.positions = positions              # (counts.sum(), dim)
        self.counts = counts                    # (replicas,) int64
        self.offsets = np.concatenate(([0], np.cumsum(counts)))

    @staticmethod
    def from_snapshots(snapshots) -> "FarmLevel":
        """The flat layout of snapshots taken at one common time."""
        if isinstance(snapshots, FarmLevel):
            return snapshots
        snapshots = list(snapshots)
        if not snapshots:
            raise ValueError("no snapshots to combine")
        times = {s.t for s in snapshots}
        if len(times) != 1:
            raise ValueError("snapshots taken at different times")
        return FarmLevel(times.pop(),
                         np.concatenate([s.positions for s in snapshots]),
                         np.array([s.count for s in snapshots], dtype=np.int64))

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __getitem__(self, i: int) -> ParticleSnapshot:
        i = range(len(self))[i]
        return ParticleSnapshot(
            t=self.t, positions=self.positions[self.offsets[i]:self.offsets[i + 1]])

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-replica sums of a per-particle array (rows follow
        ``positions``); extinct replicas sum to zero."""
        alive = self.counts > 0
        if alive.all() and len(self):
            return np.add.reduceat(values, self.offsets[:-1], axis=0)
        out = np.zeros((len(self),) + values.shape[1:])
        if alive.any():
            out[alive] = np.add.reduceat(values, self.offsets[:-1][alive], axis=0)
        return out

    def select(self, mask: np.ndarray) -> "FarmLevel":
        """The replicas where ``mask`` holds, in order; dropping only
        extinct replicas shares the positions array."""
        rows = np.repeat(mask, self.counts)
        positions = self.positions if rows.all() else self.positions[rows]
        return FarmLevel(self.t, positions, self.counts[mask])


@dataclass(frozen=True)
class TrajectoryObservables:
    """Per-grid-time normalized population size and position-sum martingale
    values along a single trajectory."""

    times: np.ndarray
    v_vals: np.ndarray          # exp(-growth t) * count
    h_vals: np.ndarray          # (len(times), dim): exp((mu - growth) t) * sum of positions
    counts: np.ndarray


def _draw_lifetimes(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    return rng.exponential(1.0 / lam, size=size)


def _run_batch(
    params: ModelParams,
    t_grid: np.ndarray,
    n_replicas: int,
    rng: np.random.Generator,
    caps: Caps,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Simulate ``n_replicas`` independent systems, returning, per grid
    time, the alive positions sorted by replica and the per-replica
    counts."""
    d = params.dim
    lam, p, mu = params.lam, params.p, params.mu
    s_std = stationary_std(params)
    t_end = float(t_grid[-1])

    rep = np.arange(n_replicas, dtype=np.int64)
    birth = np.zeros(n_replicas)
    pos = np.tile(np.asarray(params.x0, dtype=float), (n_replicas, 1))
    born = np.ones(n_replicas, dtype=np.int64)

    rec_rep: list[list[np.ndarray]] = [[] for _ in t_grid]
    rec_pos: list[list[np.ndarray]] = [[] for _ in t_grid]

    generation = 0
    while rep.size:
        generation += 1
        if generation > caps.max_generations:
            raise ResourceCapError("generation budget exhausted", float(birth.min()))
        m = rep.size
        death = birth + _draw_lifetimes(rng, lam, m)
        u_branch = rng.random(m)
        cur_t = birth.copy()
        for k, g in enumerate(t_grid):
            sel = (birth <= g) & (g < death)
            if sel.any():
                dt = g - cur_t[sel]
                decay = np.exp(-mu * dt)
                scale = relax(dt, mu) * s_std
                pos[sel] = pos[sel] * decay[:, None] + scale[:, None] * \
                    rng.standard_normal((int(sel.sum()), d))
                cur_t[sel] = g
                rec_rep[k].append(rep[sel].copy())
                rec_pos[k].append(pos[sel].copy())
        br = (death < t_end) & (u_branch < p)
        if not br.any():
            break
        dt = death[br] - cur_t[br]
        decay = np.exp(-mu * dt)
        scale = relax(dt, mu) * s_std
        at_death = pos[br] * decay[:, None] + scale[:, None] * \
            rng.standard_normal((int(br.sum()), d))
        rep = np.repeat(rep[br], 2)
        birth = np.repeat(death[br], 2)
        pos = np.repeat(at_death, 2, axis=0)
        born += np.bincount(rep, minlength=n_replicas)
        if born.max() > caps.max_particles:
            worst = int(np.argmax(born))
            t_hit = float(birth[rep == worst].min()) if (rep == worst).any() else t_end
            raise ResourceCapError(
                f"replica {worst} exceeded max_particles={caps.max_particles}",
                t_hit,
            )

    out = []
    for k in range(len(t_grid)):
        if rec_rep[k]:
            reps = np.concatenate(rec_rep[k])
            order = np.argsort(reps, kind="stable")
            ps = np.concatenate(rec_pos[k], axis=0)[order]
            out.append((ps, np.bincount(reps, minlength=n_replicas)))
        else:
            out.append((np.empty((0, d)), np.zeros(n_replicas, dtype=np.int64)))
    return out


def simulate_farm(
    params: ModelParams,
    t_grid,
    n_replicas: int,
    seed: int,
    caps: Caps = Caps(),
    batch_size: int = 2000,
    threads: int = 1,
) -> list[FarmLevel]:
    """Independent replicas observed at the grid times.

    Returns one ``FarmLevel`` per grid time, so ``farm[k][i]`` is the
    snapshot of replica ``i`` at the k-th grid time.  Batches own disjoint
    RNG substreams derived from (seed, batch_index) and are combined in
    batch order, so the output is a pure function of the arguments
    regardless of thread count.
    """
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if np.any(t_grid < 0):
        raise ValueError("grid times must be nonnegative")
    starts = list(range(0, n_replicas, batch_size))
    sizes = [min(batch_size, n_replicas - s) for s in starts]

    def run(idx: int):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((int(seed), idx))))
        return _run_batch(params, t_grid, sizes[idx], rng, caps)

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(run, range(len(starts))))
    else:
        batches = [run(i) for i in range(len(starts))]

    out: list[FarmLevel] = []
    for k, g in enumerate(t_grid):
        parts = [b[k] for b in batches] or [(np.empty((0, params.dim)),
                                             np.zeros(0, dtype=np.int64))]
        for b in batches:
            b[k] = None  # frees the batch's copy once the level holds it
        if len(parts) == 1:
            positions, counts = parts[0]
        else:
            positions = np.concatenate([ps for ps, _ in parts])
            counts = np.concatenate([c for _, c in parts])
        out.append(FarmLevel(float(g), positions, counts))
    return out


def simulate(
    params: ModelParams,
    t_end: float,
    rng_or_seed,
    caps: Caps = Caps(),
) -> ParticleSnapshot:
    """One replica observed at ``t_end`` (exact in distribution)."""
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    rng = _as_rng(rng_or_seed)
    ((positions, _),) = _run_batch(params, np.array([float(t_end)]), 1, rng, caps)
    return ParticleSnapshot(t=float(t_end), positions=positions)


def observe_path(
    params: ModelParams,
    t_grid,
    rng_or_seed,
    caps: Caps = Caps(),
) -> TrajectoryObservables:
    """One trajectory observed consistently at every grid time."""
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    rng = _as_rng(rng_or_seed)
    batch = _run_batch(params, t_grid, 1, rng, caps)
    consts = derive(params)
    snaps = [ParticleSnapshot(t=float(t), positions=positions)
             for t, (positions, _) in zip(t_grid, batch)]
    return TrajectoryObservables(
        times=t_grid,
        v_vals=np.array([v_value(s, consts) for s in snaps]),
        h_vals=np.stack([h_value(s, params, consts) for s in snaps]),
        counts=np.array([s.count for s in snaps]),
    )


def _as_rng(rng_or_seed) -> np.random.Generator:
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(rng_or_seed))))


def condition_on_survival(snapshots) -> tuple[FarmLevel, float]:
    """Drop extinct replicas of a ``FarmLevel`` (or of snapshots taken at
    one time); returns (survivors, survival fraction)."""
    level = FarmLevel.from_snapshots(snapshots)
    alive = level.counts > 0
    n_alive = int(np.count_nonzero(alive))
    if not n_alive:
        raise AllExtinctError("every replica is extinct")
    return level.select(alive), n_alive / len(level)


def v_value(snapshot: ParticleSnapshot, consts: DerivedConstants) -> float:
    """Normalized population size exp(-growth t) * count."""
    return math.exp(-consts.growth_rate * snapshot.t) * snapshot.count


def h_value(snapshot: ParticleSnapshot, params: ModelParams,
            consts: DerivedConstants) -> np.ndarray:
    """Position-sum martingale value exp((mu - growth) t) * sum positions."""
    if snapshot.count == 0:
        return np.zeros(params.dim)
    return math.exp((params.mu - consts.growth_rate) * snapshot.t) * \
        snapshot.positions.sum(axis=0)


"""Exact simulation of the branching OU particle system.

Each particle lives an Exp(lam) lifetime; at death it is replaced by two
offspring at its location with probability p, by none otherwise, and moves
between events by the exact OU transition.  The engine advances whole
generations at once as flat arrays.  A generation draws every lifetime and
branching uniform, then locates once, per lifetime [birth, death), the
grid times it spans.  Only the particles whose lifetime straddles a grid
time take OU legs to those times and are recorded there, grid time by grid
time in increasing order; every other particle goes from its birth straight
to its branching time in one leg.  The joint law at the observation grid is
exact because every leg is an exact OU transition and the grid points are
visited in increasing order along each lifetime.

Reproducibility: a farm derives one RNG substream per replica batch from
(seed, batch_index), and the within-batch order of draws is a fixed
function of the configuration, so results do not depend on scheduling or
worker counts.  A generation draws its lifetimes, then its branching
uniforms, then the normals of each grid time's straddlers and last those
of the branching legs, each set in particle order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, derive
from .ou import relax, stationary_std


class ResourceCapError(RuntimeError):
    """The particle budget was exhausted before the horizon."""

    def __init__(self, message: str, time_reached: float):
        super().__init__(message)
        self.time_reached = time_reached


class AllExtinctError(RuntimeError):
    """Conditioning on survival received only extinct replicas."""


# Expected particles recorded by one farm, summed over its replicas and
# grid times; a farm expecting more is refused before anything is drawn.
MAX_FARM_PARTICLES = 1e8


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


def _draw_lifetimes(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    return rng.exponential(1.0 / lam, size=size)


def _ou_leg(x: np.ndarray, dt: np.ndarray, mu: float, s_std: float,
            rng: np.random.Generator) -> np.ndarray:
    """Exact OU transition of the rows of ``x`` over the times ``dt``."""
    scale = relax(dt, mu) * s_std
    return x * np.exp(-mu * dt)[:, None] + scale[:, None] * \
        rng.standard_normal(x.shape)


def _grid_rank(t_grid: np.ndarray, t: np.ndarray) -> np.ndarray:
    """How many grid times lie below each ``t``, as ``np.searchsorted``
    gives it.  One comparison pass per grid time: on grids of a few times
    this is several times faster than the binary search."""
    rank = np.zeros(t.shape, dtype=np.intp)
    for g in t_grid:
        rank += g < t
    return rank


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
        splits = rng.random(m) < p
        # the lifetime [birth, death) spans the grid times t_grid[lo:hi]
        lo, hi = _grid_rank(t_grid, birth), _grid_rank(t_grid, death)
        strad = np.flatnonzero(lo < hi)
        if strad.size:
            s_lo, s_hi = lo[strad], hi[strad]
            x, cur_t = pos[strad], birth[strad]
            k0, k1 = int(s_lo.min()), int(s_hi.max())
            for k in range(k0, k1):
                if k1 - k0 == 1:  # every straddler spans this one grid time
                    j = slice(None)
                else:
                    j = np.flatnonzero((s_lo <= k) & (k < s_hi))
                    if not j.size:
                        continue
                g = t_grid[k]
                x_k = _ou_leg(x[j], g - cur_t[j], mu, s_std, rng)
                x[j] = x_k
                cur_t[j] = g
                rec_rep[k].append(rep[strad[j]])
                rec_pos[k].append(x_k)
            # a straddler dying by t_end may branch, so it carries its
            # position and time at the last grid time it reached
            w = np.flatnonzero(s_hi < t_grid.size)
            pos[strad[w]] = x[w]
            birth[strad[w]] = cur_t[w]
        br = np.flatnonzero(splits & (death < t_end))
        if not br.size:
            break
        t_split = death[br]
        at_death = _ou_leg(pos[br], t_split - birth[br], mu, s_std, rng)
        rep = rep[br]
        born += 2 * np.bincount(rep, minlength=n_replicas)
        if born.max() > caps.max_particles:
            worst = int(np.argmax(born))
            mine = rep == worst
            raise ResourceCapError(
                f"replica {worst} exceeded max_particles={caps.max_particles}",
                float(t_split[mine].min()) if mine.any() else t_end,
            )
        rep = np.repeat(rep, 2)
        birth = np.repeat(t_split, 2)
        pos = np.repeat(at_death, 2, axis=0)

    out = []
    for k in range(len(t_grid)):
        if not rec_rep[k]:
            out.append((np.empty((0, d)), np.zeros(n_replicas, dtype=np.int64)))
            continue
        reps = np.concatenate(rec_rep[k])
        ps = np.concatenate(rec_pos[k], axis=0)
        if n_replicas > 1:
            ps = ps[np.argsort(reps, kind="stable")]
        out.append((ps, np.bincount(reps, minlength=n_replicas)))
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
    regardless of thread count.  A farm whose expected particle count
    ``n_replicas * sum_k exp(growth t_k)`` exceeds ``MAX_FARM_PARTICLES``
    raises ``ResourceCapError`` before any draw.
    """
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if not np.all((t_grid >= 0) & np.isfinite(t_grid)):
        raise ValueError("grid times must be finite and nonnegative")
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        expected = n_replicas * float(np.exp(derive(params).growth_rate * t_grid).sum())
    if expected > MAX_FARM_PARTICLES:
        raise ResourceCapError(
            f"the farm expects {expected:.3g} particles, above the budget "
            f"MAX_FARM_PARTICLES={MAX_FARM_PARTICLES:g}", 0.0)
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
    if not 0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    rng = _as_rng(rng_or_seed)
    ((positions, _),) = _run_batch(params, np.array([float(t_end)]), 1, rng, caps)
    return ParticleSnapshot(t=float(t_end), positions=positions)


def _as_rng(rng_or_seed) -> np.random.Generator:
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(rng_or_seed))))


def condition_on_survival(level: FarmLevel) -> tuple[FarmLevel, float]:
    """Drop extinct replicas of a ``FarmLevel``; returns (survivors,
    survival fraction)."""
    alive = level.counts > 0
    n_alive = int(np.count_nonzero(alive))
    if not n_alive:
        raise AllExtinctError("every replica is extinct")
    return level.select(alive), n_alive / len(level)

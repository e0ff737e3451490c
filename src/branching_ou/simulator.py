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
function of the configuration.  A generation draws its lifetimes, then its
branching uniforms, then the normals of each grid time's straddlers and
last those of the branching legs, each set in particle order.

``farm_counts`` draws no genealogy at all.  Branching does not depend on
position, so a replica's count is a linear birth-death chain, +1 at rate
lam p and -1 at rate lam (1 - p), whose transition law over a step dt is
closed-form (Kendall 1948): with r = lam (2p - 1), h = expm1(r dt) / r and
b = lam p, each of N particles leaves descendants with probability
exp(r dt) / (1 + b h), and each line that does leaves a Geometric number of
them on {1, 2, ...} with success probability 1 / (1 + b h).  The farm draws
that law from grid time to grid time for all replicas at once, so its cost
does not grow with the population.  It returns the same ``FarmLevel``
layout with positions of no columns; its counts are a different draw from
those of ``simulate_farm`` at the same seed.

``position_sum`` draws only the genealogy of one replica and then its
position sum at one time from the sum's exact Gaussian law given that
genealogy; this is all the fast-regime limit sampler needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, derive
from .ou import ou_leg, stationary_std


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

# Replicas per batch of ``simulate_farm``: a batch holds every particle of
# its replicas at once, so this bounds the memory of a large farm.  Each
# batch draws from its own substream, so the value fixes the farm's draws.
FARM_BATCH = 2000


def check_budget(expected: float, claim: str) -> None:
    """Refuse work expecting more than ``MAX_FARM_PARTICLES`` particles or
    births with ``ResourceCapError`` at time 0, before anything is drawn;
    ``claim`` formats ``expected`` for the message."""
    if expected > MAX_FARM_PARTICLES:
        raise ResourceCapError(
            f"{claim.format(expected)}, above the budget "
            f"MAX_FARM_PARTICLES={MAX_FARM_PARTICLES:g}", 0.0)


def substream(entropy, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """A PCG64 generator seeded by the ``SeedSequence`` of ``entropy`` and
    ``spawn_key``: every stream the package derives from a seed."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy, spawn_key=spawn_key)))


@dataclass(frozen=True)
class Caps:
    """Resource limits for a single replica of ``simulate_farm``,
    ``simulate`` or ``position_sum``, each at least 1; ``farm_counts``
    draws nothing that grows with the population and takes none."""

    max_particles: int = 10_000_000
    max_generations: int = 100_000

    def __post_init__(self):
        for name in ("max_particles", "max_generations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


class FarmLevel:
    """Every replica at one grid time, kept flat: ``positions`` holds all
    particles sorted by replica (in simulation order within a replica),
    replica ``i`` owning rows ``offsets[i]:offsets[i + 1]``.  Without
    ``counts`` the level is one replica holding every row: a snapshot.  A
    level of ``farm_counts`` has positions with no columns: one empty row
    per particle.
    Indexing and iterating give read-only one-replica views; per-replica
    statistics come from ``segment_sum`` without a loop over replicas."""

    def __init__(self, t: float, positions: np.ndarray,
                 counts: np.ndarray | None = None):
        positions = positions.view()
        positions.flags.writeable = False
        if counts is None:
            counts = np.array([positions.shape[0]], dtype=np.int64)
        self.t = t
        self.positions = positions              # (counts.sum(), dim)
        self.counts = counts                    # (replicas,) int64
        self.offsets = np.concatenate(([0], np.cumsum(counts)))

    @property
    def count(self) -> int:
        """Particles in the level, over all its replicas; 0 means extinct."""
        return self.positions.shape[0]

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __getitem__(self, i: int) -> "FarmLevel":
        i = range(len(self))[i]
        return FarmLevel(self.t, self.positions[self.offsets[i]:self.offsets[i + 1]])

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


# Another name for a one-replica level, kept while ``benchmarks/workloads.py``
# builds its snapshots by it.
ParticleSnapshot = FarmLevel


def _draw_lifetimes(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    return rng.exponential(1.0 / lam, size=size)


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
                rec_rep[k].append(rep[strad[j]])
                g = t_grid[k]
                x_k = ou_leg(x[j], g - cur_t[j], mu, s_std, rng)
                x[j] = x_k
                cur_t[j] = g
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
        pos = np.repeat(ou_leg(pos[br], t_split - birth[br], mu, s_std, rng),
                        2, axis=0)
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

    out = []
    for k in range(len(t_grid)):
        reps = np.concatenate(rec_rep[k]) if rec_rep[k] else np.zeros(0, dtype=np.int64)
        ps = np.concatenate(rec_pos[k], axis=0) if rec_pos[k] else np.empty((0, d))
        if n_replicas > 1:
            ps = ps[np.argsort(reps, kind="stable")]
        out.append((ps, np.bincount(reps, minlength=n_replicas)))
    return out


def _checked_grid(params: ModelParams, t_grid, n_replicas: int) -> np.ndarray:
    """The sorted grid, after the refusals every farm makes before any
    draw: an empty or non-finite grid, fewer than one replica, or more
    expected particles than ``MAX_FARM_PARTICLES``."""
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if not np.all((t_grid >= 0) & np.isfinite(t_grid)):
        raise ValueError("grid times must be finite and nonnegative")
    if n_replicas < 1:
        raise ValueError("n_replicas must be at least 1")
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        expected = n_replicas * float(np.exp(derive(params).growth_rate * t_grid).sum())
    check_budget(expected, "the farm expects {:.3g} particles")
    return t_grid


def simulate_farm(
    params: ModelParams,
    t_grid,
    n_replicas: int,
    seed: int,
    caps: Caps = Caps(),
) -> list[FarmLevel]:
    """Independent replicas observed at the grid times.

    Returns one ``FarmLevel`` per grid time, in increasing time order, so
    ``farm[k][i]`` is the snapshot of replica ``i`` at the k-th grid time.
    The replicas run in batches of ``FARM_BATCH``, one after another in
    batch order, and batch ``idx`` draws from the substream (seed, idx),
    so the output is a pure function of the arguments.  A farm whose
    expected particle count ``n_replicas * sum_k exp(growth t_k)`` exceeds
    ``MAX_FARM_PARTICLES`` raises ``ResourceCapError`` before any draw, and
    a replica count below 1 raises ``ValueError``.
    """
    t_grid = _checked_grid(params, t_grid, n_replicas)
    batches = []
    for idx, start in enumerate(range(0, n_replicas, FARM_BATCH)):
        batches.append(_run_batch(params, t_grid, min(FARM_BATCH, n_replicas - start),
                                  substream((int(seed), idx)), caps))
    out: list[FarmLevel] = []
    for k, g in enumerate(t_grid):
        parts = [b[k] for b in batches]
        for b in batches:
            b[k] = None  # frees the batch's copy once the level holds it
        if len(parts) == 1:
            positions, counts = parts[0]
        else:
            positions = np.concatenate([ps for ps, _ in parts])
            counts = np.concatenate([c for _, c in parts])
        out.append(FarmLevel(float(g), positions, counts))
    return out


def farm_counts(params: ModelParams, t_grid, n_replicas: int,
                seed: int) -> list[FarmLevel]:
    """The farm's per-replica counts alone, drawn exactly from the
    birth-death transition law between consecutive grid times (see the
    module docstring); each level's positions have no columns.  Every
    draw comes from one substream of ``seed``: per step, the surviving
    lines of all replicas, then their extra descendants; a step of length
    0 draws nothing.  Refusals are those of ``simulate_farm``."""
    t_grid = _checked_grid(params, t_grid, n_replicas)
    # a substream of its own, apart from every batch's (seed, idx)
    rng = substream(int(seed), (1,))
    r = derive(params).growth_rate
    b, d = params.lam * params.p, params.lam * (1.0 - params.p)
    counts = np.ones(n_replicas, dtype=np.int64)
    out, t_prev = [], 0.0
    for t in t_grid:
        if t > t_prev:
            h = math.expm1(r * (t - t_prev)) / r
            # a line dies out with probability 1 - exp(r dt) / (1 + b h),
            # which is d h / (1 + b h): exactly 0 when p = 1
            lines = rng.binomial(counts, 1.0 - d * h / (1.0 + b * h))
            extra = rng.negative_binomial(np.maximum(lines, 1), 1.0 / (1.0 + b * h))
            counts = np.where(lines > 0, lines + extra, 0)
            t_prev = t
        out.append(FarmLevel(float(t), np.empty((int(counts.sum()), 0)), counts))
    return out


def simulate(
    params: ModelParams,
    t_end: float,
    rng_or_seed,
    caps: Caps = Caps(),
) -> FarmLevel:
    """One replica observed at ``t_end`` (exact in distribution)."""
    if not 0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    rng = _as_rng(rng_or_seed)
    ((positions, counts),) = _run_batch(params, np.array([float(t_end)]), 1, rng,
                                         caps)
    return FarmLevel(float(t_end), positions, counts)


def position_sum(
    params: ModelParams,
    t_end: float,
    rng: np.random.Generator,
    caps: Caps = Caps(),
) -> tuple[int, np.ndarray]:
    """One replica's particle count N and position sum S at ``t_end``,
    drawn exactly in law without drawing a single position.

    Given the genealogy, S is Gaussian.  Two particles alive at T =
    ``t_end`` whose lines parted at a split time tau have position
    covariance s^2 (exp(-2 mu (T - tau)) - exp(-2 mu T)) per coordinate,
    s = ``stationary_std``, and each one alone has variance
    s^2 (1 - exp(-2 mu T)).  So S has mean N x0 exp(-mu T) and
    per-coordinate variance

        s^2 [ N (1 - exp(-2 mu T))
              + 2 exp(-2 mu T) sum over splits of n_a n_b expm1(2 mu tau) ],

    with n_a, n_b the two children's numbers of descendants alive at T;
    every term is nonnegative.  The genealogy is drawn generation by
    generation, lifetimes then branching uniforms as ``simulate`` draws
    them, and a backward pass gives each split its n_a and n_b.  S takes
    one normal draw per coordinate; an extinct replica returns (0, 0)
    exactly and draws none.  Caps raise ``ResourceCapError`` as in
    ``simulate``.
    """
    if not 0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    lam, p, mu = params.lam, params.p, params.mu
    birth = np.zeros(1)
    born = 1
    # per generation: who is alive at t_end, who splits, and expm1(2 mu tau)
    gens: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    while True:
        if len(gens) == caps.max_generations:
            raise ResourceCapError("generation budget exhausted", float(birth.min()))
        death = birth + _draw_lifetimes(rng, lam, birth.size)
        splits = rng.random(birth.size) < p
        br = np.flatnonzero(splits & (death < t_end))
        t_split = death[br]
        gens.append((death > t_end, br, np.expm1(2.0 * mu * t_split)))
        if not br.size:
            break
        born += 2 * br.size
        if born > caps.max_particles:
            raise ResourceCapError(
                f"replica 0 exceeded max_particles={caps.max_particles}",
                float(t_split.min()))
        birth = np.repeat(t_split, 2)

    n = np.zeros(0)  # descendants alive at t_end, per particle of a generation
    pairs = 0.0
    for alive, br, tilt in reversed(gens):
        a, b = n[0::2], n[1::2]
        n = alive.astype(float)
        n[br] = a + b
        pairs += float((a * b) @ tilt)
    count = int(n[0])
    if not count:
        return 0, np.zeros(params.dim)
    var = count * -math.expm1(-2.0 * mu * t_end) + \
        2.0 * math.exp(-2.0 * mu * t_end) * pairs
    mean = count * math.exp(-mu * t_end) * np.asarray(params.x0, dtype=float)
    return count, mean + stationary_std(params) * math.sqrt(var) * \
        rng.standard_normal(params.dim)


def _as_rng(rng_or_seed) -> np.random.Generator:
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return substream(int(rng_or_seed))


def condition_on_survival(level: FarmLevel) -> tuple[FarmLevel, float]:
    """Drop extinct replicas of a ``FarmLevel``; returns (survivors,
    survival fraction), or raises ``AllExtinctError`` when none survives."""
    alive = level.counts > 0
    n_alive = int(np.count_nonzero(alive))
    if not n_alive:
        raise AllExtinctError("every replica is extinct")
    return level.select(alive), n_alive / len(level)

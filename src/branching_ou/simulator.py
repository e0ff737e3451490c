"""Exact simulation of the branching OU particle system.

Each particle lives an Exp(lam) lifetime; at death it is replaced by two
offspring at its location with probability p, by none otherwise, and moves
between events by the exact OU transition.  A farm is observed only through
the particles alive at its grid times, so the engine draws only those and
their ancestors: the reconstructed birth-death tree (Kendall 1948; Nee, May
and Harvey 1994).  With the birth and death rates b = lam p and d =
lam (1 - p) of ``model.derive`` and r = b - d, a line with time v left has
descendants at the end with probability P(v) = r / (b - d exp(-r v)); given
that, it splits into two such lines at rate b P(v), whose integral over v
is log(b exp(r v) - d).  So each line carries a = b exp(r v) - d, kept in
units of exp(r T) for a tree of height T, so that no finite T overflows: a
line splits at a' = a U (U uniform) if a' > r and reaches the end
otherwise, and both children start from a' at the split time
T - log((a' + d) / b) / r.  With p = 1 (d = 0) the tree is the whole
genealogy.

``simulate_farm`` runs this from grid time to grid time.  The population is
Markov at the grid times, the positions there depend only on the motion
along their ancestral lines, and a line that dies out within a step changes
nothing later; so every line alive at t_k survives to t_{k+1} with
probability P(t_{k+1} - t_k), and each survivor draws its tree over the
step.  Every tree edge is one exact OU leg: to the edge's split time, or to
t_{k+1} for a leaf.  A step draws one uniform per line alive at t_k, then,
per generation of its trees, one uniform per line and the normals of every
line's leg, each set in line order; the lines at t_{k+1} are then sorted by
replica, a radix sort of a 16-bit key while a batch holds fewer than 2^15
replicas.  The number and order of draws depend only on counts, never on
positions.  A farm derives one RNG substream per replica batch from
(seed, batch_index).

``position_sum`` draws the same tree, by the same loop, for one replica
over [0, T], and then its position sum at T from the sum's exact Gaussian
law given the tree; this is all the fast-regime limit sampler needs.

``MAX_PARTICLES`` and ``MAX_GENERATIONS`` count tree lines born and tree
generations for both; a farm sums them over its grid steps.

``farm_counts`` draws no genealogy at all: it draws the count chain's
transition law, ``model.count_step``, from grid time to grid time for all
replicas at once, so its cost does not grow with the population.  It
returns the same ``FarmLevel`` layout with positions of no columns; its
counts are a different draw from those of ``simulate_farm`` at the same
seed.  ``simulate`` is the one-replica farm.  Every resource limit is a
constant of this module.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, count_step, derive
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

# Read at call time: MAX_PARTICLES bounds the tree lines one replica of
# ``simulate_farm`` or ``position_sum`` bears (so a batch's memory), and
# MAX_GENERATIONS the tree generations of a batch or of ``position_sum``
# (the time of a near-critical one at a small population).
MAX_PARTICLES = 10_000_000
MAX_GENERATIONS = 100_000


def check_budget(expected: float, claim: str) -> None:
    """Refuse work expecting more than ``MAX_FARM_PARTICLES`` particles or
    tree lines with ``ResourceCapError`` at time 0, before anything is drawn;
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
            n = positions.shape[0]
            counts = np.array([n], dtype=np.int64)
            offsets = np.array([0, n], dtype=np.int64)
        else:
            offsets = np.concatenate(([0], np.cumsum(counts)))
        self.t = t
        self.positions = positions              # (counts.sum(), dim)
        self.counts = counts                    # (replicas,) int64
        self.offsets = offsets                  # (replicas + 1,) int64

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
        n_alive = np.count_nonzero(self.counts)  # cheaper per call than a mask
        if n_alive and n_alive == len(self):
            return np.add.reduceat(values, self.offsets[:-1], axis=0)
        alive = self.counts > 0
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


def _skeleton(a: np.ndarray, floor: float, rng: np.random.Generator):
    """The reconstructed tree below lines carrying ``a`` (see the module
    docstring), generation by generation: one uniform per line, in line
    order, then a yield of the line count, the indices of the lines that
    split and the a each splits at.  A split line's two children take its
    place in the next generation; the tree ends at a generation where no
    line splits.  ``floor`` is the a of a line reaching the end."""
    while True:
        m = a.size
        a *= rng.random(m)
        br = np.flatnonzero(a > floor)
        a = a[br]
        yield m, br, a
        if not br.size:
            return
        a = np.repeat(a, 2)


def _run_batch(
    params: ModelParams,
    t_grid: np.ndarray,
    n_replicas: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Simulate ``n_replicas`` independent systems, returning, per grid
    time, the alive positions sorted by replica and the per-replica
    counts."""
    consts = derive(params)
    mu, s_std = params.mu, stationary_std(params)
    r, b, d = consts.growth_rate, consts.birth_rate, consts.death_rate
    # a 16-bit key makes the stable sort by replica a radix sort
    rep = np.arange(n_replicas, dtype=np.int16 if n_replicas < 2**15 else np.int64)
    pos = np.tile(np.asarray(params.x0, dtype=float), (n_replicas, 1))
    # lines born, roots included: in the batch, and per replica through the
    # last grid step; no replica passes MAX_PARTICLES before the batch does,
    # so a step counts its lines per replica by generation only after that
    total, born = n_replicas, np.ones(n_replicas, dtype=np.int64)
    counts = np.ones(n_replicas, dtype=np.int64)  # lines alive at t_prev
    generation, t_prev, out = 0, 0.0, []
    for t in t_grid:
        if t > t_prev:
            unit = math.exp(-r * (t - t_prev))  # a in units of exp(r dt)
            c = d * unit
            alive = np.flatnonzero(rng.random(rep.size) * (b - c) < r)
            rep, x, start = rep[alive], pos[alive], t_prev
            roots = np.bincount(rep, minlength=n_replicas)
            reps, xs, step_born = [], [], None
            for m, br, a in _skeleton(np.full(alive.size, b - c), r * unit, rng):
                generation += 1
                if generation > MAX_GENERATIONS:
                    raise ResourceCapError(f"generation budget MAX_GENERATIONS="
                                           f"{MAX_GENERATIONS} exhausted",
                                           float(np.min(start)))
                tau = t_prev + np.log(b / (a + c)) / r
                dt = np.full(m, t)
                dt[br] = tau
                dt -= start
                # rounding may put a split a hair outside its step
                x = ou_leg(x, np.maximum(dt, 0.0, out=dt), mu, s_std, rng)
                leaf = np.ones(m, dtype=bool)
                leaf[br] = False
                leaves = np.flatnonzero(leaf)  # faster than a mask to index by
                reps.append(rep[leaves])
                xs.append(x[leaves])
                rep = rep[br]
                total += 2 * br.size
                if total > MAX_PARTICLES:
                    if step_born is None:
                        # the step's lines so far, its leaves and the
                        # children pending, are its roots plus one per split
                        step_born = born + 2 * (
                            np.bincount(np.concatenate(reps), minlength=n_replicas)
                            + 2 * np.bincount(rep, minlength=n_replicas) - roots)
                    else:
                        step_born += 2 * np.bincount(rep, minlength=n_replicas)
                    if step_born.max() > MAX_PARTICLES:
                        worst = int(np.argmax(step_born))
                        raise ResourceCapError(
                            f"replica {worst} exceeded MAX_PARTICLES={MAX_PARTICLES}",
                            float(tau[rep == worst].min()))
                rep, x, start = np.repeat(rep, 2), np.repeat(x[br], 2, axis=0), \
                    np.repeat(tau, 2)
            rep, pos = np.concatenate(reps), np.concatenate(xs)
            if n_replicas > 1:
                order = np.argsort(rep, kind="stable")
                rep, pos = rep[order], pos[order]
            counts = np.bincount(rep, minlength=n_replicas)
            born += 2 * (counts - roots)  # a step's leaves: its roots plus its splits
            t_prev = t
        out.append((pos, counts))
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
                                  substream((int(seed), idx))))
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
    counts = np.ones(n_replicas, dtype=np.int64)
    out, t_prev = [], 0.0
    for t in t_grid:
        if t > t_prev:
            survival, success = count_step(t - t_prev, params)
            lines = rng.binomial(counts, survival)
            extra = rng.negative_binomial(np.maximum(lines, 1), success)
            counts = np.where(lines > 0, lines + extra, 0)
            t_prev = t
        out.append(FarmLevel(float(t), np.empty((int(counts.sum()), 0)), counts))
    return out


def simulate(params: ModelParams, t_end: float, seed: int) -> FarmLevel:
    """One replica observed at ``t_end`` (exact in distribution): the
    one-replica farm ``simulate_farm(params, (t_end,), 1, seed)``, with its
    refusals, so its draws are replica 0's substream (seed, 0)."""
    return simulate_farm(params, (t_end,), 1, seed)[0]


def position_sum(
    params: ModelParams,
    t_end: float,
    rng: np.random.Generator,
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
    every term is nonnegative.  Only splits whose two children both have
    descendants at T enter it, so only the reconstructed tree over [0, T]
    is drawn (see the module docstring); the root survives iff
    U (b exp(r T) - d) < r exp(r T).

    Draw order: one uniform for the root's survival, then per generation
    one uniform per line in line order, then one normal per coordinate; an
    extinct replica returns (0, 0) exactly and draws no normal.
    ``MAX_PARTICLES`` bounds the tree lines born (two per split) and
    ``MAX_GENERATIONS`` the tree generations; either raises
    ``ResourceCapError`` at a time in [0, ``t_end``].  A backward pass
    gives each split its n_a and n_b.
    """
    if not 0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    consts = derive(params)
    mu, r, b, d = params.mu, consts.growth_rate, consts.birth_rate, consts.death_rate
    unit = math.exp(-r * t_end)  # exp(-r T); 0 where it underflows
    c = d * unit                 # d in units of exp(r T)
    a = np.array([b - c])        # the root's a in those units
    if rng.random() * a[0] >= r:
        return 0, np.zeros(params.dim)

    def time_of(a_max: float) -> float:
        # the split time of a line carrying a_max, the earliest among lines
        # carrying less, clamped to [0, t_end] against rounding
        return min(max(math.log(b / (a_max + c)) / r, 0.0), t_end)

    born, tilt_rate = 1, 2.0 * mu / r
    # per generation: its line count, which lines split and, per split,
    # expm1(2 mu tau)
    gens: list[tuple[int, np.ndarray, np.ndarray]] = []
    for m, br, a in _skeleton(a, r * unit, rng):
        gens.append((m, br, np.expm1(tilt_rate * np.log(b / (a + c)))))
        if not br.size:
            break
        born += 2 * br.size
        if born > MAX_PARTICLES:
            raise ResourceCapError(
                f"replica 0 exceeded MAX_PARTICLES={MAX_PARTICLES}",
                time_of(float(a.max())))
        if len(gens) == MAX_GENERATIONS:
            raise ResourceCapError(f"generation budget MAX_GENERATIONS="
                                   f"{MAX_GENERATIONS} exhausted",
                                   time_of(float(a.max())))

    n = np.zeros(0)  # descendants alive at t_end, per line of a generation
    pairs = 0.0
    for m, br, tilt in reversed(gens):
        n_a, n_b = n[0::2], n[1::2]
        n = np.ones(m)
        n[br] = n_a + n_b
        pairs += float((n_a * n_b) @ tilt)
    count = int(n[0])  # at least 1: every skeleton line reaches t_end or splits
    var = count * -math.expm1(-2.0 * mu * t_end) + \
        2.0 * math.exp(-2.0 * mu * t_end) * pairs
    mean = count * math.exp(-mu * t_end) * np.asarray(params.x0, dtype=float)
    return count, mean + stationary_std(params) * math.sqrt(var) * \
        rng.standard_normal(params.dim)


def condition_on_survival(level: FarmLevel) -> tuple[FarmLevel, float]:
    """Drop extinct replicas of a ``FarmLevel``; returns (survivors,
    survival fraction), or raises ``AllExtinctError`` when none survives."""
    alive = level.counts > 0
    n_alive = int(np.count_nonzero(alive))
    if not n_alive:
        raise AllExtinctError("every replica is extinct")
    return level.select(alive), n_alive / len(level)

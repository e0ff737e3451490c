"""U- and V-statistics of a particle snapshot.

The V-statistic sums the kernel over all index tuples (repeats allowed);
the U-statistic over injective tuples only.  Tensor-sum kernels admit a
fast V path through per-slot particle sums, and the U-statistic reduces to
an integer combination of V-statistics of merged kernels over the set
partitions of the argument slots; the integer weights come from Moebius
inversion on the partition lattice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import BudgetExceededError, Kernel, index_chunks, substitute_partition
from .model import DerivedConstants, Regime
from .simulator import ParticleSnapshot


class ExpansionCapError(ValueError):
    """Requested arity above the configured partition-expansion cap."""


Partition = tuple[tuple[int, ...], ...]


def set_partitions(n: int) -> list[Partition]:
    """All set partitions of {1..n}, blocks and block lists sorted."""

    def rec(items: tuple[int, ...]) -> list[Partition]:
        if not items:
            return [()]
        head, rest = items[0], items[1:]
        out = []
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                block = (head, *extra)
                remaining = tuple(i for i in rest if i not in extra)
                for sub in rec(remaining):
                    out.append(tuple(sorted((block,) + sub)))
        return out

    return sorted(set(rec(tuple(range(1, n + 1)))))


def refines(a: Partition, b: Partition) -> bool:
    """True iff every block of ``a`` is contained in a block of ``b``."""
    lookup = {}
    for j, block in enumerate(b):
        for i in block:
            lookup[i] = j
    return all(len({lookup[i] for i in block}) == 1 for block in a)


@lru_cache(maxsize=None)
def partition_coefficients(n: int) -> dict[Partition, int]:
    """Integer weights a_J with sum over injective tuples of f equal to
    sum_J a_J * (V-statistic of the J-merged kernel).

    Solved triangularly from the requirement that the weights of all
    partitions finer than or equal to K sum to 1 exactly when K is the
    discrete partition and to 0 otherwise.
    """
    parts = set_partitions(n)
    discrete = tuple((i,) for i in range(1, n + 1))
    order = sorted(parts, key=len, reverse=True)  # finer first
    coeffs: dict[Partition, int] = {}
    for k_part in order:
        target = 1 if k_part == discrete else 0
        acc = sum(coeffs[j] for j in coeffs if j != k_part and refines(j, k_part))
        coeffs[k_part] = target - acc
    return coeffs


@dataclass(frozen=True)
class PartitionExpansion:
    """The U-from-V expansion for a given arity."""

    n: int
    terms: tuple[tuple[Partition, int], ...]


def build_expansion(n: int, max_n: int = 6) -> PartitionExpansion:
    if n > max_n:
        raise ExpansionCapError(f"arity {n} above the cap {max_n}")
    coeffs = partition_coefficients(n)
    terms = tuple(sorted(coeffs.items()))
    return PartitionExpansion(n=n, terms=terms)


# ---------------------------------------------------------------------------
# statistics


def v_statistic(
    snap: ParticleSnapshot, f: Kernel, budget: float = 1e8
) -> float:
    """Sum of the kernel over all index tuples (with repetition)."""
    m = snap.count
    if m == 0:
        return 0.0
    if f.dim != snap.positions.shape[1]:
        raise ValueError("kernel dimension does not match snapshot")
    if f.is_tensor_sum:
        out = 0.0
        for coef, slots in f.terms:
            prod = coef
            for fac in slots:
                prod *= float(fac(snap.positions).sum())
            out += prod
        return out
    if m**f.arity > budget:
        raise BudgetExceededError(
            f"{m}^{f.arity} black-box evaluations exceed the budget {budget:g}"
        )
    total = 0.0
    for idx in index_chunks((m,) * f.arity):
        total += float(f.evaluate([snap.positions[i] for i in idx]).sum())
    return total


def u_statistic(
    snap: ParticleSnapshot,
    f: Kernel,
    strategy: str = "inclusion-exclusion",
    budget: float = 1e8,
    max_n: int = 6,
) -> float:
    """Sum of the kernel over pairwise-distinct index tuples.

    ``strategy`` is "naive" (direct enumeration of injective tuples) or
    "inclusion-exclusion" (partition expansion over merged V-statistics);
    the two agree as integer-weighted sums of the same kernel evaluations.
    """
    m = snap.count
    n = f.arity
    if m < n:
        return 0.0
    if strategy == "naive":
        n_tuples = math.perm(m, n)
        if n_tuples > budget:
            raise BudgetExceededError(
                f"{n_tuples} naive evaluations exceed the budget {budget:g}"
            )
        total = 0.0
        for idx in index_chunks((m,) * n):
            injective = np.ones(idx[0].shape[0], dtype=bool)
            for a, b in itertools.combinations(idx, 2):
                injective &= a != b
            vals = f.evaluate([snap.positions[i[injective]] for i in idx])
            total += float(vals.sum())
        return total
    if strategy == "inclusion-exclusion":
        expansion = build_expansion(n, max_n=max_n)
        total = 0.0
        for J, a in expansion.terms:
            if a == 0:
                continue
            total += a * v_statistic(snap, substitute_partition(f, J), budget)
        return total
    raise ValueError(f"unknown strategy {strategy!r}")


def falling_factorial(m: int, n: int) -> int:
    return math.perm(m, n) if m >= n else 0


def normalized_u_statistic(
    snap: ParticleSnapshot,
    f_centered: Kernel,
    order_k: int,
    regime: Regime,
    consts: DerivedConstants,
) -> float:
    """Regime- and degeneracy-appropriate normalization of the U-statistic
    of an already-centered kernel whose first non-null projection has order
    ``order_k``."""
    n = f_centered.arity
    k = order_k
    m = snap.count
    if m == 0:
        raise ValueError("empty snapshot cannot be normalized")
    t = snap.t
    u = u_statistic(snap, f_centered)
    if regime.is_slow:
        return u * m ** -(n - k / 2.0)
    if regime.is_critical:
        return u * t ** -(k / 2.0) * m ** -(n - k / 2.0)
    return u * math.exp(-(consts.growth_rate * n - regime.twice_mu / 2.0 * k) * t)

"""n-variate kernels in tensor-sum or black-box form, Hoeffding projections,
canonicality and degeneracy-order detection.

A tensor-sum kernel is sum_l coef_l * prod_i F_i^l(x_i) where each slot
function F_i^l is a polynomial on the d-dimensional argument (``Factor``),
which makes Hoeffding projections closed-form and exact: averaging a slot
multiplies the term coefficient by the slot's mean h_0 (``Factor.hermite``),
projecting onto a slot recenters it, and a Gram sum over the slots' normed
Hermite arrays decides whether one vanishes.  A black box is averaged and
tested at tensor Gauss-Hermite nodes: the one use of quadrature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import BudgetExceededError, ModelParams
from .ou import Factor, QuadratureRule, default_rule, hermite_norms


class KernelShapeError(ValueError):
    """Arity or dimension mismatch between a kernel and its arguments."""


class ConstantKernelError(ValueError):
    """All Hoeffding projections of positive order vanish."""


class NonPolynomialError(ValueError):
    """Operation requires a tensor-sum kernel of polynomial slot functions."""


# ``index_chunks`` refuses a shape of more index tuples than this, so every
# black-box enumeration (average, V- or U-statistic) is refused before its
# first evaluation.
BLACKBOX_BUDGET = 1e8
# Index tuples per batched black-box call.
_CHUNK = 1 << 16
# A tensor sum's slot average or projection g vanishes when ||g / S||^2 <=
# NULL_TOL, S = sum_l |c_l| prod_i ||F_i^l|| bounding every projection's norm
# (squared: the Gram sum rounds near 1e-16), from normed Hermite arrays, so no
# scale overflows (``_gram``); a black box's when <= NULL_TOL at test points.
NULL_TOL = 1e-9


# ---------------------------------------------------------------------------
# kernels


@dataclass(frozen=True)
class Kernel:
    """n-variate kernel over (R^d)^n; symmetry is declared, not enforced."""

    arity: int
    dim: int
    terms: tuple[tuple[float, tuple[Factor, ...]], ...] | None = None
    evaluator: Callable | None = None
    symmetric: bool = False

    @staticmethod
    def tensor_sum(
        terms: Iterable[tuple[float, Sequence[Factor]]],
        dim: int,
        symmetric: bool = False,
    ) -> "Kernel":
        tt = tuple((float(c), tuple(slots)) for c, slots in terms)
        if not tt:
            raise KernelShapeError("tensor-sum kernel needs at least one term")
        arity = len(tt[0][1])
        if arity < 1:
            raise KernelShapeError("tensor-sum kernel needs at least one slot")
        for _, slots in tt:
            if len(slots) != arity:
                raise KernelShapeError("inconsistent arity across terms")
            for s in slots:
                if s.dim != dim:
                    raise KernelShapeError("inconsistent slot dimension")
        return Kernel(arity=arity, dim=dim, terms=tt, symmetric=symmetric)

    @staticmethod
    def from_slot_funcs(
        slot_funcs: Sequence[Factor], symmetric: bool = False
    ) -> "Kernel":
        """One term f_1 x ... x f_n with unit coefficient."""
        return Kernel.tensor_sum([(1.0, slot_funcs)], dim=slot_funcs[0].dim,
                                 symmetric=symmetric)

    @staticmethod
    def black_box(
        fn: Callable, arity: int, dim: int, symmetric: bool = False
    ) -> "Kernel":
        """Wrap an evaluator fn(args) where args is a list of ``arity``
        arrays of shape (m, dim) returning (m,) values."""
        return Kernel(arity=arity, dim=dim, evaluator=fn, symmetric=symmetric)

    @property
    def is_tensor_sum(self) -> bool:
        return self.terms is not None

    def evaluate(self, args: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate on a batch: args is a sequence of ``arity`` arrays of
        shape (m, dim); returns (m,)."""
        if len(args) != self.arity:
            raise KernelShapeError(
                f"kernel has arity {self.arity}, got {len(args)} arguments"
            )
        args = [np.atleast_2d(np.asarray(a, dtype=float)) for a in args]
        for a in args:
            if a.shape[1] != self.dim:
                raise KernelShapeError("argument dimension mismatch")
        if not self.is_tensor_sum:
            return np.asarray(self.evaluator(args), dtype=float)
        return self.contract(lambda i, f: f(args[i]))

    def contract(self, value: Callable):
        """The multilinear form of a tensor-sum kernel at ``value``:
        sum_l coef_l * prod_i value(i, F_i^l), for ``value(i, F)`` the value
        standing in for slot i's function F (an array per batch, or a
        number).  The coefficient is multiplied first, then the slots left
        to right."""
        total = 0.0
        for coef, slots in self.terms:
            prod = coef
            for i, f in enumerate(slots):
                prod = prod * value(i, f)
            total = total + prod
        return total


# ---------------------------------------------------------------------------
# Hoeffding projections


def _quad_grid(rule: QuadratureRule, dim: int):
    """Tensor grid of quadrature nodes with product weights on R^dim."""
    grids = np.meshgrid(*([rule.nodes] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wg = np.meshgrid(*([rule.weights] * dim), indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wg:
        w *= g.ravel()
    return pts, w


def index_chunks(shape: tuple[int, ...]):
    """Every index tuple of ``shape`` in C order, as one index array per
    axis, at most ``_CHUNK`` tuples at a time; a shape of more tuples than
    ``BLACKBOX_BUDGET`` is refused before the first chunk."""
    total = math.prod(shape)
    if total > BLACKBOX_BUDGET:
        raise BudgetExceededError(
            f"{' x '.join(map(str, shape))} black-box evaluations exceed the "
            f"budget {BLACKBOX_BUDGET:g}")
    for start in range(0, total, _CHUNK):
        yield np.unravel_index(np.arange(start, min(start + _CHUNK, total)), shape)


def _blackbox_average(kernel: Kernel, slots_out: tuple[int, ...],
                      params: ModelParams, rule: QuadratureRule) -> Callable:
    """Average a black-box kernel over the 0-based slots ``slots_out`` by
    tensor quadrature; returns an evaluator of the remaining slots (in their
    original order)."""
    keep = [i for i in range(kernel.arity) if i not in slots_out]
    pts, w = _quad_grid(rule, kernel.dim)
    shape_out = (pts.shape[0],) * len(slots_out)

    def fn(args):
        args = [np.atleast_2d(a) for a in args]
        m = args[0].shape[0] if keep else 1
        total = np.zeros(m)
        for idx in index_chunks((m,) + shape_out):
            full = [None] * kernel.arity
            for j, i in enumerate(keep):
                full[i] = args[j][idx[0]]
            wprod = np.ones(idx[0].shape[0])
            for j, i in enumerate(slots_out):
                full[i] = pts[idx[j + 1]]
                wprod *= w[idx[j + 1]]
            total += np.bincount(idx[0], weights=wprod * kernel.evaluate(full),
                                 minlength=m)
        return total

    return fn


def _average(f: Kernel, out: tuple[int, ...], params: ModelParams,
             rule: QuadratureRule | None):
    """Average the 0-based slots ``out`` (ascending) against the stationary
    law: a kernel of the remaining slots, in their order, or the total
    integral when none remain.  A tensor-sum term multiplies its coefficient
    by the averaged slots' means left to right, except that the total takes
    the product of a term's means first; ``rule`` (default
    ``default_rule``) places a black box's averaging nodes."""
    keep = [i for i in range(f.arity) if i not in out]
    if f.is_tensor_sum:
        if not keep:
            return float(sum(coef * float(np.prod([s.phi_mean(params) for s in slots]))
                             for coef, slots in f.terms))
        terms = [(math.prod((slots[i].phi_mean(params) for i in out), start=coef),
                  tuple(slots[i] for i in keep)) for coef, slots in f.terms]
        return Kernel.tensor_sum(terms, dim=f.dim)
    avg = _blackbox_average(f, out, params, rule or default_rule(params))
    return Kernel.black_box(avg, arity=len(keep), dim=f.dim) if keep else float(avg([])[0])


def project(
    f: Kernel,
    I: Iterable[int],
    params: ModelParams,
    rule: QuadratureRule | None = None,
):
    """Hoeffding projection onto the slot subset ``I`` (1-based slots).

    Slots outside ``I`` are averaged against the stationary law; slots in
    ``I`` are recentered.  Returns a Kernel of arity ``len(I)``, or the
    scalar total integral when ``I`` is empty.  Tensor-sum projections are
    exact; ``rule`` places a black box's averaging nodes.
    """
    I = sorted(set(I))
    if any(i < 1 or i > f.arity for i in I):
        raise KernelShapeError(f"projection slots {I} outside 1..{f.arity}")
    if not I:
        return _average(f, tuple(range(f.arity)), params, rule)
    if not f.is_tensor_sum:
        rule = rule or default_rule(params)
        return _blackbox_projection(f, I, project(f, [], params, rule), params, rule)
    avg = _average(f, tuple(i for i in range(f.arity) if i + 1 not in I), params, rule)
    return Kernel.tensor_sum([(c, tuple(s.centered(params) for s in slots))
                              for c, slots in avg.terms], dim=f.dim)


def _blackbox_projection(f: Kernel, I: Sequence[int], total: float,
                         params: ModelParams, rule: QuadratureRule) -> Kernel:
    """Projection of a black box onto the nonempty 1-based slot subset ``I``,
    given its total integral: the product of (delta_x - phi) over the slots
    of I, expanded over the subsets S of I; the S = () piece is the total."""
    I0 = tuple(i - 1 for i in I)
    out = tuple(i for i in range(f.arity) if i not in I0)
    const = (-1) ** len(I0) * total
    pieces = []
    for r in range(1, len(I0) + 1):
        for S in itertools.combinations(I0, r):
            sign = (-1) ** (len(I0) - len(S))
            averaged = tuple(sorted(set(out) | (set(I0) - set(S))))
            avg_fn = _blackbox_average(f, averaged, params, rule)
            positions = [I0.index(i) for i in S]
            pieces.append((sign, avg_fn, positions))

    def fn(args, _pieces=pieces):
        vals = np.full(np.atleast_2d(args[0]).shape[0], const)
        for sign, avg_fn, positions in _pieces:
            vals += sign * avg_fn([args[j] for j in positions])
        return vals

    return Kernel.black_box(fn, arity=len(I), dim=f.dim)


def hoeffding_table(
    f: Kernel, params: ModelParams, rule: QuadratureRule | None = None
) -> dict:
    """All projections keyed by slot subset, plus the constant under ().
    A black box's total integral is computed once for the whole table."""
    rule = rule if f.is_tensor_sum else rule or default_rule(params)
    table = {(): project(f, [], params, rule)}
    for r in range(1, f.arity + 1):
        for I in itertools.combinations(range(1, f.arity + 1), r):
            table[I] = (project(f, I, params, rule) if f.is_tensor_sum
                        else _blackbox_projection(f, I, table[()], params, rule))
    return table


def reconstruct_from_table(table: dict, args: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate sum_I (projection_I)((x_i)_{i in I}) on a batch of points."""
    args = [np.atleast_2d(np.asarray(a, dtype=float)) for a in args]
    m = args[0].shape[0]
    out = np.zeros(m)
    for I, proj in table.items():
        if not I:
            out += proj
        else:
            out += proj.evaluate([args[i - 1] for i in I])
    return out


def _test_points(f: Kernel, arity: int, rule: QuadratureRule) -> list:
    """At most 256 deterministic evaluation points drawn from the quadrature
    nodes, as one (points, dim) argument array per slot."""
    stride = max(1, len(rule.nodes) // 8)
    base = rule.nodes[::stride]
    rng = np.random.default_rng(0)
    n_pts = min(256, len(base) ** (arity * f.dim))
    pts = rng.choice(base, size=(n_pts, arity, f.dim))
    pts[0] = 0.0
    pts[-1] = base[-1]
    return [pts[:, j, :] for j in range(arity)]


def _gram(g: Kernel, scale: float, params: ModelParams):
    """a_l = c_l / scale * prod_i ||F_i^l|| and G_1 o ... o G_k, the slots'
    Gram matrices normed to a unit diagonal: ||g / scale||^2 = a'(G_1 o ... o
    G_k)a.  Each Hermite array is divided by its largest entry, then by its
    norm, so nothing overflows or underflows; a zero slot keeps a zero row."""
    a = np.array([c for c, _ in g.terms]) / scale
    gram = np.ones((len(a),) * 2)
    for slots in zip(*(s for _, s in g.terms)):
        shape = tuple(np.max([f.coeffs.shape for f in slots], axis=0))
        rows = np.zeros((len(slots),) + shape)
        for row, f in zip(rows, slots):
            row[tuple(map(slice, f.coeffs.shape))] = f.hermite(params)
        rows, weights = rows.reshape(len(slots), -1), hermite_norms(shape).ravel()
        peak = np.abs(rows).max(axis=1, keepdims=True)
        rows = rows / np.where(peak > 0.0, peak, 1.0)
        unit = np.sqrt(rows**2 @ weights)[:, None]
        rows = rows / np.where(unit > 0.0, unit, 1.0)
        a = a * (peak * unit).ravel()
        gram = gram * ((rows * weights) @ rows.T)
    return a, gram


def _size(f: Kernel, params: ModelParams) -> float | None:
    """S(f) = sum_l |c_l| prod_i ||F_i^l|| of a tensor sum, the bound of
    ``NULL_TOL``'s rule; None for a black box, which has no such bound."""
    return float(np.abs(_gram(f, 1.0, params)[0]).sum()) if f.is_tensor_sum else None


def _vanishes(g, size: float | None, params: ModelParams,
              rule: QuadratureRule | None) -> bool:
    """Whether an average or projection ``g`` (a kernel, or a number when no
    slot is left) of a kernel of size ``size`` (``_size``) counts as zero,
    by the rule of ``NULL_TOL``."""
    if size is not None:
        scale = size or 1.0  # a kernel of size 0 has only zero terms
        if not isinstance(g, Kernel):
            return (g / scale) ** 2 <= NULL_TOL
        a, gram = _gram(g, scale, params)
        return bool(a @ gram @ a <= NULL_TOL)
    vals = g.evaluate(_test_points(g, g.arity, rule)) if isinstance(g, Kernel) else g
    return bool(np.max(np.abs(vals)) <= NULL_TOL)


def is_canonical(
    f: Kernel, params: ModelParams, rule: QuadratureRule | None = None
) -> bool:
    """True iff averaging any single slot against the stationary law kills
    the kernel, by ``_vanishes``."""
    rule = rule if f.is_tensor_sum else rule or default_rule(params)
    size = _size(f, params)
    return all(_vanishes(_average(f, (k,), params, rule), size, params, rule)
               for k in range(f.arity))


def degeneracy_order(
    f: Kernel, params: ModelParams, rule: QuadratureRule | None = None
) -> tuple[int, Kernel]:
    """Smallest k with a non-vanishing order-k projection, as (k - 1, proj).

    Requires the symmetric flag; raises ConstantKernelError when every
    positive-order projection vanishes by ``_vanishes``.  A black box's
    total integral is computed once for all orders.
    """
    if not f.symmetric:
        raise KernelShapeError("degeneracy order requires a symmetric kernel")
    rule = rule if f.is_tensor_sum else rule or default_rule(params)
    total = None if f.is_tensor_sum else _average(f, tuple(range(f.arity)), params, rule)
    size = _size(f, params)
    for k in range(1, f.arity + 1):
        I = tuple(range(1, k + 1))
        proj = (project(f, I, params, rule) if f.is_tensor_sum
                else _blackbox_projection(f, I, total, params, rule))
        if not _vanishes(proj, size, params, rule):
            return k - 1, proj
    raise ConstantKernelError("kernel is constant up to stationary-null terms")


def substitute_partition(f: Kernel, J: Sequence[Sequence[int]]) -> Kernel:
    """Tensor-sum kernel of arity |J| obtained by feeding one variable to all
    the slots of each block, each merged slot a ``Factor.times`` product.
    Blocks are ordered by their smallest element.  A black box is refused
    (``NonPolynomialError``): its U-statistic enumerates injective tuples."""
    if not f.is_tensor_sum:
        raise NonPolynomialError("only a tensor-sum kernel merges its slots")
    blocks = sorted((tuple(sorted(b)) for b in J), key=lambda b: b[0])
    flat = sorted(i for b in blocks for i in b)
    if flat != list(range(1, f.arity + 1)):
        raise KernelShapeError(f"{blocks} is not a partition of 1..{f.arity}")
    terms = []
    for coef, slots in f.terms:
        merged = []
        for b in blocks:
            fac = slots[b[0] - 1]
            for i in b[1:]:
                fac = fac.times(slots[i - 1])
            merged.append(fac)
        terms.append((coef, tuple(merged)))
    return Kernel.tensor_sum(terms, dim=f.dim)


def center_kernel(
    f: Kernel, params: ModelParams, rule: QuadratureRule | None = None
) -> Kernel:
    """Subtract the total stationary integral from the kernel."""
    c = project(f, [], params, rule)
    if c == 0.0:
        return f
    if f.is_tensor_sum:
        ones = tuple(Factor.constant(1.0, f.dim) for _ in range(f.arity))
        return Kernel.tensor_sum(
            list(f.terms) + [(-c, ones)], dim=f.dim, symmetric=f.symmetric
        )
    fn = f.evaluator
    return Kernel.black_box(lambda args: fn(args) - c, f.arity, f.dim,
                            symmetric=f.symmetric)

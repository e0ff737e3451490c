import hashlib
import time

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from branching_ou import kernels
from branching_ou.kernels import (
    BudgetExceededError,
    ConstantKernelError,
    Factor,
    Kernel,
    KernelShapeError,
    NonPolynomialError,
    center_kernel,
    degeneracy_order,
    hoeffding_table,
    index_chunks,
    is_canonical,
    project,
    reconstruct_from_table,
    substitute_partition,
)
from branching_ou.limits import critical_limit_sampler, slow_limit_sampler
from branching_ou.model import ModelParams
from branching_ou.ou import Func1D, default_rule, stationary_std

from helpers import FUNC_ONE, FUNC_X

PARAMS = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)
PARAMS2 = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, dim=2, x0=(0.0, 0.0))

X2 = Func1D.polynomial([0.0, 0.0, 1.0])


def kernel_xy():
    return Kernel.from_slot_funcs([FUNC_X, FUNC_X], symmetric=True)


def kernel_x2y2():
    return Kernel.from_slot_funcs([X2, X2], symmetric=True)


def rand_points(n, arity, dim=1, seed=0, scale=1.5):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(n, arity, dim))


def scaled_xy(K, eps):
    """K (x y + eps (x + y)): canonical only for eps = 0."""
    return Kernel.tensor_sum([(K, (FUNC_X, FUNC_X)), (K * eps, (FUNC_X, FUNC_ONE)),
                              (K * eps, (FUNC_ONE, FUNC_X))], dim=1, symmetric=True)


def slot_scaled_xy(K, eps):
    """scaled_xy with K moved into each term's first slot."""
    return Kernel.tensor_sum([(c, (Func1D.polynomial(K * f.coeffs), g))
                              for c, (f, g) in scaled_xy(1.0, eps).terms],
                             dim=1, symmetric=True)


def hermite_product(k):
    """He_k(x / s) He_k(y / s), s the stationary standard deviation."""
    s = stationary_std(PARAMS)
    he = Func1D.polynomial(hermite_e.herme2poly([0] * k + [1]) / s ** np.arange(k + 1))
    return Kernel.from_slot_funcs([he, he], symmetric=True)


def centered_random_kernel(seed, terms=20, arity=4, degree=3):
    """A sum of random products of centered random polynomials: canonical."""
    rng = np.random.default_rng(seed)
    return Kernel.tensor_sum(
        [(rng.normal(), tuple(Func1D.polynomial(rng.normal(size=degree + 1))
                              .centered(PARAMS) for _ in range(arity)))
         for _ in range(terms)], dim=1, symmetric=True)


# Kernel scales from where a squared norm underflows (1e-170) to where the
# squared size overflows (1e160); the slot- entries put the scale in a slot.
SCALES = (1e-170, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e160)
# Kernels whose canonicality and order k - 1 do not depend on their scale,
# slot degree or number of terms: (kernel, canonical, k - 1).
VERDICTS = {
    **{f"scale-{K:g}": (lambda K=K: scaled_xy(K, 1e-11), True, 1) for K in SCALES},
    **{f"power-{K:g}": (lambda K=K: scaled_xy(K, 1e-3), False, 0) for K in SCALES},
    **{f"slot-scale-{K:g}": (lambda K=K: slot_scaled_xy(K, 1e-11), True, 1)
       for K in (1e-170, 1e160)},
    **{f"slot-power-{K:g}": (lambda K=K: slot_scaled_xy(K, 1e-3), False, 0)
       for K in (1e-170, 1e160)},
    **{f"He{k}-He{k}": (lambda k=k: hermite_product(k), True, 1) for k in range(2, 11)},
    "centered-20-terms-arity-4": (lambda: centered_random_kernel(0), True, 3),
}


class TestProject:
    def test_empty_subset_gives_constant(self):
        assert project(kernel_x2y2(), [], PARAMS) == pytest.approx(0.25, abs=1e-12)
        assert project(kernel_xy(), [], PARAMS) == pytest.approx(0.0, abs=1e-14)

    def test_full_projection_of_canonical_kernel_is_identity(self):
        f = kernel_xy()
        proj = project(f, [1, 2], PARAMS)
        pts = rand_points(50, 2)
        args = [pts[:, 0, :], pts[:, 1, :]]
        assert np.allclose(proj.evaluate(args), f.evaluate(args), atol=1e-12)

    def test_proper_projections_of_canonical_kernel_vanish(self):
        # averaging any slot of a canonical kernel gives zero, so every
        # projection other than the full one is null
        f = kernel_xy()
        assert project(f, [], PARAMS) == pytest.approx(0.0, abs=1e-14)
        pts = rand_points(40, 1)
        for I in ([1], [2]):
            proj = project(f, I, PARAMS)
            assert np.allclose(proj.evaluate([pts[:, 0, :]]), 0.0, atol=1e-12)

    def test_constant_kernel(self):
        const = Kernel.tensor_sum(
            [(3.5, (Factor.constant(1.0, 1), Factor.constant(1.0, 1)))], dim=1
        )
        assert project(const, [], PARAMS) == pytest.approx(3.5)
        for I in ([1], [2], [1, 2]):
            proj = project(const, I, PARAMS)
            pts = rand_points(20, len(I))
            vals = proj.evaluate([pts[:, j, :] for j in range(len(I))])
            assert np.allclose(vals, 0.0, atol=1e-12)

    def test_idempotence(self):
        f = kernel_x2y2()
        once = project(f, [1], PARAMS)
        twice = project(once, [1], PARAMS)
        pts = rand_points(30, 1)
        assert np.allclose(
            once.evaluate([pts[:, 0, :]]), twice.evaluate([pts[:, 0, :]]), atol=1e-10
        )


class TestHoeffdingReconstruction:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_tensor_sums(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        terms = []
        for _ in range(int(rng.integers(1, 3))):
            slots = tuple(
                Factor.from_polys([rng.normal(size=3)]) for _ in range(n)
            )
            terms.append((float(rng.normal()), slots))
        f = Kernel.tensor_sum(terms, dim=1)
        table = hoeffding_table(f, PARAMS)
        pts = rand_points(100, n, seed=seed + 10)
        args = [pts[:, j, :] for j in range(n)]
        assert np.allclose(reconstruct_from_table(table, args),
                           f.evaluate(args), atol=1e-8)

    def test_black_box_kernel(self):
        fn = lambda args: (args[0][:, 0] ** 2) * args[1][:, 0] + args[1][:, 0]
        f = Kernel.black_box(fn, arity=2, dim=1)
        table = hoeffding_table(f, PARAMS)
        pts = rand_points(25, 2, seed=4)
        args = [pts[:, 0, :], pts[:, 1, :]]
        assert np.allclose(reconstruct_from_table(table, args),
                           f.evaluate(args), atol=1e-8)

    def test_black_box_projection_matches_tensor_sum_projection(self):
        ts = kernel_x2y2()
        bb = Kernel.black_box(
            lambda args: (args[0][:, 0] ** 2) * (args[1][:, 0] ** 2),
            arity=2, dim=1,
        )
        pts = rand_points(20, 1, seed=5)
        for I in ([1], [2]):
            got = project(bb, I, PARAMS).evaluate([pts[:, 0, :]])
            want = project(ts, I, PARAMS).evaluate([pts[:, 0, :]])
            assert np.allclose(got, want, atol=1e-9)

    def test_black_box_pair_projection_arity_three(self):
        ts = Kernel.from_slot_funcs([X2, FUNC_X, X2])
        bb = Kernel.black_box(
            lambda args: args[0][:, 0] ** 2 * args[1][:, 0] * args[2][:, 0] ** 2,
            arity=3, dim=1,
        )
        pts = rand_points(12, 2, seed=6)
        args = [pts[:, 0, :], pts[:, 1, :]]
        for I in ([1, 2], [1, 3], [2, 3]):
            got = project(bb, I, PARAMS).evaluate(args)
            want = project(ts, I, PARAMS).evaluate(args)
            assert np.allclose(got, want, atol=1e-8)


    def test_multi_term_table_pinned(self):
        # non-unit coefficients on three terms whose slots all have nonzero
        # means: the digest pins the order in which each projection and the
        # total multiply a coefficient by slot means, to the last bit
        poly = Func1D.polynomial
        a, b = poly([0.3, 1.1, 0.7]), poly([1.3, -0.4, 0.9])
        f = Kernel.tensor_sum([
            (1.1, (a, b, poly([-0.2, 0.5, 1.7, 0.25]))),
            (-0.35, (poly([0.8, 0.0, 1.3]), a, poly([1.7, 0.2]))),
            (0.77, (poly([-0.6, 0.9, 0.0, 0.4]), poly([0.45, 0.0, 1.1]), b)),
        ], dim=1)
        table = hoeffding_table(f, PARAMS)
        pts = np.random.default_rng(31).normal(0.0, 1.5, size=(16, 3, 1))
        digest = hashlib.sha256(np.float64(table[()]).astype("<f8").tobytes())
        for I in sorted(k for k in table if k):
            digest.update(table[I].evaluate([pts[:, j, :] for j in range(len(I))])
                          .astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "34109d046c094b805841b5f564e3cfd81e1bc56bf76f364100668f9bcfb8bc14")


class TestCanonicality:
    def test_product_of_centered_is_canonical(self):
        assert is_canonical(kernel_xy(), PARAMS)

    def test_squares_not_canonical(self):
        assert not is_canonical(kernel_x2y2(), PARAMS)

    def test_zero_kernel_is_canonical(self):
        zero = Kernel.tensor_sum(
            [(0.0, (Factor.constant(1.0, 1), Factor.constant(1.0, 1)))], dim=1
        )
        assert is_canonical(zero, PARAMS)

    def test_arity_one(self):
        assert is_canonical(Kernel.from_slot_funcs([FUNC_X]), PARAMS)
        assert not is_canonical(Kernel.from_slot_funcs([X2]), PARAMS)

    @pytest.mark.parametrize("name", VERDICTS)
    def test_verdict_is_exact(self, name):
        kernel, canonical, _ = VERDICTS[name]
        assert is_canonical(kernel(), PARAMS) is canonical

    def test_tensor_sums_never_build_a_quadrature_rule(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a tensor sum built a quadrature rule")

        monkeypatch.setattr(kernels, "default_rule", refuse)
        monkeypatch.setattr(kernels, "_test_points", refuse)
        for f in (kernel_xy(), kernel_x2y2(), centered_random_kernel(1, terms=3)):
            is_canonical(f, PARAMS)
            degeneracy_order(f, PARAMS)
            hoeffding_table(f, PARAMS)
            center_kernel(f, PARAMS)
        rng = np.random.default_rng(0)
        assert slow_limit_sampler(kernel_xy(), PARAMS, rng, size=4).shape == (4,)
        critical = ModelParams(lam=1.0, p=0.75, mu=0.25, sigma=1.0)
        assert critical_limit_sampler(kernel_xy(), critical, rng, size=4).shape == (4,)


class TestDegeneracyOrder:
    def test_canonical_product(self):
        order, proj = degeneracy_order(kernel_xy(), PARAMS)
        assert order == 1
        pts = rand_points(20, 2)
        args = [pts[:, 0, :], pts[:, 1, :]]
        assert np.allclose(proj.evaluate(args), kernel_xy().evaluate(args), atol=1e-10)

    def test_additive_kernel_has_order_zero(self):
        f = Kernel.tensor_sum(
            [
                (1.0, (Factor.from_polys([[0.0, 1.0]]), Factor.constant(1.0, 1))),
                (1.0, (Factor.constant(1.0, 1), Factor.from_polys([[0.0, 1.0]]))),
            ],
            dim=1, symmetric=True,
        )
        order, proj = degeneracy_order(f, PARAMS)
        assert order == 0
        pts = rand_points(30, 1)
        assert np.allclose(proj.evaluate([pts[:, 0, :]]), pts[:, 0, 0], atol=1e-10)

    def test_additive_squares_projection(self):
        f = Kernel.tensor_sum(
            [
                (1.0, (factor_poly([0, 0, 1]), Factor.constant(1.0, 1))),
                (1.0, (Factor.constant(1.0, 1), factor_poly([0, 0, 1]))),
            ],
            dim=1, symmetric=True,
        )
        order, proj = degeneracy_order(f, PARAMS)
        assert order == 0
        pts = rand_points(30, 1)
        want = pts[:, 0, 0] ** 2 - 0.5
        assert np.allclose(proj.evaluate([pts[:, 0, :]]), want, atol=1e-10)

    def test_requires_symmetric_flag(self):
        f = Kernel.from_slot_funcs([FUNC_X, FUNC_X], symmetric=False)
        with pytest.raises(KernelShapeError):
            degeneracy_order(f, PARAMS)

    @pytest.mark.parametrize("name", VERDICTS)
    def test_order_is_exact(self, name):
        kernel, _, order = VERDICTS[name]
        assert degeneracy_order(kernel(), PARAMS)[0] == order

    def test_constant_kernel_reported(self):
        const = Kernel.tensor_sum(
            [(2.0, (Factor.constant(1.0, 1), Factor.constant(1.0, 1)))],
            dim=1, symmetric=True,
        )
        with pytest.raises(ConstantKernelError):
            degeneracy_order(const, PARAMS)


def factor_poly(coeffs):
    return Factor.from_polys([coeffs])


class TestSubstitutePartition:
    def test_singletons_is_identity(self):
        f = kernel_x2y2()
        sub = substitute_partition(f, [[1], [2]])
        pts = rand_points(20, 2)
        args = [pts[:, 0, :], pts[:, 1, :]]
        assert np.allclose(sub.evaluate(args), f.evaluate(args), atol=1e-12)

    def test_merge_to_square(self):
        sub = substitute_partition(kernel_xy(), [[1, 2]])
        pts = rand_points(20, 1)
        assert np.allclose(sub.evaluate([pts[:, 0, :]]), pts[:, 0, 0] ** 2, atol=1e-12)

    def test_three_to_two(self):
        f = Kernel.from_slot_funcs([FUNC_X, FUNC_X, X2])
        sub = substitute_partition(f, [[1, 2], [3]])
        pts = rand_points(20, 2)
        want = pts[:, 0, 0] ** 2 * pts[:, 1, 0] ** 2
        assert np.allclose(sub.evaluate([pts[:, 0, :], pts[:, 1, :]]), want, atol=1e-12)

    def test_black_box_refused(self):
        # a black box has no slots to merge: its U-statistic enumerates
        f = Kernel.black_box(
            lambda args: args[0][:, 0] * args[1][:, 0], arity=2, dim=1
        )
        with pytest.raises(NonPolynomialError, match="tensor-sum"):
            substitute_partition(f, [[1, 2]])

    def test_rejects_non_partition(self):
        with pytest.raises(KernelShapeError):
            substitute_partition(kernel_xy(), [[1]])


class TestCenterKernel:
    def test_centering_removes_constant(self):
        f = kernel_x2y2()
        centered = center_kernel(f, PARAMS)
        assert project(centered, [], PARAMS) == pytest.approx(0.0, abs=1e-12)
        pts = rand_points(15, 2)
        args = [pts[:, 0, :], pts[:, 1, :]]
        assert np.allclose(centered.evaluate(args), f.evaluate(args) - 0.25,
                           atol=1e-12)


class TestMultiDim:
    def test_product_factor_dim2(self):
        slot = Factor.from_polys([FUNC_X.coeffs, X2.coeffs])
        pts = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert np.allclose(slot(pts), [4.0, 3.0])

    def test_sum_of_products_dim2(self):
        # x_1 + 2 x_1 x_2^2 - 1 as one coefficient array
        slot = Factor([[-1.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
        pts = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert np.allclose(slot(pts), [8.0, 8.0])

    def test_projection_dim2(self):
        params2 = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, dim=2, x0=(0.0, 0.0))
        slot = Factor.from_polys([X2.coeffs, FUNC_ONE.coeffs])
        f = Kernel.tensor_sum([(1.0, (slot, slot))], dim=2, symmetric=True)
        assert project(f, [], params2) == pytest.approx(0.25, abs=1e-12)
        assert not is_canonical(f, params2)


class TestBatchedBlackBox:
    def test_index_chunks_c_order(self):
        shape = (3, 5, 5000)  # 75,000 tuples: two chunks
        chunks = list(index_chunks(shape))
        assert len(chunks) == 2
        assert all(len(idx) == 3 for idx in chunks)
        got = np.concatenate([np.stack(idx, axis=1) for idx in chunks])
        assert np.array_equal(got, np.indices(shape).reshape(3, -1).T)

    def test_budget_refused_up_front(self):
        # 4096^3 ~ 6.9e10 rows for the constant projection alone
        bb = Kernel.black_box(
            lambda args: args[0][:, 0] * args[1][:, 1] * args[2][:, 0],
            arity=3, dim=2,
        )
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            hoeffding_table(bb, PARAMS2)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_degeneracy_order_dim2_at_default_rule(self, degenerate):
        # 4096^2 quadrature rows per constant projection
        b = 0.0 if degenerate else 0.7

        def fn(args):
            u, v = args
            return (u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]
                    + b * u[:, 0] ** 2 * v[:, 0] ** 2)

        def slot(*funcs):
            return Factor.from_polys([g.coeffs for g in funcs])

        x, y, x2 = slot(FUNC_X, FUNC_ONE), slot(FUNC_ONE, FUNC_X), slot(X2, FUNC_ONE)
        bb = Kernel.black_box(fn, arity=2, dim=2, symmetric=True)
        twin = Kernel.tensor_sum([(1.0, (x, x)), (1.0, (y, y)), (b, (x2, x2))],
                                 dim=2, symmetric=True)
        order, proj = degeneracy_order(center_kernel(bb, PARAMS2), PARAMS2)
        want_order, want_proj = degeneracy_order(center_kernel(twin, PARAMS2), PARAMS2)
        assert order == want_order == (1 if degenerate else 0)
        pts = rand_points(30, order + 1, dim=2, seed=7)
        args = [pts[:, j, :] for j in range(order + 1)]
        assert np.allclose(proj.evaluate(args), want_proj.evaluate(args),
                           rtol=1e-9, atol=1e-9)

    def test_degeneracy_order_computes_one_total(self):
        # rows of evaluator calls on the full tensor grid are total integrals
        rule = default_rule(PARAMS, n_nodes=16)
        grid = (np.repeat(rule.nodes, 16), np.tile(rule.nodes, 16))
        total_rows = []

        def fn(args):
            u, v = args
            if all(np.array_equal(a[:, 0], g) for a, g in zip(args, grid)):
                total_rows.append(u.shape[0])
            return u[:, 0] * v[:, 0]

        bb = Kernel.black_box(fn, arity=2, dim=1, symmetric=True)
        order, _ = degeneracy_order(bb, PARAMS, rule)
        assert order == 1
        assert total_rows == [16**2]

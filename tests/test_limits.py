import hashlib
import math

import numpy as np
import pytest

from branching_ou import limits, simulator
from branching_ou.kernels import Factor, Kernel
from branching_ou.limits import (
    CenteringError,
    GaussianFamily,
    NonPolynomialError,
    RegimeError,
    critical_limit_sampler,
    default_fast_horizon,
    enumerate_diagrams,
    fast_limit_sampler,
    gradient_phi_mean,
    h_polynomial_value,
    sigma_critical,
    sigma_slow,
    slow_covariance,
    slow_limit_sampler,
)
from branching_ou.model import (MAX_ARITY, ArityCapError, ModelParams, derive,
                                extinction_by)
from branching_ou.ou import FUNC_ONE, FUNC_X, Func1D
from branching_ou.simulator import Caps, ResourceCapError
from branching_ou.tree_oracle import exact_mixed_moment

from helpers import involution_number, mean_se, var_se

SLOW = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)
CRIT = ModelParams(lam=1.0, p=0.75, mu=0.25, sigma=1.0)
FAST = ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0)

X2 = Func1D.polynomial([0.0, 0.0, 1.0])


def kernel_xx(symmetric=True):
    return Kernel.from_slot_funcs([FUNC_X, FUNC_X], symmetric=symmetric)


class TestDiagrams:
    def test_counts_small(self):
        assert len(enumerate_diagrams(2)) == 2
        assert len(enumerate_diagrams(3)) == 4
        assert len(enumerate_diagrams(4)) == 10

    def test_involution_recurrence(self):
        for n in range(MAX_ARITY + 1):
            got = len(enumerate_diagrams(n))
            assert got == involution_number(n)
            assert got == len(set(enumerate_diagrams(n)))

    def test_edges_disjoint_and_partitioning(self):
        for d in enumerate_diagrams(5):
            assert all(len(b) in (1, 2) for b in d)
            seen = [i for b in d for i in b]
            assert sorted(seen) == list(range(1, 6))
            assert list(d) == sorted(d)

    def test_cap(self):
        with pytest.raises(ArityCapError):
            enumerate_diagrams(7)


class TestSigmaSlow:
    # closed forms at SLOW: stationary variance s^2 = 1/2, 2 lam p = 1.5,
    # growth 0.5; the degree-n chaos integrates to 1.5 / (2 n - 0.5)

    def test_linear_kernel_closed_form(self):
        assert sigma_slow(FUNC_X, SLOW) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a", [0.5, 3.0, 10.0])
    def test_scaled_linear_kernel_closed_form(self, a):
        want = a * a * 0.5 * (1.0 + 1.5 / 1.5)
        f = Func1D.polynomial([0.0, a])
        assert sigma_slow(f, SLOW) == pytest.approx(want, rel=1e-12)

    def test_two_dim_multi_atom_closed_form(self):
        # x_1 + x_1 x_2 splits into chaos degrees 1 and 2
        params2 = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, dim=2,
                              x0=(0.0, 0.0))
        fac = Factor([[0.0, 0.0], [1.0, 1.0]])
        want = 0.5 * (1.0 + 1.5 / 1.5) + 0.25 * (1.0 + 1.5 / 3.5)
        assert sigma_slow(fac, params2) == pytest.approx(want, rel=1e-12)

    def test_constant_kernel(self):
        assert sigma_slow(FUNC_ONE, SLOW) == pytest.approx(0.0, abs=1e-12)

    def test_strong_reversion_limit_direction(self):
        params = ModelParams(lam=1.0, p=0.75, mu=40.0, sigma=1.0)
        stat_var = 1.0 / 80.0
        val = sigma_slow(FUNC_X, params)
        assert abs(val - stat_var) <= 0.05 * stat_var

    def test_against_fixed_rule_quadrature(self):
        # sigma^2 = phi(fc^2) + 2 lam p int_0^inf e^{gs} phi((T_s fc)^2) ds
        # for the centered fc = f - phi(f), with fixed rules on grids:
        # Gauss-Hermite nodes for phi, the Mehler form
        # T_s h(x) = E h(x e^{-mu s} + std sqrt(1 - e^{-2 mu s}) Z) with
        # Gauss-Hermite nodes for Z, and composite Gauss-Legendre in s on
        # [0, 40] (the integrand decays like e^{-3s/2})
        coeffs = [0.0, 1.0, 0.5, -0.2]
        f = Func1D.polynomial(coeffs)
        poly = np.polynomial.polynomial.Polynomial(coeffs)
        std = math.sqrt(0.5)
        z, wz = np.polynomial.hermite_e.hermegauss(12)
        wz = wz / math.sqrt(2.0 * math.pi)
        mean = wz @ poly(std * z)
        y, wy = np.polynomial.legendre.leggauss(10)
        edges = np.arange(0.0, 40.0, 1.0)
        s = (edges[:, None] + 0.5 * (y + 1.0)).ravel()
        ws = np.tile(0.5 * wy, len(edges))
        decay, mix = np.exp(-s), np.sqrt(-np.expm1(-2.0 * s))
        # evolved[i, k] = T_{s_i} fc(std z_k)
        evolved = (poly(std * z[None, :, None] * decay[:, None, None]
                        + std * mix[:, None, None] * z[None, None, :]) - mean) @ wz
        integral = ws @ (np.exp(0.5 * s) * ((evolved**2) @ wz))
        want = wz @ (poly(std * z) - mean) ** 2 + 1.5 * integral
        assert sigma_slow(f, SLOW) == pytest.approx(want, rel=1e-6)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            sigma_slow(FUNC_X, FAST)


class TestSlowCovariance:
    def test_chaos_closed_forms(self):
        # x is degree-1 chaos with norm 1/2 and time integral 1.5 / 1.5;
        # x^2 - 1/2 is degree 2 with norm 1/2 and time integral 1.5 / 3.5;
        # distinct chaos degrees are uncorrelated
        centered_sq = Func1D.polynomial([-0.5, 0.0, 1.0])
        cov = slow_covariance([FUNC_X, centered_sq], SLOW).covariance
        assert cov[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert cov[1, 1] == pytest.approx(5.0 / 7.0, rel=1e-12)
        assert cov[0, 1] == 0.0 and cov[1, 0] == 0.0


class TestSigmaCritical:
    def test_linear_kernel(self):
        assert sigma_critical(FUNC_X, CRIT) == pytest.approx(3.0, abs=1e-10)

    def test_even_kernel_vanishes(self):
        assert sigma_critical(X2, CRIT) == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        assert sigma_critical(FUNC_ONE, CRIT) == pytest.approx(0.0, abs=1e-14)

    def test_gradient_pairing_value(self):
        # <x, d phi / dx> = -<1, phi> = -1 by integration by parts
        fac = Factor.from_polys([[0.0, 1.0]])
        assert -gradient_phi_mean(fac, CRIT) == pytest.approx([-1.0], abs=1e-12)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            sigma_critical(FUNC_X, SLOW)


class TestGaussianFamily:
    def test_psd_clip(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-13]])
        fam = GaussianFamily.from_covariance(cov)
        draws = fam.sample(np.random.default_rng(0), 2000)
        assert np.allclose(draws[:, 0], draws[:, 1], atol=1e-5)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            GaussianFamily.from_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSlowSampler:
    def test_order_one_matches_sigma(self):
        rng = np.random.default_rng(101)
        f = Kernel.from_slot_funcs([FUNC_X], symmetric=True)
        draws = slow_limit_sampler(f, SLOW, rng, size=100_000)
        var, se = var_se(draws)
        assert abs(var - 1.0) <= 3 * se

    def test_order_two_mean_is_pair_integral(self):
        # L(h (x) h) = G^2 - <h^2, phi>; its mean equals the positive time
        # integral 2 lam p int e^{gs} <phi, (T_s h)^2> ds = 0.5 here
        rng = np.random.default_rng(103)
        draws = slow_limit_sampler(kernel_xx(), SLOW, rng, size=200_000)
        mean, se = mean_se(draws)
        assert abs(mean - 0.5) <= 4 * se

    def test_multi_term_mean(self):
        # f = x (x) x + 2 (x^2 - 1/2) (x) (x^2 - 1/2): the two factor
        # families are uncorrelated, so the limit means add:
        # 0.5 + 2 * (3 / 14)
        centered_sq = Func1D.polynomial([-0.5, 0.0, 1.0])
        f = Kernel.tensor_sum(
            [
                (1.0, (FUNC_X, FUNC_X)),
                (2.0, (centered_sq, centered_sq)),
            ],
            dim=1, symmetric=True,
        )
        rng = np.random.default_rng(211)
        draws = slow_limit_sampler(f, SLOW, rng, size=150_000)
        mean, se = mean_se(draws)
        assert abs(mean - (0.5 + 2.0 * 3.0 / 14.0)) <= 4 * se

    def test_duplicate_terms_are_perfectly_correlated(self):
        # two identical tensor terms must draw the same Gaussian values, so
        # the sample is 2 (G^2 - 1/2): mean 1, variance 8, support floor -1
        f = Kernel.tensor_sum(
            [
                (1.0, (FUNC_X, FUNC_X)),
                (1.0, (FUNC_X, FUNC_X)),
            ],
            dim=1, symmetric=True,
        )
        rng = np.random.default_rng(223)
        draws = slow_limit_sampler(f, SLOW, rng, size=100_000)
        mean, se_m = mean_se(draws)
        var, se_v = var_se(draws)
        assert abs(mean - 1.0) <= 4 * se_m
        assert abs(var - 8.0) <= 4 * se_v
        assert draws.min() >= -1.0 - 1e-9

    def test_order_three_diagram_sum(self):
        # f = x (x) x (x) x: the signed diagram sum collapses to
        # G^3 - 3 <x^2, phi> G with Var G = 1, whose variance is 8.25
        f = Kernel.from_slot_funcs([FUNC_X, FUNC_X, FUNC_X], symmetric=True)
        rng = np.random.default_rng(227)
        draws = slow_limit_sampler(f, SLOW, rng, size=200_000)
        mean, se_m = mean_se(draws)
        var, se_v = var_se(draws)
        assert abs(mean) <= 4 * se_m
        assert abs(var - 8.25) <= 4 * se_v

    def test_order_two_matches_analytic_law(self):
        # for f = x (x) x the limit is G^2 - <x^2, phi> with Var G = 1, so
        # its CDF is the unit chi-square CDF shifted by the stationary
        # second moment
        from scipy import stats as sstats

        rng = np.random.default_rng(42)
        draws = slow_limit_sampler(kernel_xx(), SLOW, rng, size=200_000)
        ks = sstats.kstest(draws, lambda y: sstats.chi2.cdf(y + 0.5, df=1))
        assert ks.pvalue > 0.01

    def test_draws_pinned(self):
        # canonical kernels of arity 2, 3 and 4 from one stream; the digest
        # pins the diagram order, the signs and the Gaussian draws
        centered_sq = Func1D.polynomial([-0.5, 0.0, 1.0])
        x = FUNC_X
        kernels = [
            kernel_xx(),
            Kernel.tensor_sum([(1.0, (x, centered_sq, x)),
                               (-0.5, (centered_sq, x, x))], dim=1),
            Kernel.from_slot_funcs([FUNC_X] * 4, symmetric=True),
        ]
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for f in kernels:
            digest.update(slow_limit_sampler(f, SLOW, rng, size=64)
                          .astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "2407f0872dc518baa43ece82e8f2c73d04c9befbf9a55c49a0235f5d285e603b")

    def test_zero_kernel(self):
        f = Kernel.tensor_sum(
            [(0.0, (Factor.constant(1.0, 1), Factor.constant(1.0, 1)))], dim=1
        )
        draws = slow_limit_sampler(f, SLOW, np.random.default_rng(1), size=10)
        assert np.all(draws == 0.0)

    def test_non_canonical_rejected(self):
        f = Kernel.from_slot_funcs([X2, X2], symmetric=True)
        with pytest.raises(CenteringError):
            slow_limit_sampler(f, SLOW, np.random.default_rng(1))

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            slow_limit_sampler(kernel_xx(), CRIT, np.random.default_rng(1))


class TestCriticalSampler:
    def test_order_one_variance(self):
        rng = np.random.default_rng(107)
        f = Kernel.from_slot_funcs([FUNC_X], symmetric=True)
        draws = critical_limit_sampler(f, CRIT, rng, size=100_000)
        var, se = var_se(draws)
        assert abs(var - 3.0) <= 3 * se

    def test_order_two_mean(self):
        rng = np.random.default_rng(109)
        draws = critical_limit_sampler(kernel_xx(), CRIT, rng, size=100_000)
        mean, se = mean_se(draws)
        assert abs(mean - 3.0) <= 4 * se

    def test_two_dim_additive_kernel(self):
        # f(x) = x_1 + x_2: gradient pairings are -1 per coordinate, so the
        # asymptotic variance doubles the 1-D value
        params2 = ModelParams(lam=1.0, p=0.75, mu=0.25, sigma=1.0, dim=2,
                              x0=(0.0, 0.0))
        fac = Factor([[0.0, 1.0], [1.0, 0.0]])
        assert sigma_critical(fac, params2) == pytest.approx(6.0, abs=1e-10)
        f = Kernel.tensor_sum([(1.0, (fac,))], dim=2, symmetric=True)
        draws = critical_limit_sampler(f, params2, np.random.default_rng(17),
                                       size=100_000)
        var, se = var_se(draws)
        assert abs(var - 6.0) <= 3 * se

    def test_even_factor_degenerate(self):
        centered_sq = Func1D.polynomial([-2.0, 0.0, 1.0])  # x^2 - stat_var
        f = Kernel.from_slot_funcs([centered_sq], symmetric=True)
        draws = critical_limit_sampler(f, CRIT, np.random.default_rng(3), size=50)
        assert np.allclose(draws, 0.0)

    def test_uncentered_factor_rejected(self):
        f = Kernel.from_slot_funcs([X2, X2], symmetric=True)
        with pytest.raises(CenteringError):
            critical_limit_sampler(f, CRIT, np.random.default_rng(1))

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            critical_limit_sampler(kernel_xx(), SLOW, np.random.default_rng(1))

    def test_draws_pinned(self):
        # multi-term kernels of arity 2 and 3 with non-unit coefficients, and
        # a 2-D kernel, from one stream; the digest pins the gradient
        # pairings, the order of the products and the Gaussian draws
        x3 = Func1D.polynomial([0.0, 0.5, 0.0, 1.0])
        crit2 = ModelParams(lam=1.0, p=0.75, mu=0.25, sigma=1.0, dim=2,
                            x0=(0.0, 0.0))
        cases = [
            (CRIT, Kernel.tensor_sum([(1.0, (FUNC_X, FUNC_X)),
                                      (-0.7, (FUNC_X, x3)),
                                      (2.5, (x3, FUNC_X))], dim=1)),
            (CRIT, Kernel.tensor_sum([(0.3, (x3, FUNC_X, x3)),
                                      (-1.9, (FUNC_X, FUNC_X, FUNC_X))], dim=1)),
            (crit2, Kernel.tensor_sum([(1.3, (Factor([[0.0, 1.0], [0.7, 0.0]]),
                                              Factor([[0.0, -0.4], [1.1, 0.0]])))],
                                      dim=2)),
        ]
        rng = np.random.default_rng(2025)
        digest = hashlib.sha256()
        for params, f in cases:
            digest.update(critical_limit_sampler(f, params, rng, size=64)
                          .astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "982227a8da8772f4dbae083bffdc65f693bd0d5e8be1e101845a8833428194d0")


class TestFastSampler:
    def test_h_polynomial_identities(self):
        f1 = Kernel.from_slot_funcs([FUNC_X])
        h = np.array([[1.7], [-1.3]])
        assert h_polynomial_value(f1, h, FAST) == pytest.approx([1.7, -1.3])
        assert h_polynomial_value(kernel_xx(), h, FAST) == pytest.approx([2.89, 1.69])

    def test_h_polynomial_two_dim(self):
        # slot gradient means: (1, 0) for x_1 + x_2^2 and (2, 3) for
        # 2 x_1 + 3 x_2, so H -> 0.5 h_1 (2 h_1 + 3 h_2)
        params2 = ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0, dim=2,
                              x0=(0.0, 0.0))
        f = Kernel.tensor_sum(
            [(0.5, (Factor([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
                    Factor([[0.0, 3.0], [2.0, 0.0]])))], dim=2)
        h = np.array([[1.0, 2.0], [-0.5, 0.25]])
        want = 0.5 * h[:, 0] * (2 * h[:, 0] + 3 * h[:, 1])
        assert h_polynomial_value(f, h, params2) == pytest.approx(want, rel=1e-12)

    def test_order_one_mean_matches_start_shift(self):
        # the martingale limit started from x differs by x times the
        # population limit, so the sample mean moves from 0 to x
        f = Kernel.from_slot_funcs([FUNC_X], symmetric=True)
        rng = np.random.default_rng(113)
        shifted = ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0, x0=(2.0,))
        draws0 = fast_limit_sampler(f, FAST, rng, size=400, t_approx=12.0)
        draws2 = fast_limit_sampler(f, shifted, rng, size=400, t_approx=12.0)
        m0, se0 = mean_se(draws0)
        m2, se2 = mean_se(draws2)
        assert abs(m0) <= 4 * se0
        assert abs(m2 - 2.0) <= 4 * se2

    def test_order_two_is_square(self):
        rng = np.random.default_rng(127)
        draws = fast_limit_sampler(kernel_xx(), FAST, rng, size=50, t_approx=6.0)
        assert np.all(draws >= 0.0)

    def test_draws_pinned(self):
        # the order-one kernel returns H itself, so the digest pins every
        # genealogy and position-sum draw the sampler takes from the stream
        f = Kernel.from_slot_funcs([FUNC_X], symmetric=True)
        draws = fast_limit_sampler(f, FAST, np.random.default_rng(2024), size=64,
                                   t_approx=6.0)
        assert hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest() == (
            "86eb72e2e4ecee403685a98d73ac475d5f5ddd129ed5f7075a7feeaeeab22baf")

    @pytest.mark.parametrize("t, n", [(8.0, 4000), (2.0, 8000)])
    def test_moments_match_oracle_at_horizon(self, t, n):
        # the order-one kernel returns H = exp((mu - g) t) S, so E H^k is
        # an exact oracle moment E S^k scaled to the sampler's horizon.  H^4
        # has a heavy right tail, which skews the mean's z-score low (mean
        # about -0.8 over 60 seeds at t = 8), so its band is wider
        params = ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0, x0=(0.5,))
        f = Kernel.from_slot_funcs([FUNC_X], symmetric=True)
        draws = fast_limit_sampler(f, params, np.random.default_rng(131), size=n,
                                   t_approx=t)
        scale = math.exp((params.mu - derive(params).growth_rate) * t)
        for k, band in ((1, 4), (2, 4), (4, 5)):
            want = scale**k * exact_mixed_moment(k, t, params, [FUNC_X] * k)
            m, se = mean_se(draws**k)
            assert abs(m - want) <= band * se, (k, m, want, se)

    def test_zero_draws_are_the_extinct_replicas(self):
        # an extinct replica gives H = 0 exactly and a survivor started off
        # the origin never does, so the zeros estimate extinction_by(t)
        params = ModelParams(lam=1.0, p=0.75, mu=0.1, sigma=1.0, x0=(1.0,))
        f = Kernel.from_slot_funcs([FUNC_X], symmetric=True)
        n, t = 2000, 4.0
        draws = fast_limit_sampler(f, params, np.random.default_rng(137), size=n,
                                   t_approx=t)
        q = extinction_by(t, params)
        assert abs(np.mean(draws == 0.0) - q) <= 4 * math.sqrt(q * (1 - q) / n)

    def test_never_simulates_positions(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("positions were simulated")

        for module, name in ((limits, "simulate"), (simulator, "simulate"),
                             (simulator, "_run_batch")):
            monkeypatch.setattr(module, name, refuse)
        draws = fast_limit_sampler(kernel_xx(), FAST, np.random.default_rng(139),
                                   size=20, t_approx=6.0)
        assert draws.shape == (20,) and np.all(draws >= 0.0)

    @pytest.mark.parametrize("caps, match", [
        (Caps(max_particles=50), "max_particles=50"),
        (Caps(max_generations=3), "generation budget"),
    ], ids=["particles", "generations"])
    def test_caps_raise(self, caps, match):
        f = Kernel.from_slot_funcs([FUNC_X], symmetric=True)
        with pytest.raises(ResourceCapError, match=match) as info:
            fast_limit_sampler(f, FAST, np.random.default_rng(149), size=50,
                               t_approx=30.0, caps=caps)
        assert 0.0 <= info.value.time_reached <= 30.0

    def test_default_horizon(self):
        t = default_fast_horizon(FAST, Caps(max_particles=10_000_000))
        assert 0 < t <= 14.0 / 0.3 + 1e-9
        with pytest.raises(RegimeError):
            default_fast_horizon(SLOW)

    def test_black_box_rejected(self):
        f = Kernel.black_box(lambda args: args[0][:, 0], arity=1, dim=1)
        with pytest.raises(NonPolynomialError):
            fast_limit_sampler(f, FAST, np.random.default_rng(1), t_approx=4.0)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            fast_limit_sampler(kernel_xx(), SLOW, np.random.default_rng(1),
                               t_approx=4.0)

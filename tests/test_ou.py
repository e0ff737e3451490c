import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import signal

from branching_ou.model import ModelParams
from branching_ou.ou import (
    Func1D,
    Factor,
    clock,
    default_rule,
    poly_times,
    stationary_std,
)

from helpers import FUNC_ONE, FUNC_X, normal_moment, ou_leg, phi_quad

PARAMS = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)


class TestQuadrature:
    def test_weights_sum_to_one(self):
        rule = default_rule(PARAMS)
        assert abs(rule.weights.sum() - 1.0) < 1e-12

    def test_polynomial_exactness(self):
        rule = default_rule(PARAMS, n_nodes=16)
        std = stationary_std(PARAMS)
        for k in range(0, 31):
            quad = float(np.dot(rule.weights, rule.nodes**k))
            # rounding floor scales with the summand magnitude
            floor = 1e-12 * float(np.dot(rule.weights, np.abs(rule.nodes) ** k))
            assert quad == pytest.approx(
                normal_moment(k, std), rel=1e-10, abs=max(1e-12, floor)
            )

    def test_base_rule_cached_and_read_only(self):
        # the rule is the scaled Hermite rule bit for bit, and a caller
        # writing into one rule changes no later rule
        x, w = np.polynomial.hermite.hermgauss(64)
        scale = math.sqrt(2.0) * stationary_std(PARAMS)
        first, second = default_rule(PARAMS), default_rule(PARAMS)
        for rule in (first, second):
            assert np.array_equal(rule.nodes, x * scale)
            assert np.array_equal(rule.weights, w / math.sqrt(math.pi))
        first.nodes[:] = 0.0
        first.weights[:] = 0.0
        assert np.array_equal(default_rule(PARAMS).nodes, second.nodes)
        assert np.array_equal(default_rule(PARAMS).weights, second.weights)

    def test_matches_scipy_for_nonpolynomial(self):
        rule = default_rule(PARAMS)
        got = float(np.dot(rule.weights, np.cos(rule.nodes)))
        assert got == pytest.approx(phi_quad(math.cos, PARAMS), abs=1e-10)


class TestClock:
    """``clock``, in which the farm runs the OU motion along its tree as a
    Brownian motion."""

    @pytest.mark.parametrize("mu, dt", [(1.0, 0.3), (0.1, 17.0), (120.0, 4.0),
                                        (1e-7, 2.0), (3.0, 1e-9)])
    def test_matches_the_ou_covariance(self, mu, dt):
        # lines parting at u into the step from one start have covariance
        # s^2 (exp(-2 mu (dt - u)) - exp(-2 mu dt)) at its end (Doob 1942),
        # here in 50-digit decimal arithmetic; one line alone has u = dt
        u = np.linspace(0.0, dt, 33)
        got = clock(u, dt, mu)
        with localcontext() as ctx:
            ctx.prec = 50
            two_mu, end = 2 * Decimal(mu), Decimal(dt)
            want = [float((-two_mu * (end - Decimal(v))).exp() - (-two_mu * end).exp())
                    for v in u]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-30)
        assert got[0] == 0.0
        assert got[-1] == -math.expm1(-2.0 * mu * dt)
        assert np.all(np.diff(got) >= 0.0)

    @pytest.mark.parametrize("mu", [0.1, 1.0, 40.0])
    def test_semigroup(self, mu):
        # a step of d1 + d2 is a step of d1 run on for d2:
        # exp(-2 mu d2) D(d1) + D(d2) = D(d1 + d2), D(d) = clock(d, d, mu)
        def full(d):
            return clock(d, d, mu)

        for d1, d2 in ((0.3, 0.9), (1.1, 2.3), (1e-6, 5.0), (7.0, 1e-3)):
            assert math.exp(-2.0 * mu * d2) * full(d1) + full(d2) == \
                pytest.approx(full(d1 + d2), rel=1e-14)

    def test_no_overflow_at_any_mu_dt(self):
        # both factors stay in [0, 1]: no overflow, no NaN, however large
        # mu dt, where a forward clock exp(2 mu dt) - 1 overflows
        with np.errstate(over="raise", invalid="raise"):
            for mu, dt in ((120.0, 4.0), (1e6, 1e3), (1e300, 1.0)):
                got = clock(np.linspace(0.0, dt, 9), dt, mu)
                assert np.all((got >= 0.0) & (got <= 1.0))
                assert got[-1] == 1.0


class TestTransitionSampler:
    """``helpers.ou_leg``, the exact OU step the reference farm
    ``full_tree_farm`` takes per lifetime."""

    @staticmethod
    def leg(x, dt, params, rng):
        return ou_leg(x, np.full(len(x), dt), params.mu, stationary_std(params), rng)

    def test_moments_match_closed_form(self):
        # dt = ln 2 from x = 4: mean 2, per-coordinate variance 0.375
        rng = np.random.default_rng(7)
        dt = math.log(2.0)
        x = np.full((100_000, 1), 4.0)
        draws = self.leg(x, dt, PARAMS, rng)[:, 0]
        mean_se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 2.0) <= 4 * mean_se
        var = draws.var(ddof=1)
        var_se = var * math.sqrt(2.0 / (len(draws) - 1))
        assert abs(var - 0.375) <= 4 * var_se

    def test_long_horizon_forgets_start(self):
        rng = np.random.default_rng(8)
        x = np.full((100_000, 1), 9.0)
        draws = self.leg(x, 1e6, PARAMS, rng)[:, 0]
        std = stationary_std(PARAMS)
        assert abs(draws.mean()) <= 4 * std / math.sqrt(len(draws))
        var = draws.var(ddof=1)
        assert abs(var - std**2) <= 4 * var * math.sqrt(2.0 / len(draws))

    def test_zero_start_symmetric(self):
        rng = np.random.default_rng(9)
        draws = self.leg(np.zeros((50_000, 2)), 0.3, PARAMS2, rng)
        se = draws.std(ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * se)


PARAMS2 = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, dim=2, x0=(0.0, 0.0))


class TestInvariantIntegral:
    def test_examples(self):
        assert FUNC_X.phi_mean(PARAMS) == 0.0
        x2 = Func1D.polynomial([0.0, 0.0, 1.0])
        assert x2.phi_mean(PARAMS) == pytest.approx(0.5, abs=1e-14)
        assert FUNC_ONE.phi_mean(PARAMS) == 1.0

    def test_tensorized(self):
        x2 = [0.0, 0.0, 1.0]
        got = Factor.from_polys([x2, x2]).phi_mean(PARAMS2)
        assert got == pytest.approx(0.25, abs=1e-14)

    def test_poly_phi_mean_vs_scipy(self):
        coeffs = np.array([0.3, 1.0, -2.0, 0.0, 1.5])
        numeric = phi_quad(lambda x: np.polynomial.polynomial.polyval(x, coeffs), PARAMS)
        assert Func1D.polynomial(coeffs).phi_mean(PARAMS) == pytest.approx(numeric,
                                                                          abs=1e-9)


class TestPolyTimes:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_matches_direct_convolution(self, ndim):
        # random coefficient arrays with zero entries and axes of length 1,
        # against scipy's direct convolution; rounding is bounded entry by
        # entry by the convolution of the absolute values
        rng = np.random.default_rng(ndim)
        for _ in range(20):
            a, b = (rng.normal(size=shape) * (rng.random(shape) > 0.3)
                    for shape in rng.integers(1, 5, size=(2, ndim)))
            want = signal.convolve(a, b, method="direct")
            bound = 1e-13 * signal.convolve(np.abs(a), np.abs(b), method="direct")
            got = poly_times(a, b)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= bound)


class TestDensityGradient:
    def test_integration_by_parts(self):
        # integral of x * dphi/dx over R is -1
        rule = default_rule(PARAMS)
        vals = rule.nodes * (-rule.nodes / stationary_std(PARAMS) ** 2)
        assert float(np.dot(rule.weights, vals)) == pytest.approx(-1.0, abs=1e-12)


from hypothesis import given, settings, strategies as st


# ---------------------------------------------------------------------------
# the one slot type, against numpy's polynomials and the Gauss-Hermite rule

from numpy.polynomial.polynomial import polyder, polyval, polyval2d, polyval3d

from branching_ou.limits import _pair_spectrum, gradient_phi_mean

SLOT_PARAMS = {
    1: ModelParams(lam=1.0, p=0.75, mu=0.7, sigma=1.3),
    2: ModelParams(lam=1.0, p=0.75, mu=0.7, sigma=1.3, dim=2, x0=(0.0, 0.0)),
}


@st.composite
def slots(draw, dim):
    shape = tuple(draw(st.lists(st.integers(1, 4 if dim == 1 else 3),
                                min_size=dim, max_size=dim)))
    size = math.prod(shape)
    values = draw(st.lists(st.floats(-2, 2), min_size=size, max_size=size))
    return Factor(np.reshape(values, shape))


def numpy_eval(coeffs, pts):
    """The polynomial at the rows of ``pts`` by numpy's own evaluators."""
    if coeffs.ndim == 1:
        return polyval(pts[:, 0], coeffs)
    return polyval2d(pts[:, 0], pts[:, 1], coeffs)


def stationary_grid(params, dim, n_nodes=8):
    """Tensor Gauss-Hermite nodes and weights of the stationary law on
    R^dim, exact to degree 15 per coordinate."""
    rule = default_rule(params, n_nodes)
    grids = np.meshgrid(*[rule.nodes] * dim, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.prod(np.meshgrid(*[rule.weights] * dim, indexing="ij"), axis=0).ravel()
    return pts, w


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 2]))
def test_slot_polynomial_property(data, dim):
    params = SLOT_PARAMS[dim]
    F, G = data.draw(slots(dim)), data.draw(slots(dim))
    pts, w = stationary_grid(params, dim)
    scale = 30.0 * (1.0 + np.abs(F.coeffs).sum()) * (1.0 + np.abs(G.coeffs).sum())

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)

    f_vals, g_vals = numpy_eval(F.coeffs, pts), numpy_eval(G.coeffs, pts)
    close(F(pts), f_vals)
    close(F.times(G)(pts), f_vals * g_vals)
    close(Factor.combine([(0.5, F), (-2.0, G)])(pts), 0.5 * f_vals - 2.0 * g_vals)
    mean = F.phi_mean(params)
    close(mean, w @ f_vals)
    centered = F.centered(params)
    close(centered(pts), f_vals - mean)
    close(centered.phi_mean(params), 0.0)
    for axis in range(dim):
        derivative = polyder(F.coeffs, axis=axis)
        close(gradient_phi_mean(F, params)[axis], w @ numpy_eval(derivative, pts))
    # <phi, (T_s F)(T_s G)> = phi(F) phi(G) + sum_n c_n exp(-2 mu n s), with
    # the semigroup applied by the rule: T_s F(x) = E F(a x + sqrt(1 - a^2) Y)
    # for Y stationary
    spectrum = _pair_spectrum(F, G, params)
    for s in (0.0, 0.6):
        a = math.exp(-params.mu * s)
        inner = (a * pts[:, None, :] + math.sqrt(1.0 - a * a) * pts[None, :, :])

        def evolved(coeffs):
            return numpy_eval(coeffs, inner.reshape(-1, dim)).reshape(len(w), -1) @ w

        n = np.arange(1, len(spectrum) + 1)
        got = mean * G.phi_mean(params) + spectrum @ np.exp(-2.0 * params.mu * n * s)
        close(got, w @ (evolved(F.coeffs) * evolved(G.coeffs)))


class TestFactorCall:
    def test_one_dim_is_polyval_bit_for_bit(self):
        # the statistics' digests rest on these bits
        rng = np.random.default_rng(38)
        x = np.concatenate([rng.normal(0.0, 3.0, 500), [0.0, -0.0, 1e-300, -7.5]])
        for degree in range(25):
            coeffs = rng.normal(size=degree + 1) * 10.0 ** rng.integers(-5, 6, degree + 1)
            assert np.array_equal(Factor(coeffs)(x[:, None]), polyval(x, coeffs))

    def test_three_dim_degree_12_holds_order_dim_rows(self):
        # nested Horner holds one row-length array per coordinate, where a
        # tensor ``polyval`` along the first would hold 13^2 of them
        rng = np.random.default_rng(12)
        F = Factor(rng.normal(size=(13, 13, 13)))
        m = 20_000
        x = rng.normal(size=(m, 3))
        want = polyval3d(x[:, 0], x[:, 1], x[:, 2], F.coeffs)
        tracemalloc.start()
        got = F(x)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 2 * 3 * m * 8
        np.testing.assert_allclose(got, want, rtol=1e-9,
                                   atol=1e-12 * np.abs(want).max())

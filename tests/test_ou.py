import math

import numpy as np
import pytest

from branching_ou.model import ModelParams
from branching_ou.ou import (
    Func1D,
    Factor,
    default_rule,
    gaussian_moment,
    ou_leg,
    stationary_std,
)

from helpers import FUNC_ONE, FUNC_X, phi_quad

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
                gaussian_moment(k, std), rel=1e-10, abs=max(1e-12, floor)
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


class TestTransitionSampler:
    """``ou_leg``, the exact OU step the simulator takes."""

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


class TestDensityGradient:
    def test_integration_by_parts(self):
        # integral of x * dphi/dx over R is -1
        rule = default_rule(PARAMS)
        vals = rule.nodes * (-rule.nodes / stationary_std(PARAMS) ** 2)
        assert float(np.dot(rule.weights, vals)) == pytest.approx(-1.0, abs=1e-12)


from hypothesis import given, settings, strategies as st


# ---------------------------------------------------------------------------
# the one slot type, against numpy's polynomials and the Gauss-Hermite rule

from numpy.polynomial.polynomial import polyder, polyval, polyval2d

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
        close(F.derivative(axis).coeffs, derivative)
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

import math

import numpy as np
import pytest

from branching_ou.model import ModelParams, derive
from branching_ou.ou import (
    FUNC_ONE,
    FUNC_X,
    Func1D,
    QuadratureRule,
    evolve_poly,
    gaussian_moment,
    invariant_integral,
    ou_transition_sample,
    poly_eval,
    poly_phi_mean,
    stationary_std,
)

from helpers import phi_quad

PARAMS = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)


class TestQuadrature:
    def test_weights_sum_to_one(self):
        rule = QuadratureRule.for_invariant(PARAMS)
        assert abs(rule.weights.sum() - 1.0) < 1e-12

    def test_polynomial_exactness(self):
        rule = QuadratureRule.for_invariant(PARAMS, n_nodes=16)
        std = stationary_std(PARAMS)
        for k in range(0, 31):
            quad = float(np.dot(rule.weights, rule.nodes**k))
            # rounding floor scales with the summand magnitude
            floor = 1e-12 * float(np.dot(rule.weights, np.abs(rule.nodes) ** k))
            assert quad == pytest.approx(
                gaussian_moment(k, std), rel=1e-10, abs=max(1e-12, floor)
            )

    def test_matches_scipy_for_nonpolynomial(self):
        rule = QuadratureRule.for_invariant(PARAMS)
        got = float(np.dot(rule.weights, np.cos(rule.nodes)))
        assert got == pytest.approx(phi_quad(math.cos, PARAMS), abs=1e-10)


class TestTransitionSampler:
    def test_moments_match_closed_form(self):
        # dt = ln 2 from x = 4: mean 2, per-coordinate variance 0.375
        rng = np.random.default_rng(7)
        dt = math.log(2.0)
        draws = np.array([
            ou_transition_sample(np.array([4.0]), dt, PARAMS, rng)[0]
            for _ in range(0)
        ])
        x = np.full((100_000, 1), 4.0)
        draws = ou_transition_sample(x, dt, PARAMS, rng)[:, 0]
        mean_se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 2.0) <= 4 * mean_se
        var = draws.var(ddof=1)
        var_se = var * math.sqrt(2.0 / (len(draws) - 1))
        assert abs(var - 0.375) <= 4 * var_se

    def test_long_horizon_forgets_start(self):
        rng = np.random.default_rng(8)
        x = np.full((100_000, 1), 9.0)
        draws = ou_transition_sample(x, 1e6, PARAMS, rng)[:, 0]
        std = stationary_std(PARAMS)
        assert abs(draws.mean()) <= 4 * std / math.sqrt(len(draws))
        var = draws.var(ddof=1)
        assert abs(var - std**2) <= 4 * var * math.sqrt(2.0 / len(draws))

    def test_zero_start_symmetric(self):
        rng = np.random.default_rng(9)
        draws = ou_transition_sample(np.zeros((50_000, 2)), 0.3, PARAMS2, rng)
        se = draws.std(ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * se)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            ou_transition_sample(np.zeros(1), 0.0, PARAMS, np.random.default_rng(0))


PARAMS2 = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0, dim=2, x0=(0.0, 0.0))


def semigroup(f: Func1D, t: float, x):
    """(T_t f)(x) through the closed-form evolved polynomial."""
    return poly_eval(evolve_poly(f.coeffs, t, PARAMS), x)


class TestSemigroup:
    def test_identity_on_linear(self):
        for t in (0.1, 1.0, 3.0):
            for x in (-2.0, 0.0, 1.5):
                got = semigroup(FUNC_X, t, x)
                assert got == pytest.approx(x * math.exp(-t), abs=1e-12)

    def test_second_moment_closed_form(self):
        f = Func1D.polynomial([0.0, 0.0, 1.0])
        for t in (0.2, 1.0):
            for x in (-1.0, 2.0):
                want = x**2 * math.exp(-2 * t) + 0.5 * (1 - math.exp(-2 * t))
                assert semigroup(f, t, x) == pytest.approx(want, abs=1e-12)

    def test_time_zero_is_identity(self):
        f = Func1D.polynomial([1.0, -2.0, 0.5, 3.0])
        for x in (-1.0, 0.3):
            assert semigroup(f, 0.0, x) == pytest.approx(f(x), abs=1e-12)

    def test_chapman_kolmogorov_polynomial(self):
        coeffs = np.array([0.5, -1.0, 2.0, 0.25, -0.5])
        s, t = 0.7, 1.3
        once = evolve_poly(coeffs, s + t, PARAMS)
        twice = evolve_poly(evolve_poly(coeffs, s, PARAMS), t, PARAMS)
        assert np.allclose(once, twice, atol=1e-10)
        xs = np.linspace(-3, 3, 11)
        f = Func1D.polynomial(coeffs)
        inner = Func1D.polynomial(evolve_poly(coeffs, s, PARAMS))
        for x in xs:
            assert semigroup(inner, t, x) == pytest.approx(
                semigroup(f, s + t, x), abs=1e-10
            )

    def test_invariance_of_stationary_integral(self):
        f = Func1D.polynomial([1.0, 2.0, -1.0, 0.0, 0.7])
        base = invariant_integral(f, PARAMS)
        for t in (0.4, 2.0):
            evolved = Func1D.polynomial(evolve_poly(f.coeffs, t, PARAMS))
            assert invariant_integral(evolved, PARAMS) == pytest.approx(base, abs=1e-10)


class TestInvariantIntegral:
    def test_examples(self):
        assert invariant_integral(FUNC_X, PARAMS) == 0.0
        x2 = Func1D.polynomial([0.0, 0.0, 1.0])
        assert invariant_integral(x2, PARAMS) == pytest.approx(0.5, abs=1e-14)
        assert invariant_integral(FUNC_ONE, PARAMS) == 1.0

    def test_tensorized(self):
        x2 = Func1D.polynomial([0.0, 0.0, 1.0])
        got = invariant_integral([x2, x2], PARAMS2)
        assert got == pytest.approx(0.25, abs=1e-14)

    def test_poly_phi_mean_vs_scipy(self):
        coeffs = np.array([0.3, 1.0, -2.0, 0.0, 1.5])
        numeric = phi_quad(lambda x: np.polynomial.polynomial.polyval(x, coeffs), PARAMS)
        assert poly_phi_mean(coeffs, PARAMS) == pytest.approx(numeric, abs=1e-9)


class TestDensityGradient:
    def test_integration_by_parts(self):
        # integral of x * dphi/dx over R is -1
        rule = QuadratureRule.for_invariant(PARAMS)
        vals = rule.nodes * (-rule.nodes / derive(PARAMS).stationary_var)
        assert float(np.dot(rule.weights, vals)) == pytest.approx(-1.0, abs=1e-12)


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    s=st.floats(0.05, 3.0),
    t=st.floats(0.05, 3.0),
)
def test_evolution_semigroup_property(coeffs, s, t):
    coeffs = np.asarray(coeffs)
    once = evolve_poly(coeffs, s + t, PARAMS)
    twice = evolve_poly(evolve_poly(coeffs, s, PARAMS), t, PARAMS)
    scale = np.max(np.abs(once)) + 1.0
    assert np.allclose(once, twice, atol=1e-10 * scale)

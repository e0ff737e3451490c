import math

import pytest
from hypothesis import given, strategies as st

from branching_ou.model import (
    InvalidParameterError,
    ModelParams,
    RegimeTag,
    classify,
    count_step,
    derive,
    expected_births,
    extinction_by,
    fluctuation_variance,
    head_splits,
    w_survival_mean,
)
from branching_ou.ou import stationary_std

from helpers import extinction_ode, phi_quad


def test_derive_growth_rate():
    c = derive(ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0))
    assert c.growth_rate == pytest.approx(0.5, abs=1e-15)


def test_derive_extinction_prob():
    c = derive(ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0))
    assert c.extinction_prob == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_stationary_std_matches_numerical_integration():
    params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)
    numeric = phi_quad(lambda x: x * x, params)
    assert stationary_std(params) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert stationary_std(params) ** 2 == pytest.approx(numeric, abs=1e-9)


@pytest.mark.parametrize(
    "mu, tag",
    [(1.0, RegimeTag.SLOW), (0.25, RegimeTag.CRITICAL), (0.1, RegimeTag.FAST)],
)
def test_classify_examples(mu, tag):
    params = ModelParams(lam=1.0, p=0.75, mu=mu, sigma=1.0)
    regime = classify(params)
    assert regime.tag is tag
    assert regime.growth_rate == pytest.approx(0.5)
    assert regime.twice_mu == pytest.approx(2 * mu)


def test_classify_tolerance_band():
    params = ModelParams(lam=1.0, p=0.75, mu=0.25 * (1 + 1e-14), sigma=1.0)
    assert classify(params).is_critical
    params = ModelParams(lam=1.0, p=0.75, mu=0.25 * (1 + 1e-10), sigma=1.0)
    assert classify(params).is_slow


def test_pure_birth_admitted():
    c = derive(ModelParams(lam=2.0, p=1.0, mu=1.0, sigma=1.0))
    assert c.extinction_prob == 0.0
    assert c.growth_rate == pytest.approx(2.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lam=1.0, p=0.5, mu=1.0, sigma=1.0),
        dict(lam=1.0, p=0.2, mu=1.0, sigma=1.0),
        dict(lam=-1.0, p=0.75, mu=1.0, sigma=1.0),
        dict(lam=1.0, p=0.75, mu=0.0, sigma=1.0),
        dict(lam=1.0, p=0.75, mu=1.0, sigma=-2.0),
        dict(lam=1.0, p=0.75, mu=1.0, sigma=1.0, dim=0, x0=()),
        dict(lam=1.0, p=0.75, mu=1.0, sigma=1.0, dim=2, x0=(0.0,)),
        dict(lam=math.inf, p=0.75, mu=1.0, sigma=1.0),
        dict(lam=1.0, p=0.75, mu=math.inf, sigma=1.0),
        dict(lam=1.0, p=0.75, mu=1.0, sigma=math.nan),
        dict(lam=1.0, p=0.75, mu=1.0, sigma=1.0, x0=(math.nan,)),
        dict(lam=1.0, p=0.75, mu=1.0, sigma=1.0, dim=2, x0=(0.0, -math.inf)),
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(InvalidParameterError):
        ModelParams(**kwargs)


@given(
    lam=st.floats(0.01, 50.0),
    p=st.floats(0.5001, 1.0),
    mu=st.floats(0.01, 50.0),
)
def test_derived_invariants(lam, p, mu):
    params = ModelParams(lam=lam, p=p, mu=mu, sigma=1.0)
    c = derive(params)
    assert c.growth_rate > 0
    assert 0.0 <= c.extinction_prob < 1.0
    assert math.isclose(c.growth_rate, (2 * p - 1) * lam, rel_tol=1e-12)
    regime = classify(params)
    if regime.is_slow:
        assert c.growth_rate < 2 * mu
    elif regime.is_fast:
        assert c.growth_rate > 2 * mu
    # extinction mass and survival mass are complementary
    assert c.extinction_prob + (1.0 - c.extinction_prob) == pytest.approx(1.0)


def test_extinction_by_matches_ode_flow():
    params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)
    for t in (0.5, 2.0, 8.0):
        assert extinction_by(t, params) == pytest.approx(
            extinction_ode(t, params.lam, params.p), abs=1e-8
        )
    assert extinction_by(0.0, params) == 0.0
    assert extinction_by(200.0, params) == pytest.approx(1.0 / 3.0, abs=1e-12)



@pytest.mark.parametrize("t", [1500.0, math.inf])
def test_extinction_by_saturates_at_long_horizons(t):
    # exp(growth t) overflows a float at t = 1500, and the limit at inf is
    # the eventual extinction probability
    params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)
    assert extinction_by(t, params) == derive(params).extinction_prob
    assert extinction_by(t, ModelParams(lam=1.0, p=1.0, mu=1.0, sigma=1.0)) == 0.0


@pytest.mark.parametrize("t", [math.nan, -1.0, -math.inf])
def test_extinction_by_refuses_bad_horizon(t):
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        extinction_by(t, ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0))

def test_head_splits_order():
    # the block holding the first label grows by size, then in combination
    # order; the last split leaves nothing over
    assert list(head_splits((1, 2, 3))) == [
        ((1,), (2, 3)), ((1, 2), (3,)), ((1, 3), (2,)), ((1, 2, 3), ())]
    assert list(head_splits((4,))) == [((4,), ())]


@pytest.mark.parametrize("p", [0.55, 0.75, 0.9, 1.0])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_population_law_forms_agree(lam, p):
    # the closed forms are written independently; each identity below ties
    # two of them together (Kendall's law of the linear birth-death chain)
    params = ModelParams(lam=lam, p=p, mu=1.0, sigma=1.0)
    c = derive(params)
    assert (c.birth_rate, c.death_rate) == (lam * p, lam * (1.0 - p))
    assert c.birth_rate - c.death_rate == pytest.approx(c.growth_rate, rel=1e-13)
    assert w_survival_mean(params) == pytest.approx(1.0 / (1.0 - c.extinction_prob),
                                                    rel=1e-13)
    for dt in (0.01, 0.4, 1.0, 3.0, 7.5):
        survival, success = count_step(dt, params)
        # P(N_dt = 0)
        assert 1.0 - survival == pytest.approx(extinction_by(dt, params),
                                               rel=1e-13, abs=1e-13)
        # E N_dt = survival / success
        assert survival / success == pytest.approx(math.exp(c.growth_rate * dt),
                                                   rel=1e-13)
        # Var N_dt / (E N_dt)^2, from the zero-modified geometric law
        assert fluctuation_variance(dt, params) == pytest.approx(
            (1.0 - success + (1.0 - survival)) / survival, rel=1e-13, abs=1e-13)


def test_expected_births_overflows_to_inf():
    params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)
    assert expected_births(params, 0.0) == 2.0 * 0.75 / 0.5
    assert expected_births(params, 1e4) == math.inf

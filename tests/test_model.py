import math

import pytest
from hypothesis import given, strategies as st

from branching_ou.model import (
    InvalidParameterError,
    ModelParams,
    RegimeTag,
    classify,
    derive,
    extinction_by,
    head_splits,
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


def test_head_splits_order():
    # the block holding the first label grows by size, then in combination
    # order; the last split leaves nothing over
    assert list(head_splits((1, 2, 3))) == [
        ((1,), (2, 3)), ((1, 2), (3,)), ((1, 3), (2,)), ((1, 2, 3), ())]
    assert list(head_splits((4,))) == [((4,), ())]

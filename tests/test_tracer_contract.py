"""The benchmark tracer patches package names and reads call keywords by
name (``benchmarks/tracer.py``); renaming or deleting one of them must fail
here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from branching_ou import kernels, limits, simulator, tree_oracle, ustats
from branching_ou.kernels import Kernel
from branching_ou.model import ModelParams, classify, derive
from branching_ou.ou import FUNC_X, default_rule

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

SLOW = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_traces_each_layer_and_uninstall_restores():
    tracer = load_tracer().Tracer()
    tracer.install()
    patched = list(tracer._patches)
    patched_items = list(tracer._dict_patches)
    try:
        assert patched and patched_items
        assert all(getattr(mod, attr) is not orig for mod, attr, orig in patched)
        moment = tree_oracle.exact_mixed_moment(2, 1.0, SLOW, [FUNC_X, FUNC_X])
        snap = limits.simulate(SLOW, 2.0, 3)  # 8 particles
        stat = ustats.normalized_u_statistic(
            snap, Kernel.from_slot_funcs([FUNC_X, FUNC_X], symmetric=True), 2,
            classify(SLOW), derive(SLOW))
    finally:
        tracer.uninstall()
    assert np.isfinite(moment) and np.isfinite(stat)
    assert tracer.counts["tree_oracle.n2.moments"] == 1
    assert tracer.counts["simulator.particles"] == snap.count
    assert tracer.counts["ustats.a2.calls"] == 1
    for mod, attr, orig in patched:
        assert getattr(mod, attr) is orig
    for mapping, key, orig in patched_items:
        assert mapping[key] is orig


def test_calls_of_the_workloads_keep_their_signatures():
    """The calls ``benchmarks/workloads.py`` makes on snapshots and kernels,
    by its argument names and under the tracer; each statistic is a
    float."""
    rng = np.random.default_rng(5)
    snap = simulator.ParticleSnapshot(t=1.0, positions=rng.normal(size=(6, 1)))
    twin = Kernel.from_slot_funcs([FUNC_X, FUNC_X], symmetric=True)
    bb = Kernel.black_box(lambda args: args[0][:, 0] * args[1][:, 0], arity=2,
                          dim=1, symmetric=True)
    rule = default_rule(SLOW, 8)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        farm = simulator.simulate_farm(SLOW, (3.0,), 20, 11)
        alive = [s for s in farm[-1] if s.count >= 4]
        values = [ustats.u_statistic(snap, bb, strategy="naive"),
                  ustats.u_statistic(snap, twin), ustats.v_statistic(snap, twin)]
        values += [ustats.normalized_u_statistic(s, twin, 2, classify(SLOW),
                                                 derive(SLOW)) for s in alive]
        canonical = kernels.is_canonical(twin, SLOW, rule)
        order, _ = kernels.degeneracy_order(twin, SLOW, rule)
    finally:
        tracer.uninstall()
    assert alive and all(type(v) is float for v in values)
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert tracer.counts["ustats.a2.calls"] == 2 + len(alive)
    assert tracer.counts["simulator.particles"] == farm[-1].count
    assert canonical and order == 1

"""Tests of the benchmark itself (not part of the package's test suite):

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run as bench_run  # noqa: E402
import worker  # noqa: E402

worker.import_package()

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(main: dict, trace: int) -> dict:
    record = {"trace": trace, "correct": main["failed"] == 0,
              "attempted": main["attempted"], "failed": main["failed"],
              "metrics": bench_run.compose([1.0, 1.1, 1.2], main)}
    return bench_run.report_line(record, SPEC)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    main = worker.run(workload, seed=5, seconds=0.2, trace=bool(trace), tiny=True)
    assert main["failed"] == 0, main["failures"]
    assert main["warmup_failures"] == []
    line = _report(main, trace)
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in group]
    for m in group:
        entry = line["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
    if trace:
        layers = main["layers"]
        self_sum = sum(layers[f"{layer}.self_s"] for layer in LAYERS + ("bench",))
        assert self_sum == pytest.approx(layers["trace.op_s"], rel=1e-9)
    else:
        assert all(line["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])


def test_perturbed_result_counts_as_failed_op(monkeypatch):
    from branching_ou import tree_oracle

    exact = tree_oracle.exact_mixed_moment
    monkeypatch.setattr(tree_oracle, "exact_mixed_moment",
                        lambda *a, **k: exact(*a, **k) * 1.05)
    main = worker.run("oracle_moments", seed=5, seconds=0.1, tiny=True)
    assert main["attempted"] > 0
    assert main["failed"] == main["attempted"]
    assert main["warmup_failures"]
    line = _report(main, 0)
    assert line["failed"] == main["attempted"] and not line["correct"]


def test_many_to_few_reference_matches_population_moments():
    for t in (0.5, 3.0):
        want = workloads.population_moments(t)
        for n in (1, 2, 3):
            got = workloads.mixed_moment([[1.0]] * n, t, workloads.MU_SLOW, 0.3)
            assert got == pytest.approx(want[n - 1], rel=1e-12)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert worker.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    # the 11th largest of 21 or fewer values is not above the median, so the
    # upper quartile stands in
    assert worker.tail([float(i) for i in range(20)]) == (14.0, 75.0, 5)
    assert worker.tail([float(i) for i in range(21)]) == (15.0, 100 * 16 / 21, 5)
    assert worker.tail([float(i) for i in range(5)]) == (3.0, 80.0, 1)
    for n in (2, 5, 14, 20, 21, 22, 40):
        values = [float(i) for i in range(n)]
        assert worker.tail(values)[0] > statistics.median(values)
    assert worker.tail([float(i) for i in range(22)]) == (11.0, 100 * 12 / 22, 10)


def test_warmup_inputs_do_not_depend_on_the_seed(tmp_path):
    def op_seed(seed, stream):
        workload = workloads.SlowCliSession(seed, tmp_path, tiny=True)
        workload.stream = stream
        return workload.kinds["lln_a2"].prepare(0)["seed"]

    fixed = workloads.FIXED_STREAM
    assert op_seed(1, fixed) == op_seed(2, fixed)
    assert op_seed(1, 1) != op_seed(2, 2)


def test_fast_large_pop_ops_do_the_same_work(tmp_path):
    from branching_ou import simulator

    fast = workloads.FastLargePop(1, tmp_path, tiny=True)
    configs = [fast.kinds["run_clt"].prepare(i) for i in (1, 2)]
    assert configs[0].params.x0 != configs[1].params.x0
    farms = [simulator.simulate_farm(c.params, c.t_grid, c.replicas, c.seed)
             for c in configs]
    assert [s.count for s in farms[0][-1]] == [s.count for s in farms[1][-1]]
    positions = [[s.positions.tolist() for s in farm[-1]] for farm in farms]
    assert positions[0] != positions[1]


def test_run_prints_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "slow_cli_session", "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    result = next(line.split("result: ")[1] for line in proc.stdout.splitlines()
                  if "result: " in line)
    (ROOT / result).unlink()


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "oracle_moments",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _record(workload, started, seed, failed=0, **metrics):
    return {"workload": workload, "trace": 0, "started_at": started,
            "provenance": {"seed": seed}, "failed": failed, "metrics": metrics,
            "raw_metrics": {name: 1.5 * v for name, v in metrics.items()}}


def _pairs(parent, change, alternate=True):
    """Parent and change runs, one pair every 20 s; the parent runs first in
    every pair, or in every other pair when ``alternate``."""
    def runs(values, first):
        return {"w": [_record("w", 20.0 * i + (0.0 if first(i) else 10.0), i,
                              wall_s=v) for i, v in enumerate(values)]}
    parent_first = (lambda i: i % 2 == 0) if alternate else (lambda i: True)
    return (runs(parent, parent_first),
            runs(change, lambda i: not parent_first(i)))


def test_compare_verdicts():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.1}]}
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [1.0, 1.5, 0.7, 1.4, 0.8, 1.3, 0.6, 1.2, 1.0, 0.9]

    def row(change, **kw):
        return compare.compare(*_pairs(parent[:len(change)], change, **kw), spec)[0]

    assert "wall_s gain" in row(faster) and "raw gain" in row(faster)
    assert "10 pairs" in row(faster)
    assert "wall_s regressed" in row(slower)
    assert "wall_s unresolved" in row(noisy)
    assert "wall_s within bound" in row(parent[::-1])
    assert "too few pairs" in row(parent[:5])
    assert "no verdict, pairs did not alternate" in row(faster, alternate=False)
    base, change = _pairs(parent, faster)
    change["w"][3]["provenance"] = {"seed": 100}
    assert "no verdict, paired runs used different seeds" in compare.compare(
        base, change, spec)[0]


def test_compare_skips_tiny_runs(tmp_path):
    for i, tiny in enumerate((False, True)):
        record = {**_record("w", float(i), i, wall_s=1.0), "tiny": tiny}
        (tmp_path / f"run{i}.json").write_text(json.dumps(record))
    assert [r["provenance"]["seed"] for r in compare.load_runs(tmp_path)["w"]] == [0]

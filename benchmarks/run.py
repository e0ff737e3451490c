"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up runs in three fresh single-threaded worker processes; the last one
goes on to the timed rounds.  ``setup_s`` is the median of the three
set-up times, each from process launch to the end of the warm-up.  Times
are normalized to the machine's speed by a reference kernel (see
``worker.py``); the raw times are kept in the result file.  The
run prints a summary, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json when ``--trace 0``, the per-layer ones when
``--trace 1``.  The full result, with provenance, goes to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
RESULTS = BENCH_DIR / "results"
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    launched = time.time()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args],
                              stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed("worker timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launched


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
        "source_sha256": source.hexdigest(), "seed": seed,
    }


def compose(setups: list[float], main: dict) -> dict[str, float]:
    """Every metric the run measured, by name."""
    metrics = {
        "setup_s": statistics.median(setups),
        "fail_ratio": main["failed"] / main["attempted"],
        "checks_failed": sum(t["fail"] for t in main["checks"].values()),
    }
    for name in ("wall_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb"):
        metrics[name] = main[name]
    metrics.update(main.get("layers", {}))
    return metrics


def execute(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run the set-up processes and the measuring process; return the full
    result record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed)]
    if tiny:
        common.append("--tiny")
    raw_setups, setups, digests, warmup_failures = [], [], [], []
    for index in range(SETUP_SAMPLES):
        args = common + (["--setup-only"] if index < SETUP_SAMPLES - 1 else
                         ["--seconds", str(seconds), "--trace", str(int(trace))])
        res, launched = _spawn(args, deadline)
        raw_setups.append(res["setup_end"] - launched)
        setups.append(raw_setups[-1] * res["setup_scale"])
        digests.append(res["warmup_digest"])
        warmup_failures += res["warmup_failures"]
    main = res

    consistent = len(set(digests)) == 1
    correct = main["failed"] == 0 and not warmup_failures and consistent
    failing = {name: t["fail"] for name, t in main["checks"].items() if t["fail"]}
    return {
        "workload": workload, "trace": int(trace), "seconds": seconds,
        "tiny": tiny, "started_at": launched, "provenance": provenance(seed),
        "correct": correct, "attempted": main["attempted"],
        "failed": main["failed"], "failures": main["failures"],
        "warmup_failures": warmup_failures, "digest": main["digest"],
        "digests_consistent": consistent, "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "op_mix": main["op_mix"], "rounds": main["rounds"],
        "traced_rounds": main["traced_rounds"],
        "op_samples": main["op_samples"],
        "op_tail_percentile": main["op_tail_percentile"],
        "op_tail_beyond": main["op_tail_beyond"],
        "checks": main["checks"], "checks_failed_by_name": failing,
        "metrics": compose(setups, main),
        "raw_metrics": {"setup_s": statistics.median(raw_setups), **main["raw"]},
        "speed_scale": main["scale"], "spans": main.get("spans", {}),
        "latencies": main["latencies"],
    }


def report_line(record: dict, spec: dict) -> dict:
    """The JSON object printed last: the metrics BENCHMARK.json lists for
    this mode, each with its unit."""
    group = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in group}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def summary(record: dict) -> list[str]:
    m = record["metrics"]
    rounds = record["rounds"]
    lines = [
        f"{record['workload']} seed={record['provenance']['seed']} "
        f"trace={record['trace']}: {record['attempted']} ops attempted, "
        f"{record['failed']} failed (fail_ratio {m['fail_ratio']:.4g})",
        f"  op mix per round: {', '.join(record['op_mix'])}; "
        f"{rounds} untraced rounds, {record['traced_rounds']} traced",
        f"  setup_s {m['setup_s']:.4g} s (median of "
        f"{', '.join(f'{s:.3f}' for s in record['setup_samples_s'])})",
        f"  op_p50_s {m['op_p50_s']:.4g} s over {record['op_samples']} ops; "
        f"op_tail_s {m['op_tail_s']:.4g} s at p{record['op_tail_percentile']:.1f} "
        f"with {record['op_tail_beyond']} ops beyond",
        f"  wall_s {m['wall_s']:.4g} s per round; ops_per_s {m['ops_per_s']:.4g}; "
        f"peak_rss_mb {m['peak_rss_mb']:.4g}",
        f"  checks_failed {m['checks_failed']:g} "
        f"{json.dumps(record['checks_failed_by_name'], sort_keys=True)}",
        f"  digest {record['digest'][:16]} (warm-up outputs "
        f"{'consistent' if record['digests_consistent'] else 'INCONSISTENT'} "
        f"across set-up processes)",
    ]
    lines += [f"  failure: {why}" for why in record["failures"][:5]]
    lines += [f"  warm-up failure: {why}" for why in record["warmup_failures"][:5]]
    return lines


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(record["started_at"]))
    path = RESULTS / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    for line in summary(record):
        print(line)
    print(f"  result: {path.relative_to(ROOT)}")
    print(json.dumps(report_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set-up, then timed rounds until the run
time is spent.

Set-up is import, input generation and one warm-up op of each kind.  The
warm-up ops take their inputs from a stream that is the same for every
seed, so set-up time does not follow the seed's random population sizes.
A round runs one op of each kind; its time is the sum of its op latencies,
and its outputs are checked after its last op.  The digest covers the
outputs of the warm-up ops and of the first timed round.  In a traced run,
rounds alternate between untraced and traced,
so the difference of their mean round times is the tracing overhead; one
last round runs under tracemalloc for the simulator's allocation peak.

Times are normalized to the machine's speed: ``reference_kernel`` runs
after set-up and after every timed op, and an op's latency in normalized
seconds is its raw latency times (``REFERENCE_S`` over the mean reference
time measured around it) to the power of the workload's
``speed_elasticity``.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S
                                 [--trace 0|1] [--setup-only] [--tiny]

prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / ".work"

# Time of one reference_kernel call that defines a normalized second.
REFERENCE_S = 0.002
_REFERENCE_DATA = np.linspace(-1.0, 1.0, 64)


def reference_kernel() -> float:
    """Fixed interpreter work mixed with small-array numpy calls, like the
    package's per-replica loops.  It never changes, so its speed stands for
    the machine's speed at the time."""
    total = 0.0
    memo = {}
    for i in range(400):
        x = _REFERENCE_DATA * (i % 7 + 1)
        total += float(np.dot(x, x)) + float(x.sum())
        key = (i % 13, i % 11)
        memo[key] = memo.get(key, 0.0) + total % 3.0
    return total + sum(memo.values())


def reference_times(calls: int) -> list[float]:
    out = []
    for _ in range(calls):
        start = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - start)
    return out


def import_package():
    """Import the package from this checkout's source tree, never from an
    installed copy."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import branching_ou

    if Path(branching_ou.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"branching_ou imported from {branching_ou.__file__}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with ten samples beyond it, as (value, percentile,
    samples beyond).  Below 22 samples that percentile, the 11th largest
    value, would not lie above the median, so the upper quartile (nearest
    rank) stands in, with fewer samples beyond it.  The maximum would rest
    on the single worst op."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 22:
        rank = math.ceil(0.75 * n)
        return ordered[rank - 1], 100.0 * rank / n, n - rank
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _run_op(workload, kind, inp, tracer):
    """Run one op; return its output, error and latency."""
    start = time.perf_counter()
    try:
        op = workload.kinds[kind]
        out = tracer.op(op.execute, inp) if tracer else op.execute(inp)
        error = None
    except Exception as exc:  # a failed op is counted, the run goes on
        out, error = None, f"{kind}: raised {exc!r}"
    return out, error, time.perf_counter() - start


def _verify(workload, kind, inp, out, error):
    from workloads import Outcome

    if error is not None:
        return Outcome(False, error)
    try:
        outcome = workload.kinds[kind].verify(inp, out)
    except Exception as exc:  # a check that cannot run is a missed check
        return Outcome(False, f"{kind}: check raised {exc!r}")
    if not outcome.ok:
        outcome.why = f"{kind}: {outcome.why}"
    return outcome


def run(workload_name: str, seed: int, seconds: float, trace: bool = False,
        setup_only: bool = False, tiny: bool = False) -> dict:
    import_package()
    from tracer import Tracer, layer_metrics
    from workloads import FIXED_STREAM, WORKLOADS

    # The speed scale of set-up uses reference times from before and after
    # it; the time of the first batch is taken out of set-up time.
    start = time.perf_counter()
    before = reference_times(26)[1:]
    reference_s = time.perf_counter() - start
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK_DIR))
    try:
        workload = WORKLOADS[workload_name](seed, workdir, tiny)
        digest = hashlib.sha256()
        warmup_failures = []
        kinds = list(dict.fromkeys(workload.round))
        warmup = []
        workload.stream = FIXED_STREAM
        for index, kind in enumerate(kinds):
            inp = workload.kinds[kind].prepare(index)
            warmup.append((kind, inp, *_run_op(workload, kind, inp, None)[:2]))
        workload.stream = seed
        setup_end = time.time() - reference_s
        after = reference_times(25)
        last_reference = statistics.fmean(after)
        elasticity = workload.speed_elasticity
        setup_scale = (REFERENCE_S / statistics.fmean(before + after)) ** elasticity
        for kind, inp, out, error in warmup:
            outcome = _verify(workload, kind, inp, out, error)
            digest.update(repr((kind, outcome.numbers)).encode())
            if not outcome.ok:
                warmup_failures.append(outcome.why)
        result = {"workload": workload_name, "seed": seed,
                  "setup_end": setup_end, "setup_scale": setup_scale,
                  "warmup_digest": digest.hexdigest(),
                  "warmup_failures": warmup_failures}
        if setup_only:
            return result

        tracer = Tracer() if trace else None
        # per round, the (latency, speed scale) of each op
        latencies, timed_rounds, traced_rounds = [], [], []
        failures, checks = [], {}
        next_index = len(kinds)

        def play_round(active):
            """One op of each kind under the ``active`` tracer.  After each op,
            untimed, the reference kernel runs for about a tenth of the op's
            time; the op's speed scale uses the reference times measured just
            before and just after it."""
            nonlocal next_index, last_reference
            if active:
                active.install()
                workload.wrap_bb = active.wrap_blackbox
            try:
                inputs = []
                for kind in workload.round:
                    inputs.append((kind, workload.kinds[kind].prepare(next_index)))
                    next_index += 1
                outs = []
                for kind, inp in inputs:
                    out, error, latency = _run_op(workload, kind, inp, active)
                    reference = statistics.fmean(reference_times(
                        max(3, round(0.1 * latency / REFERENCE_S))))
                    scale = (2.0 * REFERENCE_S
                             / (last_reference + reference)) ** elasticity
                    last_reference = reference
                    outs.append((kind, inp, out, error, latency, scale))
                return outs
            finally:
                if active:
                    active.uninstall()
                    workload.wrap_bb = None

        def record(outs, timed, first=False):
            for kind, inp, out, error, latency, scale in outs:
                if timed:
                    latencies.append((kind, latency, scale))
                outcome = _verify(workload, kind, inp, out, error)
                if first:
                    digest.update(repr((kind, outcome.numbers)).encode())
                if not outcome.ok:
                    failures.append(outcome.why)
                for name, passed in outcome.verdicts.items():
                    tally = checks.setdefault(name, {"pass": 0, "fail": 0})
                    tally["pass" if passed else "fail"] += 1

        attempted = 0
        deadline = time.perf_counter() + seconds
        for round_no in range(1, 1_000_000):
            traced = trace and round_no % 2 == 0
            outs = play_round(tracer if traced else None)
            (traced_rounds if traced else timed_rounds).append(
                [(latency, scale) for *_, latency, scale in outs])
            record(outs, timed=not traced, first=round_no == 1)
            attempted += len(outs)
            if time.perf_counter() >= deadline and (traced_rounds or not trace):
                break
        if trace:
            # One more round under tracemalloc, apart from the timed rounds,
            # whose spans tracemalloc would slow down.
            memory = Tracer(track_memory=True)
            outs = play_round(memory)
            record(outs, timed=False)
            attempted += len(outs)

        values = [latency * scale for _, latency, scale in latencies]
        raw_values = [latency for _, latency, _ in latencies]
        round_s = [sum(lat * sc for lat, sc in r) for r in timed_rounds]
        raw_round_s = [sum(lat for lat, _ in r) for r in timed_rounds]
        tail_value, tail_pct, beyond = tail(values)
        raw = {"wall_s": statistics.fmean(raw_round_s),
               "op_p50_s": statistics.median(raw_values),
               "op_tail_s": tail(raw_values)[0],
               "ops_per_s": len(raw_values) / sum(raw_round_s)}
        result.update({
            "rounds": len(timed_rounds), "traced_rounds": len(traced_rounds),
            "op_mix": list(workload.round),
            "attempted": attempted, "failed": len(failures),
            "failures": failures[:20], "checks": checks,
            "latencies": latencies,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            * 1024 / 1e6,
            "raw": raw, "scale": statistics.fmean(sc for *_, sc in latencies),
            "wall_s": statistics.fmean(round_s),
            "op_p50_s": statistics.median(values), "op_tail_s": tail_value,
            "ops_per_s": len(values) / sum(round_s),
            "op_tail_percentile": tail_pct, "op_tail_beyond": beyond,
            "op_samples": len(values), "digest": digest.hexdigest(),
        })
        if trace:
            layers = layer_metrics(tracer, len(traced_rounds))
            layers["simulator.peak_alloc_mb"] = memory.peak_alloc / 1e6
            layers["trace.overhead_s"] = (
                statistics.fmean(sum(lat for lat, _ in r) for r in traced_rounds)
                - statistics.fmean(raw_round_s))
            result["layers"] = layers
            result["spans"] = {f"{layer}.{name}": {"calls": n, "busy_s": busy}
                               for (layer, name), (n, busy)
                               in sorted(tracer.by_name.items())}
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.setup_only, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

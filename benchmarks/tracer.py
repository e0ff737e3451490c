"""Span tracing for the traced benchmark run.

Shims replace the package's layer entry points at the names their callers
use (``branching_ou.harness.simulate_farm``, ``branching_ou.limits.simulate``
and so on), so no file of the package changes.  Each shim records a span:
layer, start, end and the enclosing span.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all layers plus the benchmark's own ``bench`` span add up to the traced op
time.  Spans are aggregated as they close; nothing is written until the
run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("simulator", "ustats", "kernels", "limits", "tree_oracle",
          "harness", "cli")


class _Frame:
    __slots__ = ("layer", "name", "start", "child", "outermost", "tracing_mem")

    def __init__(self, layer, name, outermost):
        self.layer = layer
        self.name = name
        self.outermost = outermost
        self.child = 0.0
        self.tracing_mem = False
        self.start = 0.0


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every patched
    name.  Aggregates are totals over all spans recorded so far."""

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.stack: list[_Frame] = []
        self.self_s = defaultdict(float)      # layer -> self time
        self.busy_s = defaultdict(float)      # layer -> outermost-span time
        self.calls = defaultdict(int)         # layer -> outermost spans
        self.by_name = defaultdict(lambda: [0, 0.0])  # (layer, name) -> [n, busy]
        self.counts = defaultdict(float)      # named counters
        self.peak_alloc = 0
        self.op_s = 0.0
        self.tree_shapes: dict[int, list[int]] = {}  # arity -> inner nodes per tree
        self._patches: list[tuple[object, str, object]] = []
        self._dict_patches: list[tuple[dict, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str, name: str) -> _Frame:
        outermost = all(f.layer != layer for f in self.stack)
        frame = _Frame(layer, name, outermost)
        if (self.track_memory and layer == "simulator" and outermost
                and not tracemalloc.is_tracing()):
            tracemalloc.start()
            frame.tracing_mem = True
        self.stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> float:
        dur = time.perf_counter() - frame.start
        self.stack.pop()
        if frame.tracing_mem:
            self.peak_alloc = max(self.peak_alloc,
                                  tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        self.self_s[frame.layer] += dur - frame.child
        if self.stack:
            self.stack[-1].child += dur
        if frame.outermost:
            self.busy_s[frame.layer] += dur
            self.calls[frame.layer] += 1
            entry = self.by_name[(frame.layer, frame.name)]
            entry[0] += 1
            entry[1] += dur
        return dur

    def op(self, fn, *args):
        """Run one benchmark op under a root ``bench`` span."""
        frame = self._enter("bench", "op")
        try:
            return fn(*args)
        finally:
            self.op_s += self._exit(frame)

    def count(self, key: str, value: float = 1.0):
        self.counts[key] += value

    def current_layer(self) -> str:
        return self.stack[-1].layer if self.stack else "bench"

    # -- shims -------------------------------------------------------------

    def shim(self, layer: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(tracer, dur,
        outermost, bound_args, result)`` adds counters once the span has
        closed."""
        tracer = self
        sig = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._exit(frame)
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer, dur, frame.outermost, bound.arguments, result)
            return result

        return wrapper

    def patch(self, module, attr: str, layer: str, after=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.shim(layer, original, after))

    def patch_item(self, mapping: dict, key: str, layer: str, after=None):
        original = mapping[key]
        self._dict_patches.append((mapping, key, original))
        mapping[key] = self.shim(layer, original, after)

    def install(self):
        """Patch every layer boundary the workloads cross."""
        from branching_ou import (cli, harness, kernels, limits, simulator,
                                  tree_oracle, ustats)

        for mod in (simulator, harness, cli):
            self.patch(mod, "simulate_farm", "simulator", _after_simulate)
        self.patch(limits, "simulate", "simulator", _after_simulate)

        for name in ("u_statistic", "normalized_u_statistic", "v_statistic"):
            self.patch(harness, name, "ustats", _after_ustats)
        for name in ("u_statistic", "normalized_u_statistic"):
            self.patch(ustats, name, "ustats", _after_ustats)

        for name in ("is_canonical", "project"):
            self.patch(harness, name, "kernels")
        self.patch(limits, "is_canonical", "kernels")
        self.patch(ustats, "substitute_partition", "kernels")
        for name in ("hoeffding_table", "reconstruct_from_table", "is_canonical",
                     "center_kernel", "degeneracy_order"):
            self.patch(kernels, name, "kernels")

        for kind in ("fast", "slow", "critical"):
            self.patch(harness, f"{kind}_limit_sampler", "limits",
                       functools.partial(_after_sampler, kind))
        for name in ("sigma_slow", "sigma_critical"):
            self.patch(harness, name, "limits", _after_sigma)
        self.patch(harness, "h_polynomial_value", "limits")

        for mod in (harness, tree_oracle):
            self.patch(mod, "exact_mixed_moment", "tree_oracle", _after_oracle)

        for key in list(harness.RUNNERS):
            self.patch_item(harness.RUNNERS, key, "harness")
        self.patch(harness, "run_clt", "harness")
        self.patch(cli, "emit", "harness", _after_emit)
        self.patch(cli, "dump_snapshots", "harness", _after_dump)

        self.patch(cli, "main", "cli")

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        for mapping, key, original in reversed(self._dict_patches):
            mapping[key] = original
        self._patches.clear()
        self._dict_patches.clear()

    def wrap_blackbox(self, fn):
        """Count calls and rows of a user black-box evaluator, charged to
        the innermost layer on the span stack."""
        tracer = self

        def counted(args):
            rows = args[0].shape[0] if len(args) else 1
            layer = tracer.current_layer()
            tracer.counts[f"{layer}.bb_calls"] += 1
            tracer.counts[f"{layer}.bb_rows"] += rows
            return fn(args)

        return counted


# -- per-call counters, computed after the span closed ----------------------


def _after_simulate(tracer, dur, outermost, args, result):
    if not outermost:
        return
    if isinstance(result, list):
        n = sum(s.count for per_time in result for s in per_time)
    else:
        n = result.count
    tracer.count("simulator.particles", n)


def _after_ustats(tracer, dur, outermost, args, result):
    if not outermost:
        return
    kernel = args.get("f", args.get("f_centered"))
    tracer.count(f"ustats.a{kernel.arity}.calls")
    tracer.count(f"ustats.a{kernel.arity}.busy_s", dur)


def _after_sampler(kind, tracer, dur, outermost, args, result):
    tracer.count(f"limits.{kind}.draws", len(result))
    tracer.count(f"limits.{kind}.busy_s", dur)


def _after_sigma(tracer, dur, outermost, args, result):
    tracer.count("limits.sigma_s", dur)


def _after_oracle(tracer, dur, outermost, args, result):
    if not outermost:
        return
    from branching_ou import tree_oracle

    n = args["n"]
    if n not in tracer.tree_shapes:
        tracer.tree_shapes[n] = [
            len(t.inner_nodes) for t in tree_oracle.enumerate_trees(n, cap=args["cap"])]
    nodes, check = args["n_nodes"], args["check"]
    evals = 0
    for k in tracer.tree_shapes[n]:
        if k == 0:
            evals += 1
        else:
            evals += nodes ** k + (max(2, nodes // 2) ** k if check else 0)
    tracer.count(f"tree_oracle.n{n}.moments")
    tracer.count(f"tree_oracle.n{n}.busy_s", dur)
    tracer.count("tree_oracle.trees", len(tracer.tree_shapes[n]))
    tracer.count("tree_oracle.leaf_evals_computed", evals)


def _after_emit(tracer, dur, outermost, args, result):
    tracer.count("harness.emit_s", dur)


def _after_dump(tracer, dur, outermost, args, result):
    tracer.count("harness.dump_s", dur)
    tracer.count("harness.dump_bytes", result.stat().st_size)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics, as means per traced round (counts too), except the
    rates, which divide totals."""
    c = tracer.counts
    per = 1.0 / rounds
    out = {}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = tracer.self_s[layer] * per
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = tracer.busy_s[layer] * per
        out[f"{layer}.calls"] = tracer.calls[layer] * per
    out.update({
        "simulator.particles": c["simulator.particles"] * per,
        "simulator.particles_per_s": _ratio(c["simulator.particles"],
                                            tracer.busy_s["simulator"]),
        "ustats.us_per_call.a2": 1e6 * _ratio(c["ustats.a2.busy_s"],
                                              c["ustats.a2.calls"]),
        "ustats.us_per_call.a4": 1e6 * _ratio(c["ustats.a4.busy_s"],
                                              c["ustats.a4.calls"]),
        "ustats.bb_rows": c["ustats.bb_rows"] * per,
        "kernels.bb_calls": c["kernels.bb_calls"] * per,
        "kernels.bb_rows": c["kernels.bb_rows"] * per,
        "kernels.rows_per_call": _ratio(c["kernels.bb_rows"], c["kernels.bb_calls"]),
        "limits.fast.draws_per_s": _ratio(c["limits.fast.draws"],
                                          c["limits.fast.busy_s"]),
        "limits.slow.draws_per_s": _ratio(c["limits.slow.draws"],
                                          c["limits.slow.busy_s"]),
        "limits.sigma_s": c["limits.sigma_s"] * per,
        "tree_oracle.s_per_moment.n2": _ratio(c["tree_oracle.n2.busy_s"],
                                              c["tree_oracle.n2.moments"]),
        "tree_oracle.s_per_moment.n3": _ratio(c["tree_oracle.n3.busy_s"],
                                              c["tree_oracle.n3.moments"]),
        "tree_oracle.trees": c["tree_oracle.trees"] * per,
        "tree_oracle.leaf_evals_computed": c["tree_oracle.leaf_evals_computed"] * per,
        "harness.emit_s": c["harness.emit_s"] * per,
        "harness.dump_s": c["harness.dump_s"] * per,
        "harness.dump_bytes": c["harness.dump_bytes"] * per,
        "harness.dump_mb_per_s": _ratio(c["harness.dump_bytes"] / 1e6,
                                        c["harness.dump_s"]),
        "trace.op_s": tracer.op_s * per,
    })
    return out

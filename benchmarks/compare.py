"""Compare a parent and a change from their benchmark result files.

    python3 benchmarks/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Both directories hold result files that ``run.py --trace 0`` wrote.  Runs
of a workload pair up in start-time order, the i-th parent run with the
i-th change run.  A workload gets no verdict unless it has at least ten
pairs, both runs of each pair used the same seed, and the side that ran
first alternates from pair to pair.  For every end-to-end metric of
BENCHMARK.json, in order:

- gain: the change wins at least nine tenths of the pairs (ties count for
  neither side) and the medians differ, in the better direction, by more
  than the parent's interquartile range.  A gain does not count when the
  change failed more ops than the parent;
- better on every run: every change run beats every parent run;
- unresolved: the run-to-run spread of either side (interquartile range
  over median) exceeds the metric's bound;
- regressed: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
- within bound: otherwise.

Each verdict on normalized seconds is followed by the verdict on the raw
figures of the same runs (``raw_metrics``), so that work an op leaves
behind, which slows the reference kernel timed after it and so hides in
the normalized figure, shows as a disagreement.  One row per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10


def load_runs(directory) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0 and not record.get("tiny"):
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started_at"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(parent: list[float], change: list[float], better: str,
          bound: float, more_failures: bool = False) -> dict:
    """Verdict for one metric on one workload from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    improved = sign * (cm - pm) > 0
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    worse_share = -sign * (cm - pm) / abs(pm)
    if (improved and wins >= 0.9 * pairs and abs(cm - pm) > p3 - p1
            and not more_failures):
        verdict = "gain"
    elif min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "better on every run"
    elif spread > bound:
        verdict = "unresolved"
    elif worse_share > bound:
        verdict = "regressed"
    else:
        verdict = "within bound"
    return {"verdict": verdict, "wins": wins, "pairs": pairs,
            "parent": (p1, pm, p3), "change": (c1, cm, c3),
            "spread": spread, "worse_share": worse_share}


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> list[str]:
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        pairs = min(len(parent), len(change))
        if pairs < MIN_PAIRS:
            rows.append(f"{workload}: too few pairs ({pairs} < {MIN_PAIRS})")
            continue
        parent, change = parent[:pairs], change[:pairs]
        if any(p["provenance"]["seed"] != c["provenance"]["seed"]
               for p, c in zip(parent, change)):
            rows.append(f"{workload}: no verdict, paired runs used different seeds")
            continue
        order = [p["started_at"] < c["started_at"] for p, c in zip(parent, change)]
        if any(a == b for a, b in zip(order, order[1:])):
            rows.append(f"{workload}: no verdict, pairs did not alternate")
            continue
        failed = [sum(r["failed"] for r in side) for side in (parent, change)]
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            res = judge([r["metrics"][name] for r in parent],
                        [r["metrics"][name] for r in change],
                        metric["better"], metric["bound"],
                        more_failures=failed[1] > failed[0])
            p1, pm, p3 = res["parent"]
            c1, cm, c3 = res["change"]
            cell = (f"{name} {res['verdict']} ({pm:.4g} [{p1:.4g}, {p3:.4g}] -> "
                    f"{cm:.4g} [{c1:.4g}, {c3:.4g}] {metric['unit']}, "
                    f"wins {res['wins']}/{res['pairs']})")
            if all(name in r.get("raw_metrics", {}) for r in parent + change):
                raw = judge([r["raw_metrics"][name] for r in parent],
                            [r["raw_metrics"][name] for r in change],
                            metric["better"], metric["bound"],
                            more_failures=failed[1] > failed[0])
                cell += f", raw {raw['verdict']}"
            cells.append(cell)
        rows.append(f"{workload}: {pairs} pairs, failed ops {failed[0]} -> "
                    f"{failed[1]}; " + "; ".join(cells))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    for row in compare(load_runs(args.parent), load_runs(args.change), spec):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())

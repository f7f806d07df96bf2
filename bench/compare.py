"""Compare two result sets of the benchmark, one row per (metric, workload).

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --out``, usually one
per (workload, seed), ten seeds per workload.  Runs are paired by
(workload, seed, trace).  Untraced results give the end-to-end rows,
traced results the per-layer rows.  Verdicts:

* ``better``: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the two medians differ by more than the parent's IQR.
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json.  Per-layer metrics have no bound;
  they are ``worse`` by the mirror of the ``better`` rule.
* ``unresolved``: the parent's own spread (IQR / median) is wider than the
  bound, unless every change run reads better than every parent run.
* ``same``: none of the above.

Exits 1 when any end-to-end row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """{(trace, workload, metric): {seed: value}} from every result file."""
    out: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "result" not in doc:
            continue  # span files and other JSON
        for metric, m in doc["result"]["metrics"].items():
            if m["value"] is not None:
                out[doc["trace"], doc["workload"], metric][doc["seed"]] = m["value"]
    return out


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, IQR, IQR / median) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], 0.0, 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1, (q3 - q1) / abs(q2) if q2 else float("inf")


def classify(parent: dict, change: dict, better: str, bound: float | None) -> dict:
    """Verdict for one (metric, workload) from seed -> value maps."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    losses = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    p_med, p_iqr, p_spread = spread(list(parent.values()))
    c_med, c_iqr, _ = spread(list(change.values()))
    gain = sign * (c_med - p_med)
    all_better = min(sign * v for v in change.values()) > max(sign * v for v in parent.values())
    paired_win = bool(seeds) and wins >= 0.9 * len(seeds) and abs(c_med - p_med) > p_iqr
    paired_loss = bool(seeds) and losses >= 0.9 * len(seeds) and abs(c_med - p_med) > p_iqr
    if bound is not None and p_spread > bound and not all_better:
        verdict = "unresolved"
    elif (bound is not None and -gain > bound * abs(p_med)) or (bound is None and paired_loss):
        verdict = "worse"
    elif gain > 0 and paired_win:
        verdict = "better"
    else:
        verdict = "same"
    return {
        "parent_median": p_med,
        "parent_iqr": p_iqr,
        "change_median": c_med,
        "change_iqr": c_iqr,
        "change_pct": 100.0 * (c_med - p_med) / abs(p_med) if p_med else float("nan"),
        "pairs": len(seeds),
        "wins": wins,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--json", action="store_true", help="print the rows as JSON")
    args = p.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = {m["name"]: (0, m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update({m["name"]: (1, m["better"], None) for m in spec["per_layer"]})
    parent, change = load(args.parent), load(args.change)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, (trace, better, bound) in metrics.items():
            a, b = parent.get((trace, workload, name)), change.get((trace, workload, name))
            if a and b:
                rows.append({"workload": workload, "metric": name, **classify(a, b, better, bound)})
    if args.json:
        print(json.dumps(rows, indent=1))
    else:
        print(f"{'workload':17s} {'metric':26s} {'parent':>12s} {'iqr':>10s} {'change':>12s} "
              f"{'delta':>8s} {'wins':>6s}  verdict")
        for r in rows:
            print(f"{r['workload']:17s} {r['metric']:26s} {r['parent_median']:12.5g} {r['parent_iqr']:10.3g} "
                  f"{r['change_median']:12.5g} {r['change_pct']:+7.1f}% {r['wins']:>2d}/{r['pairs']:<3d}  {r['verdict']}")
    worse = [r for r in rows if r["verdict"] == "worse" and r["metric"] in {m["name"] for m in spec["end_to_end"]}]
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

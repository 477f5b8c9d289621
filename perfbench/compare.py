"""Compare benchmark results of two commits, metric by metric.

    python3 perfbench/compare.py PARENT CHANGE
    python3 perfbench/compare.py --summary RESULTS

PARENT and CHANGE are result files written by run.py, or directories of
them; only untraced (--trace 0) results are used. Runs pair up by seed when
both sides ran the same seeds, otherwise in file-name order. For every
end-to-end metric of BENCHMARK.json and every workload it reports each
side's median and quartiles, the share of pairs the change wins (ties count
for neither), and one verdict:

  gain          the change wins at least 9/10 of the pairs and the medians
                differ by more than the parent's quartile spread
  regression    the change's median is worse than the parent's by more than
                the metric's bound
  unresolved    either side's quartile spread, as a share of its median, is
                wider than the bound, and not every change run beats every
                parent run
  better        spread wider than the bound, but every change run beats
                every parent run
  within-bound  none of the above

A gain does not count when the change failed more operations than the
parent. Claims need at least ten pairs; fewer are flagged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import quartiles

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
GAIN_SHARE = 0.9


def load(paths: list[Path]) -> list[dict]:
    files: list[Path] = []
    for path in paths:
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    records = [json.loads(f.read_text()) for f in files]
    return [r for r in records if r.get("trace") == 0 and "metrics" in r]


def pair(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    seeds_a = [r["environment"]["seed"] for r in parent]
    seeds_b = [r["environment"]["seed"] for r in change]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(seeds_a):
        by_seed = {r["environment"]["seed"]: r for r in change}
        return [(r, by_seed[r["environment"]["seed"]]) for r in parent]
    return list(zip(parent, change))


def is_better(x: float, y: float, better: str) -> bool:
    """x reads better than y."""
    return x > y if better == "higher" else x < y


def verdict(a: list[float], b: list[float], better: str, bound: float, more_failures: bool = False) -> dict:
    """Section-8 comparison of paired parent runs a and change runs b."""
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    wins = sum(1 for x, y in zip(b, a) if is_better(x, y, better))
    pairs = min(len(a), len(b))
    spread_a = (q3a - q1a) / abs(med_a)
    spread_b = (q3b - q1b) / abs(med_b)
    worse = (med_b - med_a) / abs(med_a)
    if better == "higher":
        worse = -worse
    if spread_a > bound or spread_b > bound:
        every = all(is_better(x, y, better) for x in b for y in a)
        outcome = "better" if every else "unresolved"
    elif worse > bound:
        outcome = "regression"
    elif (
        wins >= GAIN_SHARE * pairs
        and abs(med_b - med_a) > q3a - q1a
        and is_better(med_b, med_a, better)
        and not more_failures
    ):
        outcome = "gain"
    else:
        outcome = "within-bound"
    return {
        "parent": {"q1": q1a, "median": med_a, "q3": q3a, "spread": spread_a},
        "change": {"q1": q1b, "median": med_b, "q3": q3b, "spread": spread_b},
        "pairs": pairs,
        "wins": wins,
        "win_share": wins / pairs if pairs else 0.0,
        "worse_by": worse,
        "bound": bound,
        "verdict": outcome,
        "too_few_pairs": pairs < MIN_PAIRS,
    }


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    out: dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        pairs = pair(
            [r for r in parent if r["workload"] == workload],
            [r for r in change if r["workload"] == workload],
        )
        more_failures = sum(b["failed"] for _, b in pairs) > sum(a["failed"] for a, _ in pairs)
        out[workload] = {
            m["name"]: verdict(
                [a["metrics"][m["name"]]["value"] for a, _ in pairs],
                [b["metrics"][m["name"]]["value"] for _, b in pairs],
                m["better"],
                m["bound"],
                more_failures,
            )
            for m in spec["end_to_end"]
        }
    return out


def summarize(records: list[dict], spec: dict) -> dict:
    """Median and quartiles of every end-to-end metric per workload."""
    out: dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        metrics = {}
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"] for r in runs])
            metrics[m["name"]] = {"unit": m["unit"], "q1": q1, "median": med, "q3": q3,
                                  "spread": (q3 - q1) / abs(med)}
        env = {k: v for k, v in runs[0]["environment"].items() if k != "seed"}
        out[workload] = {
            "runs": len(runs),
            "seeds": sorted(r["environment"]["seed"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "environment": env,
            "metrics": metrics,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", type=Path)
    parser.add_argument("--summary", action="store_true", help="summarize one set of results")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.summary:
        print(json.dumps(summarize(load(args.paths), spec), indent=1))
        return 0
    if len(args.paths) != 2:
        parser.error("give PARENT and CHANGE")
    result = compare(load([args.paths[0]]), load([args.paths[1]]), spec)
    for workload, metrics in result.items():
        print(f"{workload}")
        for name, v in metrics.items():
            a, b = v["parent"], v["change"]
            flag = "  (fewer than 10 pairs)" if v["too_few_pairs"] else ""
            print(
                f"  {name:18s} parent {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}]"
                f"  change {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                f"  wins {v['wins']}/{v['pairs']}  worse by {100 * v['worse_by']:+.2f}%"
                f" (bound {100 * v['bound']:.1f}%)  {v['verdict']}{flag}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

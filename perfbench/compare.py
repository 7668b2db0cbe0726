"""Compare benchmark results of two commits, metric by metric and workload by workload.

Usage: python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the ``results/*.json`` records that ``run.py`` wrote in
one checkout.  Runs are paired by (workload, trace, seed).  For every metric
this prints each side's median and quartiles, the change of the medians, and
how many pairs the new side won, then a verdict:

* ``gain``: the new side won at least 9 of 10 pairs and the medians differ
  by more than the base's own quartile spread;
* ``regression``: the new median is worse by more than the bound in
  BENCHMARK.json (end-to-end metrics only);
* ``unresolved``: the base's own spread is wider than the bound;
* ``no change`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: {metric: value}}}"""
    out: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        values = record["per_layer"] if record["trace"] else record["end_to_end"]
        out[(record["workload"], record["trace"])][record["seed"]] = values
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list, new: list, wins: int, pairs: int, bound, lower_is_better: bool) -> str:
    q1, med, q3 = quartiles(base)
    spread = (q3 - q1) / med if med else 0.0
    worse = (statistics.median(new) - med) / med if med else 0.0
    if not lower_is_better:
        worse = -worse
    if pairs and wins >= 0.9 * pairs and abs(statistics.median(new) - med) > q3 - q1:
        return "gain"
    if bound is not None and worse > bound:
        return "regression"
    if bound is not None and spread > bound:
        return "unresolved"
    return "no change"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    for key in sorted(set(base) & set(new)):
        seeds = sorted(set(base[key]) & set(new[key]))
        if not seeds:
            continue
        print(f"== {key[0]} ({'traced' if key[1] else 'end to end'}), {len(seeds)} paired seeds")
        for name in base[key][seeds[0]]:
            meta = metrics.get(name)
            if meta is None:
                continue
            lower = meta["better"] == "lower"
            b = [base[key][s][name] for s in seeds]
            n = [new[key][s][name] for s in seeds]
            wins = sum((y < x) if lower else (y > x) for x, y in zip(b, n))
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            print(f"  {name} [{meta['unit']}]: base {bq[1]:.6g} ({bq[0]:.6g}..{bq[2]:.6g}) "
                  f"new {nq[1]:.6g} ({nq[0]:.6g}..{nq[2]:.6g}) change {change:+.1%} "
                  f"wins {wins}/{len(seeds)}: "
                  f"{verdict(b, n, wins, len(seeds), meta.get('bound'), lower)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

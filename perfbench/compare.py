"""Compare two sets of benchmark records, metric by metric.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``*.json`` records that ``perfbench/run.py`` writes
to ``.perfbench_out/``. For every workload and metric it prints the median
and quartiles of both sides and the change of the medians. Records made
with different kernel backends are not comparable; the script refuses them
(exit 2), as it refuses records of different trace modes.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List


def load(directory: str) -> List[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records: List[dict]) -> Dict[tuple, List[dict]]:
    out: Dict[tuple, List[dict]] = {}
    for rec in records:
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)

    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare: no records found", file=sys.stderr)
        return 2
    backends = {r["environment"]["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"compare: records use different kernel backends {sorted(backends)}; "
              "they are not comparable", file=sys.stderr)
        return 2

    base_groups, new_groups = by_workload(base), by_workload(new)
    print(f"backend: {backends.pop()}")
    for key in sorted(set(base_groups) & set(new_groups)):
        workload, trace = key
        olds, news = base_groups[key], new_groups[key]
        print(f"\n{workload} (trace {trace}): {len(olds)} base runs, {len(news)} new runs")
        for metric in olds[0]["metrics"]:
            a = [r["metrics"][metric] for r in olds if metric in r["metrics"]]
            b = [r["metrics"][metric] for r in news if metric in r["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            print(f"  {metric:48s} {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  ->  "
                  f"{qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {change:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

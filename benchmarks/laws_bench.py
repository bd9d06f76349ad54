"""In-process timings of the law suite, law by law.

Run with ``PYTHONPATH=src python3 benchmarks/laws_bench.py [--repeats N]``.
Each repeat runs every law once, in registry order, on a fresh
``LawContext`` at sizes up to 3, as ``verify-paper`` does. The output is one
JSON object: per law its median seconds, its checks and the instances its
class replay decided through the operators, the median total, and how many
products ``constructions.product`` and subspaces ``constructions.subspace``
built in one run.
"""

import argparse
import json
import os
import platform
import statistics
import time

from auratopo import laws


def _one_run() -> dict:
    """Seconds, checks and decided instances per law, and the products and
    subspaces built, of one run."""
    built = {"product": 0, "subspace": 0}
    real = {name: getattr(laws, name) for name in built}

    def counted(name):
        def call(*args):
            built[name] += 1
            return real[name](*args)
        return call

    for name in built:
        setattr(laws, name, counted(name))
    try:
        ctx = laws.LawContext()
        rows = {}
        for law in laws.LAWS:
            tally = laws._Tally(law.name)
            t0 = time.perf_counter()
            law.run(ctx, tally)
            rows[law.name] = (time.perf_counter() - t0, tally.checks, tally.decided)
    finally:
        for name, fn in real.items():
            setattr(laws, name, fn)
    return {"laws": rows, "products": built["product"], "subspaces": built["subspace"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    runs = [_one_run() for _ in range(args.repeats)]
    names = [law.name for law in laws.LAWS]
    per_law = {
        name: {
            "s": round(statistics.median(r["laws"][name][0] for r in runs), 4),
            "checks": runs[0]["laws"][name][1],
            "decided": runs[0]["laws"][name][2],
        }
        for name in names
    }
    totals = [sum(row[0] for row in r["laws"].values()) for r in runs]
    print(json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "total_s": round(statistics.median(totals), 4),
        "checks": sum(row["checks"] for row in per_law.values()),
        "products_built": runs[0]["products"],
        "subspaces_built": runs[0]["subspaces"],
        "laws": per_law,
    }, indent=2))


if __name__ == "__main__":
    main()

"""Timings of the kernel primitives on the hot paths.

Run with ``PYTHONPATH=src python3 benchmarks/kernel_bench.py``. Each row is
one primitive of ``auratopo.kernel._pykernel`` over a fixed input set, with
its wall time and a checksum of its results.
"""

import itertools
import time

from auratopo import enumerate_auras, enumerate_topologies
from auratopo.kernel import _pykernel as kernel


def bench_preorders(n):
    return len(kernel.enumerate_preorders(n))


def _discrete4_auras():
    opens = list(range(16))
    choices = [[m for m in opens if (m >> i) & 1] for i in range(4)]
    return list(itertools.product(*choices))


def bench_tau_a(auras):
    total = 0
    for scopes in auras:
        total += len(kernel.tau_a_masks(kernel.hull_masks(4, scopes)))
    return total


def bench_closures(auras):
    acc = 0
    for scopes in auras:
        for a in range(16):
            acc ^= kernel.aura_closure_mask(4, scopes, a)
    return acc


def _size4_rows():
    """The comparability rows of every size-4 space (59,123 of them)."""
    return [s.comparability_rows for top in enumerate_topologies(4)
            for s in enumerate_auras(top)]


def bench_components(rows):
    return sum(kernel.component_count(r) for r in rows)


def run(name, fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return name, time.perf_counter() - t0, result


def main():
    auras4 = _discrete4_auras()
    table = [
        run("enumerate_preorders(4)", bench_preorders, 4),
        run("enumerate_preorders(5)", bench_preorders, 5),
        run("hulls and tau_a over discrete-4 auras (4096)", bench_tau_a, auras4),
        run("closures over discrete-4 auras (65536)", bench_closures, auras4),
        run("component_count over size-4 rows (59123)", bench_components,
            _size4_rows()),
    ]

    width = max(len(r[0]) for r in table) + 2
    print(f"{'benchmark':<{width}}{'seconds':>9}  checksum")
    for name, seconds, result in table:
        print(f"{name:<{width}}{seconds:>9.3f}  {result}")


if __name__ == "__main__":
    main()

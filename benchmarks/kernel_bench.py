"""Timing comparison of the two kernel backends on the hot paths.

Run with ``python3 benchmarks/kernel_bench.py``. The compiled backend
is skipped with a note when the extension is not built.
"""

import itertools
import time

from auratopo import enumerate_auras, enumerate_topologies
from auratopo.kernel import _pykernel

try:
    from auratopo.kernel import _fastkernel
except ImportError:
    _fastkernel = None


def bench_preorders(impl, n):
    return len(impl.enumerate_preorders(n))


def _discrete4_auras():
    opens = list(range(16))
    choices = [[m for m in opens if (m >> i) & 1] for i in range(4)]
    return list(itertools.product(*choices))


def bench_tau_a(impl, auras):
    total = 0
    for scopes in auras:
        total += len(impl.tau_a_masks(4, scopes))
    return total


def bench_closures(impl, auras):
    acc = 0
    for scopes in auras:
        for a in range(16):
            acc ^= impl.aura_closure_mask(4, scopes, a)
    return acc


def _size4_hulls():
    """The hull tuple of every size-4 space (59,123 of them)."""
    return [list(s.hull_masks) for top in enumerate_topologies(4)
            for s in enumerate_auras(top)]


def bench_components(impl, hulls):
    return sum(impl.component_count(4, h) for h in hulls)


def run(name, fn, *args):
    rows = []
    for impl in (_pykernel, _fastkernel):
        if impl is None:
            rows.append((name, "c", None, None))
            continue
        t0 = time.perf_counter()
        result = fn(impl, *args)
        rows.append((name, impl.BACKEND, time.perf_counter() - t0, result))
    return rows


def main():
    auras4 = _discrete4_auras()
    table = []
    table += run("enumerate_preorders(4)", bench_preorders, 4)
    table += run("enumerate_preorders(5)", bench_preorders, 5)
    table += run("tau_a over discrete-4 auras (4096)", bench_tau_a, auras4)
    table += run("closures over discrete-4 auras (65536)", bench_closures, auras4)
    table += run("component_count over size-4 hulls (59123)", bench_components,
                 _size4_hulls())

    width = max(len(r[0]) for r in table) + 2
    print(f"{'benchmark':<{width}}{'backend':<9}{'seconds':>9}  checksum")
    base = {}
    for name, backend, seconds, result in table:
        if seconds is None:
            print(f"{name:<{width}}{backend:<9}{'skipped':>9}  extension not built")
            continue
        line = f"{name:<{width}}{backend:<9}{seconds:>9.3f}  {result}"
        if backend == "python":
            base[name] = (seconds, result)
        else:
            ref_s, ref_r = base[name]
            assert ref_r == result, f"backend disagreement on {name}: {ref_r} vs {result}"
            line += f"  ({ref_s / seconds:.1f}x)"
        print(line)


if __name__ == "__main__":
    main()

"""Timings of the kernel primitives on the hot paths.

Run with ``PYTHONPATH=src python3 benchmarks/kernel_bench.py``. Each row is
one primitive of ``auratopo.kernel._pykernel`` over a fixed input set, with
its wall time and a checksum of its results.
"""

import importlib
import itertools
import time

from auratopo import enumerate_auras, enumerate_topologies
from auratopo.constructions import _box_mask
from auratopo.kernel import _pykernel as kernel

# The package's `search` attribute is the function, so fetch the module itself.
search = importlib.import_module("auratopo.search")


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


def _product_groups():
    """The product scopes of the 68 ** 2 distinct factor pairs of the
    ``matrix`` product scan, one group per distinct left factor and right
    factor size: 136 groups of (points, [scope tuple per pair])."""
    distinct = list(dict.fromkeys(search._product_pair_pool()))
    groups = []
    for nx, scopes_x, _ in distinct:
        for ny in (2, 3):
            groups.append((nx * ny, [[_box_mask(u, v, ny) for u in scopes_x for v in scopes_y]
                                     for m, scopes_y, _ in distinct if m == ny]))
    return groups


def bench_product_hulls(groups):
    return sum(sum(kernel.hull_masks(n, scopes)) for n, relations in groups
               for scopes in relations)


def bench_product_hulls_packed(groups):
    """The same closures, one ``packed_hulls`` call per group; the packing
    and unpacking of the lanes are timed too."""
    total = 0
    for n, relations in groups:
        shifts = [j * n for j in range(len(relations))]
        rows = [sum(scopes[i] << s for scopes, s in zip(relations, shifts)) for i in range(n)]
        lane = (1 << n) - 1
        for h in kernel.packed_hulls(n, rows, sum(1 << s for s in shifts)):
            total += sum((h >> s) & lane for s in shifts)
    return total


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
    groups = _product_groups()
    table += [
        run("hull_masks over product relations (4624)", bench_product_hulls, groups),
        run("packed_hulls over product relations (4624 in 136)",
            bench_product_hulls_packed, groups),
    ]

    width = max(len(r[0]) for r in table) + 2
    print(f"{'benchmark':<{width}}{'seconds':>9}  checksum")
    for name, seconds, result in table:
        print(f"{name:<{width}}{seconds:>9.3f}  {result}")


if __name__ == "__main__":
    main()

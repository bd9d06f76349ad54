"""Kernel backend selection.

The compiled extension is preferred when importable; the pure Python
twin is the fallback. AURATOPO_KERNEL=python forces the fallback,
AURATOPO_KERNEL=c insists on the extension (and raises if absent), so
benchmarks and tests can pin a backend.
"""

from __future__ import annotations

import os

_requested = os.environ.get("AURATOPO_KERNEL", "auto").strip().lower()

if _requested in ("auto", ""):
    try:
        from . import _fastkernel as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _pykernel as _impl
elif _requested in ("c", "native", "fast"):
    from . import _fastkernel as _impl  # type: ignore[attr-defined]
elif _requested in ("python", "py", "pure"):
    from . import _pykernel as _impl
else:
    raise RuntimeError(f"AURATOPO_KERNEL must be auto, c, or python, not {_requested!r}")

BACKEND = _impl.BACKEND

hull_masks = _impl.hull_masks
union_closure = _impl.union_closure
tau_a_masks = _impl.tau_a_masks
is_transitive = _impl.is_transitive
is_symmetric = _impl.is_symmetric
aura_closure_mask = _impl.aura_closure_mask
enumerate_preorders = _impl.enumerate_preorders
component_count = _impl.component_count

__all__ = [
    "BACKEND",
    "hull_masks",
    "union_closure",
    "tau_a_masks",
    "is_transitive",
    "is_symmetric",
    "aura_closure_mask",
    "enumerate_preorders",
    "component_count",
]

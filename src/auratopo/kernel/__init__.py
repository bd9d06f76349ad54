"""Bitmask kernel: the primitives behind every hot loop, on plain ints.

``_pykernel`` is the one implementation. Callers use the names as
attributes of this package (``kernel.hull_masks``), so a test or a tracer
that rebinds one here reaches every caller. ``BACKEND`` names the
implementation in benchmark records.
"""

from ._pykernel import (  # noqa: F401
    BACKEND,
    aura_closure_mask,
    comparability_rows,
    component_count,
    enumerate_preorders,
    flood,
    flood_blocks,
    hull_masks,
    is_symmetric,
    is_transitive,
    packed_hulls,
    relabelings,
    tau_a_masks,
    union_closure,
)

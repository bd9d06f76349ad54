"""Generalized open classes induced by the scope closure and interior.

The four classes use the standard alpha / semi / pre / beta formulas,
evaluated with the scope operators. They form the usual inclusion
hierarchy above the scope topology, which the law suite checks
exhaustively at small sizes.
"""

from __future__ import annotations

from enum import Enum

from . import kernel
from .errors import UniverseTooLarge
from .finite import PointSet, family_key
from .aura import AuraSpace, _as_mask, _interior_mask as _int

FAMILY_SCAN_LIMIT = 20


class GeneralizedClass(str, Enum):
    ALPHA = "alpha"
    SEMI = "semi"
    PRE = "pre"
    BETA = "beta"


def _cl(s: AuraSpace, m: int) -> int:
    return kernel.aura_closure_mask(s.n, s.scope_masks, m)


def is_generalized_open(s: AuraSpace, a, cls: GeneralizedClass) -> bool:
    """Membership test by direct formula evaluation.

    alpha: A inside int(cl(int(A)))
    semi:  A inside cl(int(A))
    pre:   A inside int(cl(A))
    beta:  A inside cl(int(cl(A)))
    """
    am = _as_mask(s, a)
    cls = GeneralizedClass(cls)
    if cls is GeneralizedClass.ALPHA:
        target = _int(s, _cl(s, _int(s, am)))
    elif cls is GeneralizedClass.SEMI:
        target = _cl(s, _int(s, am))
    elif cls is GeneralizedClass.PRE:
        target = _int(s, _cl(s, am))
    else:
        target = _cl(s, _int(s, _cl(s, am)))
    return not am & ~target


def generalized_family(s: AuraSpace, cls: GeneralizedClass) -> tuple:
    """All members of one class, by scanning every subset.

    The scan is exponential by nature, so it is gated at 20 points.
    """
    if s.n > FAMILY_SCAN_LIMIT:
        raise UniverseTooLarge(f"family scan gated at {FAMILY_SCAN_LIMIT} points")
    members = [m for m in range(s.universe.full_mask + 1) if is_generalized_open(s, m, cls)]
    return tuple(PointSet(s.universe, m) for m in sorted(members, key=family_key))

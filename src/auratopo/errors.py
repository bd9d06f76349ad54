"""Error taxonomy.

Every rejection carries a witness where one exists, so callers (and the
CLI) can report the first violated axiom instead of a bare boolean.
"""

from __future__ import annotations


class AuraError(Exception):
    """Base class for all rejections raised by this package."""


class UniverseTooLarge(AuraError):
    """Universe exceeds the 64 point budget, or a scan bound was exceeded."""


class EmptyUniverse(AuraError):
    """Operation needs at least one point."""


class TopologyAxiomViolation(AuraError):
    """A candidate open-set family fails a topology axiom."""


class MissingEmpty(TopologyAxiomViolation):
    pass


class MissingWhole(TopologyAxiomViolation):
    pass


class NotClosedUnderUnion(TopologyAxiomViolation):
    def __init__(self, left, right):
        self.witness = (left, right)
        super().__init__(f"union of {left} and {right} is missing")


class NotClosedUnderIntersection(TopologyAxiomViolation):
    def __init__(self, left, right):
        self.witness = (left, right)
        super().__init__(f"intersection of {left} and {right} is missing")


class NotACover(AuraError):
    """Family does not cover the target set."""


class NotAClosedFamily(AuraError):
    def __init__(self, member):
        self.witness = member
        super().__init__(f"{member} is not closed in the scope topology")


class EmptySubspace(AuraError):
    """Subspace carrier must be nonempty."""


class SizeOutOfRange(AuraError):
    """Enumeration size outside the supported range."""


class LimitOutOfRange(AuraError):
    """A witness limit must be a nonnegative count."""


class TooManyWitnesses(AuraError):
    """A search found more witnesses than its budget allows."""


class UnknownAtom(AuraError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown predicate atom {name!r}")


class UnknownFamily(AuraError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown symbolic cover family {name!r}")


class OpenSetNotInTopology(AuraError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"scope of {label!r} is not an open set of the topology")


class PointNotInOwnAura(AuraError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"point {label!r} does not belong to its own scope")


class DocumentError(AuraError):
    """A space document failed to parse or validate."""


class DocumentSyntaxError(DocumentError):
    def __init__(self, location, detail):
        self.location = location
        super().__init__(f"{detail} at {location}")


class MalformedDocument(DocumentError):
    """Structurally invalid document: wrong types, unknown or missing fields."""


class UnknownPoint(DocumentError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"unknown point label {label!r}")

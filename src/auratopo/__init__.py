"""Finite topological spaces carrying a scope function, plus the tooling
around them: operators, property decisions, constructions, convergence,
compactness reports for a few symbolic infinite models, an exhaustive
search lab over all small spaces, and a pinned verification suite.
"""

import importlib

# The public names, by the submodule that defines them. A name is imported
# from its submodule when first read (PEP 562 ``__getattr__``), so a command
# loads only the layers it uses.
_EXPORTS = {
    "errors": (
        "AuraError", "DocumentError", "DocumentSyntaxError", "EmptySubspace",
        "EmptyUniverse", "LimitOutOfRange", "MalformedDocument",
        "MissingEmpty", "MissingWhole", "NotACover", "NotAClosedFamily",
        "NotClosedUnderIntersection", "NotClosedUnderUnion",
        "OpenSetNotInTopology", "PointNotInOwnAura", "SizeOutOfRange",
        "TooManyWitnesses", "TopologyAxiomViolation", "UniverseTooLarge",
        "UnknownAtom", "UnknownFamily", "UnknownPoint",
    ),
    "finite": (
        "PointSet", "PointUniverse", "TopologyFamily", "generate_topology",
        "is_tau_connected", "validate_topology",
    ),
    "aura": (
        "AuraClassification", "AuraSpace", "SeparationAxioms",
        "aura_closure", "aura_interior", "aura_topology", "classify",
        "derived_set", "hull", "is_aura_closed", "is_aura_continuous",
        "is_aura_open", "make_aura_space", "separation_axioms",
    ),
    "genopen": ("GeneralizedClass", "generalized_family", "is_generalized_open"),
    "covering": (
        "fip", "generalized_compactness", "is_aura_compact",
        "is_aura_limit_point_compact", "is_aura_lindelof",
        "is_countably_aura_compact", "is_cover", "minimal_subcover",
    ),
    "connectivity": (
        "aura_components", "fence_path", "find_aura_separation",
        "is_aura_connected", "is_aura_locally_connected",
        "is_aura_path_connected",
    ),
    "constructions": (
        "iterated_product", "product", "product_topology_of_factors",
        "subspace",
    ),
    "sequences": (
        "EvPSequence", "aura_limits", "converges_to",
        "find_convergent_subsequence", "is_aura_sequentially_compact",
        "parse_sequence",
    ),
    "documents": (
        "SpaceDocument", "load_document", "parse_document", "parse_space",
        "serialize_space",
    ),
    "fixtures": ("FIXTURE_NAMES", "fixture_note", "load_fixture"),
    "symbolic": (
        "MODEL_NAMES", "CompactnessReport", "SymbolicSet", "get_model",
        "subcover_check",
    ),
    "search": (
        "ATOM_NAMES", "count_auras", "enumerate_auras",
        "enumerate_topologies", "implication_matrix", "parse_predicate",
    ),
    "laws": ("LAW_NAMES", "run_laws"),
    "verification": ("run_verification",),
}

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        # A submodule read as an attribute before anything imported it.
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


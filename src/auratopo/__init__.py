"""Finite topological spaces carrying a scope function, plus the tooling
around them: operators, property decisions, constructions, convergence,
compactness reports for a few symbolic infinite models, an exhaustive
search lab over all small spaces, and a pinned verification suite.
"""

from .errors import (
    AuraError,
    DocumentError,
    DocumentSyntaxError,
    EmptySubspace,
    EmptyUniverse,
    LimitOutOfRange,
    MalformedDocument,
    MissingEmpty,
    MissingWhole,
    NotACover,
    NotAClosedFamily,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    OpenSetNotInTopology,
    PointNotInOwnAura,
    SamplesOutOfRange,
    SizeOutOfRange,
    TopologyAxiomViolation,
    UniverseTooLarge,
    UnknownAtom,
    UnknownFamily,
    UnknownPoint,
    WorkersOutOfRange,
)
from .finite import (
    FiniteTopSpace,
    PointSet,
    PointUniverse,
    TopologyFamily,
    generate_topology,
    is_tau_connected,
    validate_topology,
)
from .aura import (
    AuraClassification,
    AuraSpace,
    FiniteMap,
    ScopeFunction,
    SeparationAxioms,
    aura_closure,
    aura_interior,
    aura_topology,
    classify,
    derived_set,
    hull,
    is_aura_closed,
    is_aura_continuous,
    is_aura_open,
    make_aura_space,
    separation_axioms,
)
from .genopen import GeneralizedClass, generalized_family, is_generalized_open
from .covering import (
    fip,
    generalized_compactness,
    is_aura_compact,
    is_aura_limit_point_compact,
    is_aura_lindelof,
    is_countably_aura_compact,
    is_cover,
    minimal_subcover,
)
from .connectivity import (
    aura_components,
    fence_path,
    find_aura_separation,
    is_aura_connected,
    is_aura_locally_connected,
    is_aura_path_connected,
)
from .constructions import iterated_product, product, product_topology_of_factors, subspace
from .sequences import (
    EvPSequence,
    aura_limits,
    converges_to,
    find_convergent_subsequence,
    is_aura_sequentially_compact,
    parse_sequence,
)
from .documents import SpaceDocument, load_document, parse_document, parse_space, serialize_space
from .fixtures import FIXTURE_NAMES, fixture_note, load_fixture
from .symbolic import MODEL_NAMES, CompactnessReport, SymbolicSet, get_model, subcover_check
from .search import (
    ATOM_NAMES,
    count_auras,
    enumerate_auras,
    enumerate_topologies,
    implication_matrix,
    parse_predicate,
    search,
)
from .laws import LAW_NAMES, run_laws
from .verification import run_verification

__version__ = "0.1.0"

__all__ = [
    "AuraError", "DocumentError", "DocumentSyntaxError", "EmptySubspace",
    "EmptyUniverse", "LimitOutOfRange", "MalformedDocument", "MissingEmpty",
    "MissingWhole", "NotACover", "NotAClosedFamily",
    "NotClosedUnderIntersection", "NotClosedUnderUnion",
    "OpenSetNotInTopology", "PointNotInOwnAura", "SamplesOutOfRange",
    "SizeOutOfRange", "TopologyAxiomViolation", "UniverseTooLarge",
    "UnknownAtom", "UnknownFamily", "UnknownPoint", "WorkersOutOfRange",
    "FiniteTopSpace", "PointSet", "PointUniverse", "TopologyFamily",
    "generate_topology", "is_tau_connected", "validate_topology",
    "AuraClassification", "AuraSpace", "FiniteMap", "ScopeFunction",
    "SeparationAxioms", "aura_closure", "aura_interior", "aura_topology",
    "classify", "derived_set", "hull", "is_aura_closed",
    "is_aura_continuous", "is_aura_open", "make_aura_space",
    "separation_axioms",
    "GeneralizedClass", "generalized_family", "is_generalized_open",
    "fip", "generalized_compactness", "is_aura_compact",
    "is_aura_limit_point_compact", "is_aura_lindelof",
    "is_countably_aura_compact", "is_cover", "minimal_subcover",
    "aura_components", "fence_path", "find_aura_separation",
    "is_aura_connected", "is_aura_locally_connected",
    "is_aura_path_connected",
    "iterated_product", "product", "product_topology_of_factors", "subspace",
    "EvPSequence", "aura_limits", "converges_to",
    "find_convergent_subsequence", "is_aura_sequentially_compact",
    "parse_sequence",
    "SpaceDocument", "load_document", "parse_document", "parse_space",
    "serialize_space",
    "FIXTURE_NAMES", "fixture_note", "load_fixture",
    "MODEL_NAMES", "CompactnessReport", "SymbolicSet", "get_model",
    "subcover_check",
    "ATOM_NAMES", "count_auras", "enumerate_auras", "enumerate_topologies",
    "implication_matrix", "parse_predicate", "search",
    "LAW_NAMES", "run_laws",
    "run_verification",
    "__version__",
]

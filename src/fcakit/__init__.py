"""fcakit: characteristic attribute sets, lattice complexity indices, and
seeded null-model randomization for binary formal contexts."""

__version__ = "0.1.0"

from .context import (
    AttrSet,
    CapacityError,
    ContextFormatError,
    FormalContext,
    ObjSet,
    POWERSET_SCAN_LIMIT,
    clarify_rows,
    closure,
    extent,
    intent_of,
    parse_burmeister,
    parse_dense_csv,
    serialize_burmeister,
    serialize_dense_csv,
)
from .charsets import (
    CharFlags,
    Implication,
    dg_basis,
    enumerate_intents,
    enumerate_keys,
    enumerate_passkeys,
    enumerate_proper_premises,
    enumerate_pseudo_intents,
    implication_closure,
    index_classes,
)
from .lattice import ConceptLattice, build_lattice, distributivity, linearity
from .descriptions import (
    DescriptionRow,
    export_description_lattice_context,
    summarize_descriptions,
)
from .randomize import (
    Strategy,
    TrialSummary,
    column_shuffle,
    density_shuffle,
    run_trials,
    summarize,
)

__all__ = [
    "AttrSet",
    "CapacityError",
    "CharFlags",
    "ConceptLattice",
    "ContextFormatError",
    "DescriptionRow",
    "FormalContext",
    "Implication",
    "ObjSet",
    "POWERSET_SCAN_LIMIT",
    "Strategy",
    "TrialSummary",
    "build_lattice",
    "clarify_rows",
    "closure",
    "column_shuffle",
    "density_shuffle",
    "dg_basis",
    "distributivity",
    "enumerate_intents",
    "enumerate_keys",
    "enumerate_passkeys",
    "enumerate_proper_premises",
    "enumerate_pseudo_intents",
    "export_description_lattice_context",
    "extent",
    "implication_closure",
    "index_classes",
    "intent_of",
    "linearity",
    "parse_burmeister",
    "parse_dense_csv",
    "run_trials",
    "serialize_burmeister",
    "serialize_dense_csv",
    "summarize",
    "summarize_descriptions",
]

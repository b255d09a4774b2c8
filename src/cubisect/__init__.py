"""Minimum-monochromatic 2-bisections of claw-free cubic multigraphs.

Public surface: the multigraph type with validation and text I/O, the
block decomposition, bisection predicates and counts, the certified
constructor, the exhaustive small-case oracle, and instance generators.
"""

from .bisection import (
    BLACK,
    WHITE,
    Bisection,
    MonoStats,
    bisection_from_json,
    bisection_json_pieces,
    bisection_to_json,
    is_2bisection,
    is_desired,
    mono_stats,
)
from .construct import (
    BisectionCertificate,
    DiamondReduction,
    desired_bisection_csp,
    formula_minimum,
    lift,
    min_bisection,
    reduce_diamond,
)
from .errors import (
    CertificateError,
    GraphFormatError,
    InternalInvariantError,
    LiftError,
    NotApplicable,
    PartitionError,
    ReductionError,
    TooLarge,
    Unsatisfiable,
)
from .generator import BlockRecipe, curated_suite, generate, ring_of_diamonds
from .multigraph import (
    Multigraph,
    ValidationReport,
    format_graph,
    parse_graph,
    validate,
)
from .oracle import OracleResult, oracle_min
from .structure import (
    Block,
    StructurePartition,
    find_blocks,
)

__all__ = [
    "BLACK",
    "WHITE",
    "Bisection",
    "BisectionCertificate",
    "Block",
    "BlockRecipe",
    "CertificateError",
    "DiamondReduction",
    "GraphFormatError",
    "InternalInvariantError",
    "LiftError",
    "MonoStats",
    "Multigraph",
    "NotApplicable",
    "OracleResult",
    "PartitionError",
    "ReductionError",
    "StructurePartition",
    "TooLarge",
    "Unsatisfiable",
    "ValidationReport",
    "bisection_from_json",
    "bisection_json_pieces",
    "bisection_to_json",
    "curated_suite",
    "desired_bisection_csp",
    "find_blocks",
    "format_graph",
    "formula_minimum",
    "generate",
    "is_2bisection",
    "is_desired",
    "lift",
    "min_bisection",
    "mono_stats",
    "oracle_min",
    "parse_graph",
    "reduce_diamond",
    "ring_of_diamonds",
    "validate",
]

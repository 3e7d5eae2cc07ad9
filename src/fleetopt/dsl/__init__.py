"""Objective language: parsing, validation, canonical forms, lowering,
similarity metrics and the reference query catalog."""

from .analysis import CanonicalForm, canonicalize
from .catalog import (
    CatalogEntry,
    find_entry,
    ground_truth_catalog,
    linear_entries,
    nonlinear_entries,
)
from .lower import check, lower_to_mip
from .parser import ATOMS, DslError, ObjectiveAst, parse
from .similarity import (
    jaro,
    jaro_winkler,
    normalize_source,
    result_similarity,
    text_similarity,
)

__all__ = [
    "ATOMS",
    "CanonicalForm",
    "CatalogEntry",
    "DslError",
    "ObjectiveAst",
    "canonicalize",
    "check",
    "find_entry",
    "ground_truth_catalog",
    "jaro",
    "jaro_winkler",
    "linear_entries",
    "lower_to_mip",
    "nonlinear_entries",
    "normalize_source",
    "parse",
    "result_similarity",
    "text_similarity",
]

"""Reference catalog of operator queries and their vetted objectives.

The catalog ships as a JSON data file next to this module: eighteen
(query, source, linearity) triples covering operational, customer-facing
and regulatory concerns; fifteen are linear in the decisions and three
are not (the dispatching-efficiency and market-share products, and the
matching degree with its absolute deviations). Several distinct queries
share a formula on purpose: they are separate ways operators phrase the
same quantity. Charge levels are 0-based, so ``k + 1`` weights levels
1..|K| and ``x[i,j,2]`` reads the highest level of a three-level fleet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from .parser import ObjectiveAst, parse

CATALOG_VERSION = 1


@dataclass(frozen=True)
class CatalogEntry:
    query: str
    source: str
    linear: bool

    def ast(self) -> ObjectiveAst:
        """The source's AST, parsed on the first call. The AST is frozen,
        so every later call returns the same one."""
        return self._ast

    @cached_property
    def _ast(self) -> ObjectiveAst:
        return parse(self.source)


def _load() -> tuple[CatalogEntry, ...]:
    doc = json.loads(
        resources.files(__package__).joinpath("catalog.json").read_text()
    )
    if doc.get("version") != CATALOG_VERSION:
        raise ValueError(f"unsupported catalog version {doc.get('version')}")
    return tuple(
        CatalogEntry(query=e["query"], source=e["source"], linear=bool(e["linear"]))
        for e in doc["entries"]
    )


CATALOG: tuple[CatalogEntry, ...] = _load()


def ground_truth_catalog() -> tuple[CatalogEntry, ...]:
    return CATALOG


def linear_entries() -> tuple[CatalogEntry, ...]:
    return tuple(e for e in CATALOG if e.linear)


def nonlinear_entries() -> tuple[CatalogEntry, ...]:
    return tuple(e for e in CATALOG if not e.linear)


def find_entry(query: str) -> CatalogEntry | None:
    for entry in CATALOG:
        if entry.query == query:
            return entry
    return None

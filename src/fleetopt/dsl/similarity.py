"""String similarity between objective spellings and their content.

Two graded metrics: ``text_similarity`` compares whitespace-normalized
sources, ``result_similarity`` compares canonical expansions, so two
spellings of the same objective score 1.0 on the latter even when their
code differs.
"""

from __future__ import annotations

import re

from ..fleet import FleetInstance
from .analysis import canonicalize
from .parser import ObjectiveAst

WINKLER_PREFIX_SCALE = 0.1
WINKLER_MAX_PREFIX = 4


def jaro(a: str, b: str) -> float:
    """Plain Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    a_hit = [False] * la
    b_hit = [False] * lb
    matches = 0
    for i in range(la):
        lo = max(0, i - window)
        hi = min(i + window + 1, lb)
        for j in range(lo, hi):
            if b_hit[j] or a[i] != b[j]:
                continue
            a_hit[i] = b_hit[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if not a_hit[i]:
            continue
        while not b_hit[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / la + matches / lb + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a: str, b: str) -> float:
    """Jaro similarity with the common-prefix bonus (scale 0.1, cap 4)."""
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a[:WINKLER_MAX_PREFIX], b[:WINKLER_MAX_PREFIX]):
        if ca != cb:
            break
        prefix += 1
    return base + prefix * WINKLER_PREFIX_SCALE * (1.0 - base)


_WS = re.compile(r"\s+")


def normalize_source(source: str) -> str:
    return _WS.sub(" ", source.strip())


def text_similarity(generated: str, truth: str) -> float:
    """Jaro-Winkler over whitespace-normalized objective sources."""
    return jaro_winkler(normalize_source(generated), normalize_source(truth))


def result_similarity(
    generated: ObjectiveAst, truth: ObjectiveAst, instance: FleetInstance
) -> float:
    """Jaro-Winkler over the canonical expansions of two objectives."""
    gen = canonicalize(generated, instance).as_string()
    ref = canonicalize(truth, instance).as_string()
    return jaro_winkler(gen, ref)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetopt.dsl import (
    canonicalize,
    jaro,
    jaro_winkler,
    normalize_source,
    parse,
    result_similarity,
    text_similarity,
)
from fleetopt.fleet import FleetInstance


def exact_equivalent(generated, truth, instance) -> bool:
    """True when the canonical expansions match exactly."""
    gen = canonicalize(generated, instance)
    ref = canonicalize(truth, instance)
    return gen.sense == ref.sense and gen.as_string() == ref.as_string()


@pytest.fixture
def inst():
    return FleetInstance(
        supply_areas=(0, 1), demand_areas=(8, 9), soc_levels=3,
        supply=[[2, 1, 3], [0, 2, 2]], demand=[[1, 2, 0], [2, 0, 1]],
        distance_km=[[4.0, 2.0], [3.0, 1.0]],
    )


class TestJaroWinkler:
    def test_reference_pairs(self):
        assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.9611, abs=1e-4)
        assert jaro_winkler("DWAYNE", "DUANE") == pytest.approx(0.8400, abs=1e-4)

    def test_identical(self):
        assert jaro_winkler("fleet", "fleet") == 1.0

    def test_empty_conventions(self):
        assert jaro_winkler("", "") == 1.0
        assert jaro_winkler("", "abc") == 0.0
        assert jaro_winkler("abc", "") == 0.0

    def test_no_matches(self):
        assert jaro("abc", "xyz") == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetric_and_bounded(self, a, b):
        s = jaro_winkler(a, b)
        assert s == pytest.approx(jaro_winkler(b, a))
        assert 0.0 <= s <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.text(min_size=1, max_size=12))
    def test_identity(self, a):
        assert jaro_winkler(a, a) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.text(min_size=1, max_size=10), st.text(min_size=1, max_size=10))
    def test_one_only_for_equal(self, a, b):
        if a != b:
            assert jaro_winkler(a, b) < 1.0


class TestObjectiveSimilarity:
    def test_identical_sources_score_one(self, inst):
        src = "maximize sum(j in J, k in K) u_hat[j,k]"
        assert text_similarity(src, src) == 1.0
        assert result_similarity(parse(src), parse(src), inst) == 1.0

    def test_equivalent_rewrites(self, inst):
        a = parse("maximize sum(j in J, k in K) u_hat[j,k]")
        b = parse("maximize sum(k in K, j in J)   u_hat[j, k]")
        assert result_similarity(a, b, inst) == 1.0
        assert exact_equivalent(a, b, inst)
        assert text_similarity(a.source, b.source) < 1.0

    def test_filtered_variant_scores_below_one(self, inst):
        full = parse("maximize sum(j in J, k in K) u_hat[j,k]")
        part = parse("maximize sum(j in J, k in K if k > 0) u_hat[j,k]")
        assert result_similarity(part, full, inst) < 1.0
        assert not exact_equivalent(part, full, inst)

    def test_whitespace_normalization(self):
        assert normalize_source("  a\n\t b   c ") == "a b c"
        assert text_similarity("maximize  x[0,8,0]", "maximize x[0,8,0]") == 1.0

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetopt.agent import AgentConfig, ReplayClient, build_agent_model, indicator_generate
from fleetopt.dsl import (
    DslError,
    canonicalize,
    check,
    ground_truth_catalog,
    linear_entries,
    nonlinear_entries,
    parse,
)
from fleetopt.bench.synth import SynthConfig, generate_world
from fleetopt.fleet import Decision, FleetInstance, decision_values, decision_variable_names
from fleetopt.forest import TrainConfig, train

from dsl_oracle import oracle_evaluate


def evaluate(ast, instance, decision) -> float:
    """The objective's value at a decision, read off its canonical form
    as the agent loop reads it."""
    return canonicalize(ast, instance).evaluate(decision_values(instance, decision))


def is_linear(form) -> bool:
    """No product and no abs() term in a canonical form."""
    return not form.abs_forms and all(len(tokens) <= 1 for _, tokens in form.monomials)


def validate_catalog(instance) -> None:
    """Parse and check every entry against an instance; raises on the
    first failure and checks the recorded linearity flags against the
    canonical form's."""
    for entry in ground_truth_catalog():
        form, diagnostics = check(entry.ast(), instance)
        if form is None:
            raise ValueError(f"catalog entry {entry.query!r} rejected: {diagnostics}")
        if is_linear(form) != entry.linear:
            raise ValueError(
                f"catalog entry {entry.query!r} flagged linear={entry.linear} "
                f"but its canonical form has linear={is_linear(form)}"
            )


def tiny_instance():
    return FleetInstance(
        supply_areas=(0, 1),
        demand_areas=(8, 9),
        soc_levels=3,
        supply=[[2, 1, 3], [0, 2, 2]],
        demand=[[1, 2, 0], [2, 0, 1]],
        distance_km=[[4.0, 2.0], [3.0, 1.0]],
    )


@functools.cache
def desk_instance():
    """Day 3 of the benchmark's desk world: 8 supply areas, 3 demand
    areas and 3 charge levels."""
    return generate_world(SynthConfig(seed=42)).instance(3)


@pytest.fixture
def inst():
    return tiny_instance()


def random_decision(rng, inst):
    return Decision(
        x=rng.integers(0, 3, (inst.n_supply, inst.n_demand, inst.soc_levels)),
        u_hat=rng.uniform(*inst.fare_bounds, (inst.n_demand, inst.soc_levels)),
    )


class TestParse:
    def test_allocation_sum(self, inst):
        ast = parse("maximize sum(i in I, j in J, k in K) x[i,j,k]")
        assert ast.sense == "max"
        form, diagnostics = check(ast, inst)
        assert diagnostics == [] and is_linear(form)
        assert {len(tokens) for _, tokens in form.monomials} == {1}

    def test_fare_sum(self, inst):
        ast = parse("minimize sum(j in J, k in K) u[j,k]")
        assert ast.sense == "min"
        assert is_linear(check(ast, inst)[0])

    def test_arity_violation_is_a_parse_error(self):
        with pytest.raises(DslError, match="3 indices"):
            parse("maximize sum(i in I) x[i]")

    def test_unbound_index(self):
        with pytest.raises(DslError, match="unbound"):
            parse("maximize x[i,j,k]")

    def test_syntax_error_carries_position(self):
        with pytest.raises(DslError) as exc:
            parse("maximize sum(i in I x[i,0,0]")
        assert exc.value.line == 1 and exc.value.col > 0

    def test_empty_source(self):
        with pytest.raises(DslError):
            parse("   ")

    def test_filter_and_literal_indices(self, inst):
        ast = parse("maximize sum(i in I, j in J, k in K if k > 0) x[i,j,k]")
        assert check(ast, inst)[1] == []
        ast = parse("maximize sum(i in I, j in J) x[i,j,2]")
        assert check(ast, inst)[1] == []


class TestSafeguard:
    """The gate a generated objective passes: what its text decides is a
    parse error with a position, and what the instance decides comes
    from :func:`check`, one diagnostic at a time."""

    def test_unknown_identifier(self, inst):
        with pytest.raises(DslError, match="unknown identifier 'y'") as exc:
            parse("maximize sum(i in I) y[i]")
        assert (exc.value.line, exc.value.col) == (1, 22)

    def test_degree_three_rejected(self, inst):
        src = "maximize sum(i in I, j in J, k in K) (x[i,j,k]*x[i,j,k]*x[i,j,k])"
        form, diagnostics = check(parse(src), inst)
        assert form is None
        assert diagnostics == ["decision degree exceeds 2 after expansion"]

    def test_abs_of_quadratic_rejected(self, inst):
        src = "minimize sum(j in J, k in K) abs(u_hat[j,k] * sum(i in I) x[i,j,k])"
        form, diagnostics = check(parse(src), inst)
        assert form is None and diagnostics == ["expected an affine form"]

    def test_dispatching_efficiency_is_nonlinear(self, inst):
        src = "maximize sum(i in I, j in J, k in K) ((u[j,k] - w[i,j]) * x[i,j,k])"
        form, diagnostics = check(parse(src), inst)
        assert diagnostics == [] and not is_linear(form)
        assert max(len(tokens) for _, tokens in form.monomials) == 2

    def test_index_set_mismatch(self, inst):
        with pytest.raises(DslError, match="x index 1 ranges over I, got a variable "
                                           "bound to J") as exc:
            parse("maximize sum(i in I, j in J, k in K) x[j,i,k]")
        assert (exc.value.line, exc.value.col) == (1, 40)

    def test_a_rejected_objective_gets_one_diagnostic(self, inst):
        # the first rule broken in reading order, with its position
        src = "maximize sum(i in I, j in J) (x[j,i,0] * abs(x[i,j,0]) * qux * u_hat[i,0])"
        with pytest.raises(DslError) as exc:
            parse(src)
        assert str(exc.value) == (
            "x index 1 ranges over I, got a variable bound to J (line 1, column 33)"
        )
        src = "maximize sum(i in I, j in J) (x[i,j,0] * abs(x[i,j,0]) * u_hat[j,0])"
        assert check(parse(src), inst) == (
            None, ["abs() terms may not appear inside products"]
        )

    def test_index_arithmetic_is_checked_at_expansion(self):
        inst = desk_instance()
        src = "maximize sum(i in I, j in J, k in K if k > 0) x[i,j,k-1]"
        form, diagnostics = check(parse(src), inst)
        assert diagnostics == [] and is_linear(form)
        shifted = canonicalize(parse(src), inst)
        low = canonicalize(parse("maximize sum(i in I, j in J, k in K if k < 2) x[i,j,k]"), inst)
        assert shifted.monomials == low.monomials
        result = indicator_generate("q", inst, guide="llm", client=ReplayClient([src]))
        assert result.attempts == 1 and result.source == src

    def test_reserialized_acceptance_is_stable(self, inst):
        for entry in ground_truth_catalog():
            again = parse(entry.source)
            assert check(again, inst)[1] == []


@functools.cache
def gate_world(name):
    """A day instance, a small forest and the day's exogenous values: desk
    day 3, or day 3 of a world with two charge levels."""
    if name == "desk":
        world = generate_world(SynthConfig(seed=42))
    else:
        world = generate_world(SynthConfig(seed=5, n_supply=3, n_demand=2, soc_levels=2))
    forest = train(world.training_rows(), TrainConfig(n_trees=3, max_depth=3, seed=1),
                   world.schema())
    return world.instance(3), forest, world.days[3].exogenous()


# reply -> accepted on (desk day 3, the two-level world); desk's demand
# areas are 8-10 and the two-level world's 3-4
GATE_REPLIES = {
    "maximize sum(j in J, k in K) (u_hat[j,k]*u_hat[j,k])": (False, False),
    "maximize sum(i in I, j in J, k in K) (x[i,j,k]*x[i,j,k])": (False, False),
    "maximize abs(x[0,8,0] - 1)": (False, False),
    "maximize x[0,99,0]": (False, False),
    "maximize sum(i in I, j in J) x[i,j,2]": (True, False),
    "minimize 2 * abs(x[0,3,0] - 1)": (False, True),
    "minimize 2 * abs(x[0,8,0] - 1)": (True, False),
    "maximize sum(i in I, j in J, k in K) (x[i,j,k]*u_hat[j,k])": (True, True),
    "maximize sum(i in I, j in J, k in K if k > 0) x[i,j,k-1]": (True, True),
}


class TestGate:
    @pytest.mark.parametrize("world", ["desk", "two-level"])
    @pytest.mark.parametrize("source", list(GATE_REPLIES))
    def test_check_accepts_exactly_what_the_agent_model_builds(self, world, source):
        inst, forest, exogenous = gate_world(world)
        form, diagnostics = check(parse(source), inst)
        assert (form is not None) == GATE_REPLIES[source][world != "desk"]
        try:
            build_agent_model(inst, forest, exogenous, parse(source), AgentConfig())
        except DslError as err:
            assert form is None and diagnostics == [str(err)]
        else:
            assert form is not None and diagnostics == []
        # a chat reply the gate rejects is re-prompted with its diagnostic
        fallback = "maximize sum(i in I, j in J, k in K) x[i,j,k]"
        client = ReplayClient([source, fallback])
        result = indicator_generate("q", inst, guide="llm", client=client)
        if form is not None:
            assert result.attempts == 1 and result.source == source
        else:
            assert result.attempts == 2 and result.source == fallback
            retry = client.transcript[1]["request"]["messages"][-1]["content"]
            assert diagnostics[0] in retry


class TestCanonicalize:
    def test_level_weights_expand(self, inst):
        cf = canonicalize(parse("maximize sum(k in K) ((k + 1) * x[0,8,k])"), inst)
        assert [m[0] for m in cf.monomials] == [1.0, 2.0, 3.0]

    def test_binding_order_is_immaterial(self, inst):
        a = canonicalize(parse("maximize sum(j in J, k in K) u_hat[j,k]"), inst)
        b = canonicalize(parse("maximize sum(k in K, j in J) u_hat[j,k]"), inst)
        assert a.as_string() == b.as_string()

    def test_filtered_variant_drops_bottom_level(self, inst):
        full = canonicalize(parse("maximize sum(j in J, k in K) u_hat[j,k]"), inst)
        part = canonicalize(
            parse("maximize sum(j in J, k in K if k > 0) u_hat[j,k]"), inst
        )
        full_tokens = {m[1] for m in full.monomials}
        part_tokens = {m[1] for m in part.monomials}
        dropped = {t[0] for t in full_tokens - part_tokens}
        assert dropped == {"u_hat[8,0]", "u_hat[9,0]"}

    def test_idempotent_under_reparse(self, inst):
        for entry in ground_truth_catalog():
            once = canonicalize(parse(entry.source), inst)
            twice = canonicalize(parse(entry.source), inst)
            assert once.as_string() == twice.as_string()

    def test_index_rename_invariance(self, inst):
        a = canonicalize(
            parse("maximize sum(i in I, j in J, k in K) (k * x[i,j,k])"), inst
        )
        b = canonicalize(
            parse("maximize sum(p in I, q in J, r in K) (r * x[p,q,r])"), inst
        )
        assert a.as_string() == b.as_string()

    def test_an_unknown_identifier_is_a_dsl_error(self, inst):
        # the parser rejects it, so no such atom reaches canonicalize
        for src in ("maximize x[0,8,0] + foo", "maximize foo[0, 8]"):
            with pytest.raises(DslError, match="unknown identifier 'foo'"):
                canonicalize(parse(src), inst)

    def test_tokens_are_the_decision_variable_names(self, inst):
        cf = canonicalize(parse(
            "maximize sum(i in I, j in J, k in K) x[i,j,k] + sum(j in J, k in K) u[j,k]"
        ), inst)
        assert [tokens for _, tokens in cf.monomials] == [()] + [
            (name,) for name in sorted(decision_variable_names(inst))
        ]

    def test_parameters_fold_to_constants(self, inst):
        cf = canonicalize(
            parse("minimize sum(i in I, k in K) (S[i,k] - sum(j in J) x[i,j,k])"), inst
        )
        const = [m for m in cf.monomials if not m[1]]
        assert const and const[0][0] == float(inst.supply.sum())


class TestEvaluate:
    def test_allocation_total(self, inst):
        rng = np.random.default_rng(0)
        dec = random_decision(rng, inst)
        ast = parse("maximize sum(i in I, j in J, k in K) x[i,j,k]")
        assert evaluate(ast, inst, dec) == float(dec.x.sum())

    def test_average_travel_price_value(self, inst):
        dec = Decision(x=np.zeros((2, 2, 3)), u_hat=np.full((2, 3), 10.0))
        ast = parse("minimize sum(j in J, k in K) u[j,k]")
        # u = 0.2 * 10 + 5 = 7 summed over six (j, k) cells
        assert evaluate(ast, inst, dec) == pytest.approx(42.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_canonical_dot_product(self, seed):
        # evaluate sums the canonical monomials; the oracle walks the AST
        rng = np.random.default_rng(seed)
        for inst in (tiny_instance(), desk_instance()):
            dec = random_decision(rng, inst)
            for entry in ground_truth_catalog():
                ast = entry.ast()
                assert evaluate(ast, inst, dec) == pytest.approx(
                    oracle_evaluate(ast, inst, dec), rel=1e-12, abs=1e-9
                )


class TestCatalog:
    def test_eighteen_entries_with_three_nonlinear(self):
        assert len(ground_truth_catalog()) == 18
        assert len(linear_entries()) == 15
        assert len(nonlinear_entries()) == 3

    def test_all_entries_validate(self, inst):
        validate_catalog(inst)

    def test_nonlinear_set(self):
        names = {e.query for e in nonlinear_entries()}
        assert names == {
            "Dispatching efficiency of taxis",
            "Supply-demand matching degree of taxis",
            "Market share of taxis",
        }

    def test_shared_formulas_stay_distinct_entries(self):
        sources = [e.source for e in ground_truth_catalog()]
        # several queries intentionally share one formula
        assert len(set(sources)) < len(sources)

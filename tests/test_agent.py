import json

import numpy as np
import pytest

from fleetopt.agent import (
    AgentConfig,
    AgentError,
    DeterministicGuide,
    GuideContext,
    HistoryRecord,
    HistoryStore,
    LlmGuide,
    ReplayClient,
    fixed_fraction,
    indicator_generate,
    problem_match,
    render_indicator,
    render_tailor,
    response_format,
    run_agent,
    sensitivity_scores,
)
from fleetopt.agent.llm import extract_json_array, save_transcript
from fleetopt.agent.loop import relative_improvement
from fleetopt.dsl import DslError, canonicalize, parse
from fleetopt.fleet import Decision, FleetInstance, decision_variable_names
from fleetopt.forest import FeatureSchema, Forest, TrainConfig, TreeNode

from dsl_oracle import oracle_evaluate


@pytest.fixture
def inst():
    return FleetInstance(
        supply_areas=(0, 1), demand_areas=(8, 9), soc_levels=2,
        supply=[[2, 1], [1, 2]], demand=[[1, 1], [2, 0]],
        distance_km=[[4.0, 2.0], [3.0, 1.0]],
    )


def make_history(inst, decisions, objective=100.0):
    names = tuple(decision_variable_names(inst))
    records = [
        HistoryRecord(
            date=f"2016-01-{i + 1:02d}",
            features={"temperature": 15.0, "dew_point": 10.0, "day_of_week": float(i % 7)},
            decision=d,
            objective=objective,
        )
        for i, d in enumerate(decisions)
    ]
    return HistoryStore(variable_names=names, records=records)


def per_column_stats(history, inst):
    """``HistoryStore.stats`` as a loop over the columns, bit for bit."""
    from fleetopt.fleet import decision_to_vector

    mat = np.vstack([decision_to_vector(inst, r.decision) for r in history.records])
    return {
        name: {
            "mean": float(mat[:, pos].mean()),
            "std": float(mat[:, pos].std()),
            "min": float(mat[:, pos].min()),
            "max": float(mat[:, pos].max()),
        }
        for pos, name in enumerate(history.variable_names)
    }


def varied_history(inst, seed=0, n=6):
    rng = np.random.default_rng(seed)
    decisions = []
    for _ in range(n):
        x = np.minimum(
            rng.integers(0, 2, (inst.n_supply, inst.n_demand, inst.soc_levels)),
            inst.supply[:, None, :],
        )
        u = rng.uniform(8.0, 16.0, (inst.n_demand, inst.soc_levels))
        decisions.append(Decision(x=x, u_hat=u))
    return make_history(inst, decisions)


def make_forest(inst):
    names = ("temperature", "dew_point", "day_of_week") + tuple(
        decision_variable_names(inst)
    )
    schema = FeatureSchema(names=names, n_exogenous=3)
    x0 = schema.index(f"x[0,8,0]")
    tree = TreeNode(feature=x0, threshold=0.5,
                    left=TreeNode(value=5.0), right=TreeNode(value=12.0))
    tree2 = TreeNode(feature=0, threshold=15.0,
                     left=TreeNode(value=4.0), right=TreeNode(value=10.0))
    return Forest(trees=[tree, tree2], schema=schema, config=TrainConfig(), seed=0)


EXOG = {"temperature": 20.0, "dew_point": 12.0, "day_of_week": 2.0}


class TestProblemMatch:
    def test_taxi_query_routes_to_taxi_agent(self):
        match = problem_match("How to improve the electric taxi dispatching efficiency?")
        assert match.agent_id == "taxi-fleet"
        assert not match.low_confidence

    def test_unrelated_query_gets_default_with_flag(self):
        match = problem_match("optimize the warehouse shelving layout")
        assert match.low_confidence


class TestIndicatorGenerate:
    def test_verbatim_catalog_query(self, inst):
        result = indicator_generate(
            "Number of pre-allocated taxis", inst, guide="deterministic"
        )
        assert result.matched_query == "Number of pre-allocated taxis"
        from fleetopt.dsl import text_similarity

        assert text_similarity(result.source, result.source) == 1.0

    def test_catalog_ast_is_parsed_once(self, inst, monkeypatch):
        from fleetopt.dsl import catalog as catalog_mod
        from fleetopt.dsl.catalog import find_entry

        entry = find_entry("Number of pre-allocated taxis")
        first = indicator_generate(entry.query, inst, guide="deterministic")
        # the entry's AST is built; a later request parses nothing
        monkeypatch.setattr(catalog_mod, "parse", lambda source: 1 / 0)
        again = indicator_generate(entry.query, inst, guide="deterministic")
        assert again.ast is first.ast is entry.ast()
        assert first.ast == parse(entry.source)

    def test_paraphrase_matches_nearest_entry(self, inst):
        result = indicator_generate(
            "what is the number of pre-allocated taxis today", inst,
            guide="deterministic",
        )
        assert result.matched_query == "Number of pre-allocated taxis"

    def test_catalog_match_equals_the_first_best_score(self, inst, monkeypatch):
        from fleetopt.agent import indicator
        from fleetopt.dsl.catalog import CatalogEntry, ground_truth_catalog
        from fleetopt.dsl.similarity import jaro_winkler, normalize_source

        catalog = ground_truth_catalog()
        first = catalog[0]
        # a repeated query: the first of the equal entries is picked
        doubled = (CatalogEntry(first.query, first.source, first.linear),) + catalog
        queries = [e.query for e in catalog] + [
            "  number OF pre-allocated   taxis ", "average fare", "taxis", "x",
        ]
        for cat in (catalog, doubled):
            for query in queries:
                norm = normalize_source(query).lower()
                want = max(
                    cat, key=lambda e: jaro_winkler(norm, normalize_source(e.query).lower())
                )
                got = indicator_generate(query, inst, guide="deterministic", catalog=cat)
                assert got.matched_query == want.query and got.source == want.source
        # an equal key is found before any string is scored
        monkeypatch.setattr(indicator, "jaro_winkler", lambda a, b: 1 / 0)
        got = indicator_generate(" Number of pre-allocated  TAXIS", inst, guide="deterministic")
        assert got.matched_query == "Number of pre-allocated taxis"

    def test_llm_guide_retries_with_diagnostic(self, inst):
        client = ReplayClient([
            "maximize sum(i in I) y[i]",  # unknown identifier
            "maximize sum(i in I, j in J, k in K) x[i,j,k]",
        ])
        result = indicator_generate(
            "count the repositioned taxis", inst, guide="llm", client=client
        )
        assert result.attempts == 2
        # the retry message carries the parser's diagnostic
        retry_messages = client.transcript[1]["request"]["messages"]
        assert any("unknown identifier" in m["content"] for m in retry_messages)

    def test_llm_guide_retries_after_a_parse_error(self, inst):
        broken = "maximize sum(i in I x[i,0,0]"
        client = ReplayClient([broken, "maximize sum(i in I, j in J, k in K) x[i,j,k]"])
        result = indicator_generate("count", inst, guide="llm", client=client)
        assert result.attempts == 2
        with pytest.raises(DslError) as exc:
            parse(broken)
        retry = client.transcript[1]["request"]["messages"][-1]["content"]
        assert str(exc.value) in retry

    def test_llm_guide_exhausts_attempts(self, inst):
        client = ReplayClient(["nonsense"] * 3)
        with pytest.raises(AgentError) as exc:
            indicator_generate("anything", inst, guide="llm", client=client)
        assert exc.value.transcript  # structured failure carries the exchanges

    def test_a_capitalized_sense_keyword_is_read(self, inst):
        client = ReplayClient(["Objective: Maximize sum(i in I, j in J, k in K) x[i,j,k]\n"
                               "It counts every move."])
        result = indicator_generate("count", inst, guide="llm", client=client)
        assert result.attempts == 1
        assert result.source == "maximize sum(i in I, j in J, k in K) x[i,j,k]"

    def test_fenced_reply_is_extracted(self, inst):
        client = ReplayClient([
            "Here you go:\n```\nmaximize sum(i in I, j in J, k in K) x[i,j,k]\n```",
        ])
        result = indicator_generate("count", inst, guide="llm", client=client)
        assert result.attempts == 1


class TestDeterministicGuide:
    def test_constant_absent_variable_fixed_first(self, inst):
        rng = np.random.default_rng(1)
        decisions = []
        for _ in range(5):
            x = np.zeros((2, 2, 2), dtype=int)
            x[0, 0, 0] = int(rng.integers(0, 3))  # x[0,8,0] varies
            u = np.full((2, 2), 10.0)
            u[0, 0] = rng.uniform(5, 20)  # u_hat[8,0] varies
            decisions.append(Decision(x=x, u_hat=u))
        history = make_history(inst, decisions)
        ast = parse("maximize sum(i in I, j in J, k in K) x[i,j,k]")
        context = GuideContext(
            query="q", instance=inst, history=history,
            canonical=canonicalize(ast, inst), iteration=3,
            previous_active=(), previous_score=0.0,
        )
        guide = DeterministicGuide()
        proposal = guide.propose(context)
        # at the 75% stage only the top quarter stays active
        assert len(proposal.keep_active) == int(np.ceil(0.25 * 12))
        assert "x[0,8,0]" in proposal.keep_active

    def test_objective_bonus_breaks_ties(self, inst):
        # all variables constant across history; only the objective bonus
        # separates them
        decisions = [
            Decision(x=np.zeros((2, 2, 2)), u_hat=np.full((2, 2), 10.0))
            for _ in range(3)
        ]
        history = make_history(inst, decisions)
        ast = parse("minimize sum(j in J, k in K) u[j,k]")
        context = GuideContext(
            query="q", instance=inst, history=history,
            canonical=canonicalize(ast, inst), iteration=1,
            previous_active=(), previous_score=0.0,
        )
        scores = sensitivity_scores(context)
        for name in history.variable_names:
            if name.startswith("u_hat"):
                assert scores[name] == pytest.approx(0.5)
            else:
                assert scores[name] == 0.0
        proposal = DeterministicGuide().propose(context)
        # keep count at 25% fixing: ceil(0.75 * 12) = 9, all fares kept
        assert all(f"u_hat[{j},{k}]" in proposal.keep_active
                   for j in (8, 9) for k in (0, 1))

    def test_schedule_carries_last_entry_forward(self):
        assert fixed_fraction((0.25, 0.5, 0.75), 1) == 0.25
        assert fixed_fraction((0.25, 0.5, 0.75), 3) == 0.75
        assert fixed_fraction((0.25, 0.5, 0.75), 9) == 0.75

    def test_proposal_sizes_follow_schedule(self, inst):
        history = varied_history(inst)
        ast = parse("maximize sum(i in I, j in J, k in K) x[i,j,k]")
        cf = canonicalize(ast, inst)
        guide = DeterministicGuide()
        n = len(history.variable_names)
        for t, rho in ((1, 0.25), (2, 0.5), (3, 0.75), (5, 0.75)):
            context = GuideContext(
                query="q", instance=inst, history=history, canonical=cf,
                iteration=t, previous_active=(), previous_score=0.0,
            )
            assert len(guide.propose(context).keep_active) == int(
                np.ceil((1 - rho) * n)
            )


class TestLlmGuide:
    def context(self, inst):
        history = varied_history(inst)
        ast = parse("maximize sum(i in I, j in J, k in K) x[i,j,k]")
        return GuideContext(
            query="q", instance=inst, history=history,
            canonical=canonicalize(ast, inst), iteration=1,
            previous_active=(), previous_score=0.0,
        )

    def test_unknown_names_dropped_with_note(self, inst):
        reply = json.dumps(["x[0,8,0]", "x[1,9,1]", "u_hat[8,0]", "bogus"])
        guide = LlmGuide(ReplayClient([reply]))
        proposal = guide.propose(self.context(inst))
        assert set(proposal.keep_active) == {"x[0,8,0]", "x[1,9,1]", "u_hat[8,0]"}
        assert any("unknown" in note for note in proposal.notes)

    def test_malformed_then_valid(self, inst):
        guide = LlmGuide(ReplayClient([
            "no json here", "still nothing", json.dumps(["x[0,8,0]"])
        ]))
        proposal = guide.propose(self.context(inst))
        assert proposal.keep_active == ("x[0,8,0]",)
        assert sum("no JSON array" in n for n in proposal.notes) == 2

    def test_a_reply_of_unknown_names_is_retried(self, inst):
        client = ReplayClient([json.dumps(["bogus"]), json.dumps(["x[0,8,0]"])])
        proposal = LlmGuide(client).propose(self.context(inst))
        assert proposal.keep_active == ("x[0,8,0]",)
        assert proposal.rationale == "chat guide reply, attempt 2"
        assert proposal.notes == (
            "dropped 1 unknown names: ['bogus']",
            "attempt 1: no valid names in reply",
        )
        retry = client.transcript[1]["request"]["messages"][-1]["content"]
        assert "Every name was unknown" in retry

    def test_exhausted_tape_falls_back_deterministic(self, inst):
        guide = LlmGuide(ReplayClient([]))
        proposal = guide.propose(self.context(inst))
        assert proposal.keep_active  # deterministic fallback proposal
        assert any("fell back" in note for note in proposal.notes)

    def test_replay_is_reproducible(self, inst):
        reply = json.dumps(["x[0,8,0]", "u_hat[9,1]"])
        a = LlmGuide(ReplayClient([reply])).propose(self.context(inst))
        b = LlmGuide(ReplayClient([reply])).propose(self.context(inst))
        assert a.keep_active == b.keep_active


def satisfaction_score(ast, inst, decision, baseline):
    """The loop's score of ``decision``, with both query values read off
    the objective's AST rather than its canonical form."""
    return relative_improvement(
        ast.sense, oracle_evaluate(ast, inst, decision), oracle_evaluate(ast, inst, baseline)
    )


class TestSatisfactionScore:
    def test_max_sense(self, inst):
        ast = parse("maximize sum(i in I, j in J, k in K) x[i,j,k]")
        base = Decision(x=np.zeros((2, 2, 2)), u_hat=np.full((2, 2), 10.0))
        x = np.zeros((2, 2, 2), dtype=int)
        x[0, 0, 0] = 2
        new = Decision(x=x, u_hat=np.full((2, 2), 10.0))
        # baseline value 0 -> absolute mode
        assert satisfaction_score(ast, inst, new, base) == pytest.approx(2.0)

    def test_relative_max(self, inst):
        ast = parse("minimize sum(j in J, k in K) u[j,k]")
        base = Decision(x=np.zeros((2, 2, 2)), u_hat=np.full((2, 2), 10.0))
        better = Decision(x=np.zeros((2, 2, 2)), u_hat=np.full((2, 2), 5.0))
        # min sense: f_hist = 4*(0.2*10+5) = 28, f_new = 4*6 = 24
        assert satisfaction_score(ast, inst, better, base) == pytest.approx(4 / 28)

    def test_min_sense_sign_convention(self, inst):
        ast = parse("minimize sum(j in J, k in K) u[j,k]")
        base = Decision(x=np.zeros((2, 2, 2)), u_hat=np.full((2, 2), 10.0))
        worse = Decision(x=np.zeros((2, 2, 2)), u_hat=np.full((2, 2), 20.0))
        assert satisfaction_score(ast, inst, worse, base) < 0


class TestPrompts:
    def test_indicator_prompt_has_no_placeholders(self):
        messages = render_indicator(
            "my query", [("q1", "maximize x[0,8,0]")]
        )
        text = json.dumps(messages)
        assert "{query}" not in text and "{grammar}" not in text
        assert "my query" in text

    def test_tailor_prompt_has_no_placeholders(self):
        stats = {"x[0,8,0]": {"mean": 1.0, "std": 0.5, "min": 0.0, "max": 2.0}}
        messages = render_tailor(
            "q", 2, 3, stats, ("x[0,8,0]",), 0.25
        )
        text = json.dumps(messages)
        for placeholder in ("{query}", "{stats}", "{prev_active}", "{keep_count}"):
            assert placeholder not in text


class TestRunAgent:
    def test_single_iteration_when_t_max_one(self, inst):
        history = varied_history(inst)
        forest = make_forest(inst)
        cfg = AgentConfig(t_max=1)
        trace = run_agent("Number of pre-allocated taxis", inst, EXOG, forest,
                          history, cfg)
        assert len(trace.iterations) == 1
        assert trace.best_score == max(0.0, trace.iterations[0].score)

    def test_all_active_proposal_equals_full_solve(self, inst):
        history = varied_history(inst)
        forest = make_forest(inst)
        cfg = AgentConfig(t_max=1, fixed_fractions=(0.0,))
        trace = run_agent("Number of pre-allocated taxis", inst, EXOG, forest,
                          history, cfg)
        assert trace.iterations[0].fixed_values == {}
        # the FULL feature model on this forest allocates at least one taxi
        from fleetopt.fleet_mip import build_feature_mip
        from fleetopt.mip import branch_and_bound

        full = branch_and_bound(build_feature_mip(inst, forest, EXOG))
        assert trace.iterations[0].g_value == pytest.approx(
            full.objective_value, abs=1e-6
        )

    def test_node_limit_stop_is_scored_like_a_time_limit(self, inst, monkeypatch):
        from fleetopt.agent import loop
        from fleetopt.mip import NODE_LIMIT

        real = loop.lexicographic_solve

        def stopped_at_node_limit(problem, cfg=None):
            sol = real(problem, cfg)
            sol.status = NODE_LIMIT
            return sol

        monkeypatch.setattr(loop, "lexicographic_solve", stopped_at_node_limit)
        trace = run_agent("Number of pre-allocated taxis", inst, EXOG,
                          make_forest(inst), varied_history(inst), AgentConfig(t_max=1))
        (it,) = trace.iterations
        assert it.status == NODE_LIMIT
        assert it.score is not None and it.g_value is not None

    def test_trace_is_reproducible(self, inst):
        history = varied_history(inst)
        forest = make_forest(inst)
        cfg = AgentConfig(t_max=3)
        a = run_agent("Service level of taxis", inst, EXOG, forest, history, cfg)
        b = run_agent("Service level of taxis", inst, EXOG, forest, history, cfg)
        assert a.to_dict() == b.to_dict()
        # the repeat takes every stage 1 from the memo, and says so only
        # outside the trace's document
        reuses = [sum(r.stage1_reused for r in t.iterations) for t in (a, b)]
        assert reuses[0] < reuses[1] == len(b.iterations)
        assert "stage1_reused" not in json.dumps(b.to_dict())

    def test_loop_contract(self, inst):
        history = varied_history(inst)
        forest = make_forest(inst)
        cfg = AgentConfig(t_max=5)
        trace = run_agent("Number of pre-allocated taxis", inst, EXOG, forest,
                          history, cfg)
        scores = trace.scores
        assert 1 <= len(trace.iterations) <= 5
        # strictly increasing up to the terminal iteration
        for idx in range(1, len(scores) - 1):
            assert scores[idx] > scores[idx - 1]
        assert trace.best_score == pytest.approx(max([0.0] + scores))
        # every fixed value equals the feasible-rounded historical mean
        baseline = history.baseline_decision(inst)
        for record in trace.iterations:
            for name, value in record.fixed_values.items():
                if name.startswith("x["):
                    i, j, k = map(int, name[2:-1].split(","))
                    i_pos = inst.supply_areas.index(i)
                    j_pos = inst.demand_areas.index(j)
                    assert value == float(baseline.x[i_pos, j_pos, k])

    def test_a_round_off_gain_is_no_improvement(self):
        from fleetopt.agent.loop import SCORE_TOL
        from fleetopt.bench import make_history
        from test_model_digests import world_and_forest

        # small world, day 10: iteration 2 scores above iteration 1 only
        # in the last bits, so the loop stops there and keeps iteration 1
        world, forest = world_and_forest("small")
        history = make_history(world, forest, m=6, seed=1)
        trace = run_agent(
            "Supply-demand matching degree of taxis", world.instance(10),
            world.days[10].exogenous(), forest, history, AgentConfig(),
        )
        first, second = trace.scores
        assert 0 < second - first <= SCORE_TOL * max(1.0, abs(first))
        assert len(trace.iterations) == 2
        assert trace.best_iteration == 1 and trace.best_score == first

    @pytest.mark.parametrize("day", [5, 7])
    def test_a_gridded_query_fixes_fares_at_the_snapped_baseline(self, day):
        from fleetopt.bench import make_history
        from fleetopt.fleet import PriceGrid
        from test_model_digests import world_and_forest

        world, forest = world_and_forest("small")
        history = make_history(world, forest, m=6, seed=1)
        inst = world.instance(day)
        cfg = AgentConfig(t_max=1)
        trace = run_agent("Dispatching efficiency of taxis", inst,
                          world.days[day].exogenous(), forest, history, cfg)
        grid = PriceGrid.uniform(inst, cfg.grid_points)
        raw = history.baseline_decision(inst)
        snapped = grid.snap_decision(raw)
        fares = {}  # (j position, k) -> fixed fare
        for name, value in trace.iterations[0].fixed_values.items():
            if name.startswith("u_hat["):
                j, k = map(int, name[6:-1].split(","))
                fares[inst.demand_areas.index(j), k] = value
        assert fares
        for (j_pos, k), value in fares.items():
            assert value == snapped.u_hat[j_pos, k]
            assert value in grid.cell(j_pos, k)
        # the raw baseline is off the grid in at least one fixed fare
        assert any(value != raw.u_hat[pos] for pos, value in fares.items())

    def infeasible_runs(self, inst, monkeypatch, cfg, client=None):
        """``run_agent`` with every solve infeasible: the trace and the
        number of solves."""
        from fleetopt.agent import loop
        from fleetopt.mip import Solution

        solves = []

        def infeasible(problem, cfg=None):
            solves.append(problem)
            return Solution(status="Infeasible")

        monkeypatch.setattr(loop, "lexicographic_solve", infeasible)
        query = "Number of pre-allocated taxis"
        trace = run_agent(
            query, inst, EXOG, make_forest(inst), varied_history(inst), cfg, client=client,
            indicator=indicator_generate(query, inst, guide="deterministic"),
        )
        return trace, len(solves)

    def test_an_infeasible_deterministic_fix_is_solved_once(self, inst, monkeypatch):
        trace, solves = self.infeasible_runs(inst, monkeypatch, AgentConfig(t_max=3))
        (it,) = trace.iterations
        assert solves == 1
        assert it.status == "Infeasible" and it.score is None
        assert not any("re-prompting" in note for note in it.notes)
        assert any("no other proposal" in note for note in it.notes)

    def test_an_infeasible_llm_fix_re_prompts_then_falls_back(self, inst, monkeypatch):
        reply = json.dumps(["x[0,8,0]", "u_hat[9,1]"])
        client = ReplayClient([reply, reply])
        trace, solves = self.infeasible_runs(
            inst, monkeypatch, AgentConfig(t_max=3, guide="llm"), client
        )
        (it,) = trace.iterations
        # the repeated reply is the model already found infeasible, so
        # only the first reply and the fallback are solved
        assert solves == 2 and client.cursor == 2
        assert it.status == "Infeasible"
        assert any("re-prompting once" in note for note in it.notes)
        assert "the new proposal repeats the infeasible one; not solved again" in it.notes
        assert any("falling back to the deterministic guide" in note for note in it.notes)

    def test_a_chat_guide_that_fell_back_is_not_re_prompted(self, inst, monkeypatch):
        # no usable reply: the guide's own fallback is the deterministic
        # proposal, solved once
        trace, solves = self.infeasible_runs(
            inst, monkeypatch, AgentConfig(t_max=3, guide="llm"), ReplayClient([])
        )
        (it,) = trace.iterations
        assert solves == 1
        assert it.status == "Infeasible" and it.score is None
        assert it.g_value is None and it.f_value is None
        assert it.notes == (
            "transport failure: replay transcript exhausted",
            "fell back to the deterministic guide",
            "fix led to an infeasible model; the deterministic guide has no other proposal",
        )

    def test_the_re_prompts_fallback_is_solved_once_and_keeps_its_notes(
        self, inst, monkeypatch
    ):
        reply = json.dumps(["x[0,8,0]", "u_hat[9,1]"])
        client = ReplayClient([reply])
        trace, solves = self.infeasible_runs(
            inst, monkeypatch, AgentConfig(t_max=3, guide="llm"), client
        )
        (it,) = trace.iterations
        assert solves == 2 and client.cursor == 1
        assert it.status == "Infeasible" and it.score is None
        assert it.active != ("u_hat[9,1]", "x[0,8,0]")
        assert it.notes == (
            "fix led to an infeasible model; re-prompting once",
            "previous proposal made the model infeasible",
            "transport failure: replay transcript exhausted",
            "fell back to the deterministic guide",
        )

    @pytest.mark.parametrize("guide, message", [
        ("llm", "the chat guide needs a configured client"),
        ("bogus", "unknown guide kind 'bogus'"),
    ])
    def test_a_guide_that_cannot_run_is_an_error(self, inst, guide, message):
        query = "Number of pre-allocated taxis"
        indicator = indicator_generate(query, inst, guide="deterministic")
        with pytest.raises(AgentError, match=message):
            run_agent(query, inst, EXOG, make_forest(inst), varied_history(inst),
                      AgentConfig(guide=guide), indicator=indicator)

    def test_fixing_never_beats_full_on_primary(self, inst):
        history = varied_history(inst)
        forest = make_forest(inst)
        from fleetopt.fleet_mip import build_feature_mip
        from fleetopt.mip import branch_and_bound

        full = branch_and_bound(build_feature_mip(inst, forest, EXOG))
        cfg = AgentConfig(t_max=4)
        trace = run_agent("Number of pre-allocated taxis", inst, EXOG, forest,
                          history, cfg)
        for record in trace.iterations:
            if record.g_value is not None:
                assert record.g_value <= full.objective_value + 1e-6


class TestResponseFormat:
    def test_no_improvement_keeps_baseline(self, inst):
        history = varied_history(inst)
        forest = make_forest(inst)
        # an objective the model cannot improve: fares start at historical
        # means and the minimum sits below them, but T_max=0 iterations can't run
        cfg = AgentConfig(t_max=1)
        trace = run_agent("Average travel price of taxis", inst, EXOG, forest,
                          history, cfg)
        if trace.best_iteration == 0:
            assert "historical average decision is retained" in trace.response

    def test_moves_and_fares_listed(self, inst):
        history = varied_history(inst)
        forest = make_forest(inst)
        trace = run_agent("Number of pre-allocated taxis", inst, EXOG, forest,
                          history, AgentConfig(t_max=2))
        assert trace.response.startswith("Request:")
        assert "Fares per demand area" in trace.response
        if trace.best_iteration > 0:
            assert "improves the objective" in trace.response

    def test_seeded_run_matches_golden_file(self):
        from fleetopt.bench import SynthConfig, generate_world, make_history
        from fleetopt.forest import TrainConfig, train, train_test_split

        world = generate_world(
            SynthConfig(seed=13, n_supply=3, n_demand=2, soc_levels=3, n_days=40)
        )
        rows = world.training_rows()
        cfg = TrainConfig(n_trees=6, max_depth=3, min_samples_leaf=4, seed=2)
        train_rows, _ = train_test_split(rows, cfg.test_fraction, cfg.seed)
        forest = train(train_rows, cfg, world.schema())
        history = make_history(world, forest, m=6, seed=1)
        trace = run_agent(
            "Number of pre-allocated taxis", world.instance(4),
            world.days[4].exogenous(), forest, history, AgentConfig(t_max=3),
        )
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "agent_response_golden.txt"
        assert trace.response + "\n" == golden.read_text()


class TestHistoryStore:
    def test_json_round_trip(self, inst):
        history = varied_history(inst)
        again = HistoryStore.from_json(history.to_json())
        assert again.to_json() == history.to_json()

    def test_stats_match_direct_recomputation(self, inst):
        history = varied_history(inst)
        from fleetopt.fleet import decision_to_vector

        mat = np.vstack([
            decision_to_vector(inst, r.decision) for r in history.records
        ])
        stats = history.stats(inst)
        for pos, name in enumerate(history.variable_names):
            assert stats[name]["mean"] == pytest.approx(mat[:, pos].mean())
            assert stats[name]["std"] == pytest.approx(mat[:, pos].std())
        assert stats == per_column_stats(history, inst)

    @pytest.mark.parametrize("world, history_m, seed", [("small", 6, 1), ("desk", 14, 3)])
    def test_stats_of_the_perfbench_histories_equal_a_per_column_loop(
        self, world, history_m, seed
    ):
        from fleetopt.bench import make_history
        from test_model_digests import world_and_forest

        w, forest = world_and_forest(world)
        history = make_history(w, forest, m=history_m, seed=seed)
        inst = w.instance(0)
        assert history.stats(inst) == per_column_stats(history, inst)

    def test_baseline_is_supply_feasible(self, inst):
        rng = np.random.default_rng(5)
        # craft decisions whose mean rounds above some supply caps
        decisions = []
        for _ in range(4):
            x = inst.supply[:, None, :] * np.ones((1, 2, 1), dtype=int)
            decisions.append(Decision(x=x, u_hat=np.full((2, 2), 60.0)))
        history = make_history(inst, decisions)
        baseline = history.baseline_decision(inst)
        used = baseline.x.sum(axis=1)
        assert np.all(used <= inst.supply)
        lo, hi = inst.fare_bounds
        assert np.all(baseline.u_hat >= lo) and np.all(baseline.u_hat <= hi)

    def test_needs_at_least_one_record(self, inst):
        with pytest.raises(ValueError):
            HistoryStore(variable_names=("a",), records=[])


class TestTranscripts:
    def test_save_and_replay(self, tmp_path):
        entries = [
            {"request": {"messages": []}, "response_content": "one"},
            {"request": {"messages": []}, "response_content": "two"},
        ]
        path = tmp_path / "transcript.json"
        save_transcript(entries, str(path))
        client = ReplayClient.from_file(str(path))
        assert client.complete([]) == "one"
        assert client.complete([]) == "two"
        from fleetopt.agent import LlmError

        with pytest.raises(LlmError):
            client.complete([])

    def test_extract_json_array(self):
        assert extract_json_array('noise ["a", "b"] more') == ["a", "b"]
        assert extract_json_array("no array") is None
        assert extract_json_array('bad [1, } then ["ok"]') == ["ok"]

    def test_extract_json_array_reads_brackets_in_strings_as_text(self):
        assert extract_json_array('["a]b", "c"]') == ["a]b", "c"]
        assert extract_json_array('say ["[x]", "y"] then ["z"]') == ["[x]", "y"]

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines; the test names alone identify the criteria under
plain ``-v``. Budgets from the criteria are asserted inside the tests.
"""

import itertools
import json
import time

import numpy as np
import pytest

from fleetopt.agent import AgentConfig, run_agent
from fleetopt.agent.indicator import indicator_generate
from fleetopt.agent.loop import build_agent_model, relative_improvement
from fleetopt.bench import (
    BenchConfig,
    SynthConfig,
    generate_world,
    make_history,
    run_cuts_experiment,
    run_efficiency_experiment,
)
from fleetopt.dsl import (
    check,
    ground_truth_catalog,
    jaro_winkler,
    lower_to_mip,
    parse,
    result_similarity,
    text_similarity,
)
from fleetopt.fleet import (
    Decision,
    FleetInstance,
    PriceGrid,
    cascade_fulfill,
    decision_values,
    evaluate_decision,
)
from fleetopt.fleet_mip import (
    build_deterministic_mip,
    build_feature_mip,
    decision_from_solution,
    fulfillment_from_solution,
)
from fleetopt.forest import FeatureSchema, TrainConfig, train, train_test_split
from fleetopt.mip import MipProblem, SolveConfig, branch_and_bound, lexicographic_solve
from fleetopt.mip.cuts import cover_cuts, gomory_cuts
from fleetopt.mip.highs import HighsLp
from fleetopt.mip.problem import Objective
from fleetopt.mip.solver import _objective_on, _reduce, fix_variables

from dsl_oracle import oracle_evaluate


def report(criterion: int, detail: str):
    print(f"\n[acceptance] criterion {criterion}: PASS  {detail}")


# --- shared worlds -------------------------------------------------------

@pytest.fixture(scope="module")
def desk_world():
    world = generate_world(SynthConfig(seed=42))
    rows = world.training_rows()
    cfg = TrainConfig(n_trees=20, max_depth=6, min_samples_leaf=3, seed=7)
    train_rows, _ = train_test_split(rows, cfg.test_fraction, cfg.seed)
    forest = train(train_rows, cfg, world.schema())
    history = make_history(world, forest, m=14, seed=3)
    return world, forest, history


@pytest.fixture(scope="module")
def small_world():
    world = generate_world(
        SynthConfig(seed=13, n_supply=3, n_demand=2, soc_levels=3, n_days=40)
    )
    rows = world.training_rows()
    cfg = TrainConfig(n_trees=6, max_depth=3, min_samples_leaf=4, seed=2)
    train_rows, _ = train_test_split(rows, cfg.test_fraction, cfg.seed)
    forest = train(train_rows, cfg, world.schema())
    history = make_history(world, forest, m=6, seed=1)
    return world, forest, history


# --- criterion 1 ---------------------------------------------------------

def random_tiny_instance(rng):
    n_i = int(rng.integers(1, 6))
    n_j = int(rng.integers(1, 4))
    n_k = 3
    supply = np.zeros((n_i, n_k), dtype=int)
    for _ in range(int(rng.integers(1, 5))):  # at most 4 taxis in total
        supply[rng.integers(0, n_i), rng.integers(0, n_k)] += 1
    return FleetInstance(
        supply_areas=tuple(range(n_i)),
        demand_areas=tuple(range(100, 100 + n_j)),
        soc_levels=n_k,
        supply=supply,
        demand=rng.integers(0, 4, (n_j, n_k)),
        distance_km=rng.uniform(0.2, 9.0, (n_i, n_j)),
        fare_bounds=(1.0, 30.0),
    )


def enumerate_allocations(inst):
    n_i, n_j, n_k = inst.n_supply, inst.n_demand, inst.soc_levels

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    cells = [(i, k) for i in range(n_i) for k in range(n_k) if inst.supply[i, k]]
    options = [
        [alloc[:n_j] for s in [int(inst.supply[i, k])]
         for alloc in compositions(s, n_j + 1)]
        for i, k in cells
    ]
    for combo in itertools.product(*options) if options else [()]:
        x = np.zeros((n_i, n_j, n_k), dtype=int)
        for (i, k), alloc in zip(cells, combo):
            x[i, :, k] = alloc
        yield x


def test_criterion_1_cascade_mip_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for trial in range(200):
        inst = random_tiny_instance(rng)
        grid = PriceGrid.uniform(inst, 1)
        mip = build_deterministic_mip(inst, grid)
        sol = branch_and_bound(mip)
        assert sol.status == "Optimal", (trial, sol.status)
        dec = decision_from_solution(inst, mip, sol)
        d, v = fulfillment_from_solution(inst, mip, sol)
        ful = cascade_fulfill(inst, dec.x)
        assert np.array_equal(ful.d, d), trial
        assert np.array_equal(ful.v, v), trial
        fare = grid.cell(0, 0)[0]
        best = max(
            evaluate_decision(
                inst,
                Decision(x=x, u_hat=np.full((inst.n_demand, inst.soc_levels), fare)),
            )
            for x in enumerate_allocations(inst)
        )
        assert sol.objective_value == pytest.approx(best, abs=1e-6), trial
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    report(1, f"200 instances, exact (d,v) and objective match, {elapsed:.1f}s")


# --- criterion 2 ---------------------------------------------------------

def random_small_mip(rng):
    n_bin = int(rng.integers(4, 9))
    n_int = int(rng.integers(0, 4))
    p = MipProblem()
    for j in range(n_bin):
        p.add_variable(f"b{j}", "binary")
    for j in range(n_int):
        p.add_variable(f"n{j}", "integer", 0, int(rng.integers(2, 6)))
    names = [v.name for v in p.variables]
    for _ in range(int(rng.integers(1, 5))):
        coeffs = {n: int(rng.integers(1, 6)) for n in names}
        total = sum(coeffs[n] * p.variables[p.var_index(n)].ub for n in names)
        p.add_constraint(coeffs, "<=", int(max(1, rng.uniform(0.3, 0.6) * total)))
    p.set_objective("max", {n: int(rng.integers(-2, 7)) for n in names})
    return p


def enumerate_lattice(lb, ub):
    ranges = [np.arange(int(lb[i]), int(ub[i]) + 1) for i in range(len(lb))]
    grids = np.meshgrid(*ranges, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(float)


def feasible_mask(rows, points, tol=1e-9):
    """Which points satisfy every row of a ``CompiledRows`` within tol."""
    act = points @ rows.matrix_t
    mask = np.where(rows.le, act <= rows.rhs + tol, True)
    mask &= np.where(rows.ge, act >= rows.rhs - tol, True)
    return mask.all(axis=1)


def test_criterion_2_solver_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2002)
    configs = [
        SolveConfig(gomory=False),
        SolveConfig(gomory=True),
        SolveConfig(gomory=False, cover=True),
        SolveConfig(gomory=True, cover=True),
    ]
    cut_problems = gomory_problems = 0
    for trial in range(100):
        p = random_small_mip(rng)
        red = _reduce(p)
        if not red.feasible:
            for cfg in configs:
                assert branch_and_bound(p, cfg).status == "Infeasible", trial
            continue
        if len(red.keep) == 0:
            continue
        points = enumerate_lattice(red.lb, red.ub)
        feas = points[feasible_mask(red.rows, points)]
        assert len(feas) > 0, trial
        cost, kept, constant = _objective_on(red, p.objective)
        vals = np.full(len(feas), constant)
        for j in kept:
            vals += cost[j] * feas[:, j]
        best = float(vals.max())
        for cfg in configs:
            sol = branch_and_bound(p, cfg)
            assert sol.status == "Optimal", (trial, cfg)
            assert sol.objective_value == pytest.approx(best, abs=1e-9), (trial, cfg)
        # separate root cuts exactly the way the solver does, then check
        # them against every enumerated integer-feasible point
        lp = HighsLp(cost, red.rows, "max")
        res = lp.solve(red.lb, red.ub)
        if res.status != "Optimal":
            continue
        gomory = gomory_cuts(lp, red.lb, red.ub, red.int_mask, res.x)
        cover = cover_cuts(red.rows, red.binary, res.x)
        gomory_problems += bool(gomory)
        if gomory or cover:
            cut_problems += 1
            for cuts in (gomory, cover):
                assert feasible_mask(cuts, feas, 1e-7).all(), trial
    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"
    assert cut_problems >= 20  # the cut check must have real coverage
    assert gomory_problems >= 20  # and so must Gomory's on its own
    report(2, f"100 MIPs x 4 cut configs exact; cuts validated on "
              f"{cut_problems} problems ({gomory_problems} with Gomory cuts), "
              f"{elapsed:.1f}s")


# --- criterion 3 ---------------------------------------------------------

def test_criterion_3_encoder_fidelity():
    from fleetopt.encoder import embed_forest
    from fleetopt.mip import AffineExpr

    rng = np.random.default_rng(3003)
    # desk-scale forest per the stated configuration: 25 trees, depth 6
    schema = FeatureSchema(names=("d0", "d1"), n_exogenous=0)
    X = rng.integers(0, 20, (300, 2)).astype(float)
    y = np.sin(X[:, 0] / 3.0) * 8 + 0.5 * X[:, 1] - 0.02 * (X[:, 0] - 7) ** 2
    y += rng.normal(0, 0.3, len(y))
    rows = list(zip(X.tolist(), y.tolist()))
    cfg = TrainConfig(n_trees=25, max_depth=6, min_samples_leaf=2, seed=5)
    forest = train(rows, cfg, schema)

    mip = MipProblem()
    exprs = {}
    for f_idx in (0, 1):
        idx = mip.add_variable(f"d{f_idx}", "integer", 0, 19)
        exprs[f_idx] = AffineExpr.of_var(idx)
    bounds = {0: (0, 19), 1: (0, 19)}
    mip.set_objective("max", *embed_forest(mip, forest, {}, exprs, bounds, {0, 1}))

    for _ in range(50):
        a, b = rng.integers(0, 20, 2)
        fixed = fix_variables(mip, {"d0": float(a), "d1": float(b)})
        sol = branch_and_bound(fixed)
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(
            forest.predict([float(a), float(b)]), abs=1e-6
        )

    sol = branch_and_bound(mip)
    assert sol.status == "Optimal"
    grid_max = max(
        forest.predict([float(a), float(b)])
        for a in range(20)
        for b in range(20)
    )  # 400 combinations, within the stated 2000 cap
    assert sol.objective_value == pytest.approx(grid_max, abs=1e-6)
    report(3, "50 fixed decisions and a 400-point free grid match predict()")


# --- criterion 4 ---------------------------------------------------------

def test_criterion_4_fixing_speed_quality(desk_world):
    started = time.perf_counter()
    world, forest, history = desk_world
    n = len(history.variable_names)
    cfg = BenchConfig(
        seed=1,
        eval_days=5,
        queries=(
            "Number of pre-allocated taxis",
            "Average travel price of taxis",
            "Service level of taxis",
            "Scheduled taxi response time",
        ),
        fixed_counts=(n // 2,),
    )
    rep = run_efficiency_experiment(world, forest, history, cfg)
    cells = [r for r in rep.rows if r["rf_gap_pct"] is not None]
    assert len(cells) >= 20, f"only {len(cells)} cells"
    reductions = [t["time_gap_pct"] for t in rep.timings]
    median_reduction = float(np.median(reductions))
    mean_rf_gap = float(np.mean([r["rf_gap_pct"] for r in cells]))
    assert median_reduction >= 25.0, f"median reduction {median_reduction:.1f}%"
    assert mean_rf_gap <= 5.0, f"mean RF gap {mean_rf_gap:.2f}%"
    assert all(r["rf_gap_pct"] >= -1e-6 for r in cells)
    elapsed = time.perf_counter() - started
    assert elapsed <= 600.0, f"took {elapsed:.1f}s"
    report(4, f"{len(cells)} cells: median time cut {median_reduction:.1f}%, "
              f"mean RF gap {mean_rf_gap:.2f}%, {elapsed:.0f}s")


# --- criterion 5 ---------------------------------------------------------

def test_criterion_5_lexicographic_contract():
    started = time.perf_counter()
    rng = np.random.default_rng(5005)
    solved = 0
    for trial in range(50):
        n = int(rng.integers(2, 6))
        p = MipProblem()
        for j in range(n):
            p.add_variable(f"v{j}", "integer", 0, int(rng.integers(1, 5)))
        for _ in range(int(rng.integers(1, 4))):
            p.add_constraint(
                {f"v{j}": int(rng.integers(-3, 5)) for j in range(n)},
                "<=",
                int(rng.integers(2, 12)),
            )
        g = {f"v{j}": int(rng.integers(-4, 6)) for j in range(n)}
        f = {f"v{j}": int(rng.integers(-4, 6)) for j in range(n)}
        p.set_objective("max", g)
        p.set_secondary_objective("max", f)
        sol = lexicographic_solve(p, SolveConfig())
        points = enumerate_lattice(p.lb, p.ub)
        rows = p.rows
        feas = points[feasible_mask(rows, points)]
        if len(feas) == 0:
            assert sol.status == "Infeasible", trial
            continue
        solved += 1
        assert sol.status == "Optimal", trial
        g_obj = Objective("max", p._coerce_coeffs(g))
        f_obj = Objective("max", p._coerce_coeffs(f))
        g_vals = np.array([g_obj.value(pt) for pt in feas])
        g_star = g_vals.max()
        eps = SolveConfig().lex_slack_rel * abs(g_star) + 1e-9
        assert sol.objective_value >= g_star - eps - 1e-9, trial
        best_f = max(f_obj.value(pt) for pt in feas[np.abs(g_vals - g_star) < 1e-9])
        assert sol.secondary_value == pytest.approx(best_f, abs=1e-9), trial
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    report(5, f"{solved} feasible bi-objective MIPs match the restricted "
              f"enumeration exactly, {elapsed:.1f}s")


# --- criterion 6 ---------------------------------------------------------

def test_criterion_6_cuts_comparison_harness(small_world, tmp_path):
    started = time.perf_counter()
    world, forest, history = small_world
    cfg = BenchConfig(seed=2, eval_days=3)
    rep = run_cuts_experiment(world, forest, history, cfg, out_dir=str(tmp_path))
    assert rep.rows
    by_date = {}
    for row in rep.rows:
        by_date.setdefault(row["date"], []).append(row)
    for date, rows in by_date.items():
        assert len({round(r["rf_obj"], 9) for r in rows}) == 1, date
    # Table-V-shaped content: one row per family with objective gaps and
    # node deltas, wall-clock deltas in the sidecar
    families = {r["cuts"] for r in rep.rows}
    assert families == {"NoCuts", "GomoryCuts", "CoverCuts", "GomoryAndCoverCuts"}
    assert all("node_delta" in r for r in rep.rows)
    assert all("time_gap_s" in t for t in rep.timings)
    md = (tmp_path / "cuts_report.md").read_text()
    for family in families:
        assert family in md
    elapsed = time.perf_counter() - started
    assert elapsed <= 300.0, f"took {elapsed:.1f}s"
    report(6, f"4 cut settings x {len(by_date)} days, optima identical, "
              f"{elapsed:.1f}s")


# --- criterion 7 ---------------------------------------------------------

def test_criterion_7_dsl_and_similarity():
    inst = FleetInstance(
        supply_areas=(0, 1, 2),
        demand_areas=(8, 9),
        soc_levels=3,
        supply=[[2, 1, 3], [0, 2, 2], [1, 1, 0]],
        demand=[[1, 2, 1], [2, 0, 1]],
        distance_km=[[4.0, 2.0], [3.0, 1.0], [2.5, 6.0]],
    )
    rng = np.random.default_rng(7007)
    dec = Decision(
        x=np.minimum(rng.integers(0, 3, (3, 2, 3)), inst.supply[:, None, :]),
        u_hat=rng.uniform(*inst.fare_bounds, (2, 3)),
    )
    grid = PriceGrid.uniform(inst, 4)
    for entry in ground_truth_catalog():
        ast = parse(entry.source)
        form, diagnostics = check(ast, inst)
        assert form is not None, (entry.query, diagnostics)
        # linear: no product and no abs() term in the canonical form
        linear = not form.abs_forms and all(len(t) <= 1 for _, t in form.monomials)
        assert linear == entry.linear, entry.query
        value = form.evaluate(decision_values(inst, dec))
        assert np.isfinite(value), entry.query
        mip = build_deterministic_mip(inst, grid)
        lower_to_mip(form, mip)
        assert mip.secondary is not None, entry.query

    full = parse("maximize sum(j in J, k in K) u_hat[j,k]")
    rewrite = parse("maximize sum(k in K, j in J) u_hat[j,k]")
    filtered = parse("maximize sum(j in J, k in K if k > 0) u_hat[j,k]")
    assert result_similarity(rewrite, full, inst) == 1.0
    assert text_similarity(rewrite.source, full.source) < 1.0
    assert result_similarity(filtered, full, inst) < 1.0

    assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.9611, abs=1e-4)
    assert jaro_winkler("DWAYNE", "DUANE") == pytest.approx(0.8400, abs=1e-4)

    for entry in ground_truth_catalog():
        result = indicator_generate(entry.query, inst, guide="deterministic")
        assert text_similarity(result.source, entry.source) == 1.0
        assert result_similarity(result.ast, parse(entry.source), inst) == 1.0
    report(7, "18 objectives parse/validate/evaluate/lower; similarity pinned")


# --- criterion 8 ---------------------------------------------------------

def test_criterion_8_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    from fleetopt.cli import main

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth": {"seed": 21, "n_supply": 3, "n_demand": 2, "soc_levels": 3,
                  "n_days": 30},
        "train": {"n_trees": 5, "max_depth": 3, "min_samples_leaf": 4, "seed": 1},
        "bench": {"seed": 4, "eval_days": 2, "fixed_counts": [0, 9],
                  "queries": ["Number of pre-allocated taxis",
                              "Average travel price of taxis"]},
    }))
    work = tmp_path / "work"
    assert main(["--config", str(config), "gen-data", "--out", str(work)]) == 0
    assert main(["--config", str(config), "train-forest",
                 "--world", str(work / "world.json"), "--out", str(work)]) == 0
    assert main(["--config", str(config), "make-history",
                 "--world", str(work / "world.json"),
                 "--forest", str(work / "forest.json"),
                 "--m", "5", "--seed", "0", "--out", str(work)]) == 0
    outs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        assert main(["--config", str(config), "bench", "efficiency",
                     "--world", str(work / "world.json"),
                     "--forest", str(work / "forest.json"),
                     "--history", str(work / "history.json"),
                     "--out", str(out)]) == 0
        outs.append(out)
    for name in ("efficiency_report.json", "efficiency_report.csv",
                 "efficiency_report.md"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    elapsed = time.perf_counter() - started
    assert elapsed <= 600.0, f"took {elapsed:.1f}s"
    report(8, f"byte-identical efficiency reports across two runs, {elapsed:.0f}s")


# --- criterion 9 ---------------------------------------------------------

def test_criterion_9_agent_loop_contract(small_world):
    world, forest, history = small_world
    queries = (
        "Number of pre-allocated taxis",
        "Average travel price of taxis",
        "Service level of taxis",
        "Scheduled taxi response time",
    )
    days = [0, 7, 14, 21, 28]
    runs = 0
    cfg = AgentConfig(t_max=5)
    for day in days:
        inst = world.instance(day)
        exog = world.days[day].exogenous()
        full = branch_and_bound(build_feature_mip(inst, forest, exog))
        assert full.status == "Optimal"
        for query in queries:
            trace = run_agent(query, inst, exog, forest, history, cfg)
            runs += 1
            assert 1 <= len(trace.iterations) <= cfg.t_max
            scores = trace.scores
            for idx in range(1, len(scores) - 1):
                assert scores[idx] > scores[idx - 1], (day, query, scores)
            assert trace.best_score == pytest.approx(max([0.0] + scores))
            if trace.best_iteration > 0:
                ast = parse(trace.objective_source)
                baseline = history.baseline_decision(inst)
                recomputed = relative_improvement(
                    ast.sense,
                    oracle_evaluate(ast, inst, trace.best_decision),
                    oracle_evaluate(ast, inst, baseline),
                )
                assert recomputed == pytest.approx(trace.best_score, abs=1e-9)
            for record in trace.iterations:
                if record.g_value is not None:
                    assert record.g_value <= full.objective_value + 1e-6
    assert runs == 20
    report(9, f"{runs} seeded runs honor the loop contract")

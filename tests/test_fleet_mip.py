import itertools

import numpy as np
import pytest

from fleetopt.dsl import DslError, canonicalize, lower_to_mip, parse
from fleetopt.fleet import (
    Decision,
    FleetInstance,
    PriceGrid,
    cascade_fulfill,
    decision_to_vector,
    decision_variable_names,
    evaluate_decision,
)
from fleetopt.fleet_mip import (
    build_deterministic_mip,
    build_feature_mip,
    decision_from_solution,
    fulfillment_from_solution,
)
from fleetopt.forest import FeatureSchema, Forest, TrainConfig, TreeNode
from fleetopt.mip import SolveConfig, branch_and_bound, lexicographic_solve
from fleetopt.mip.problem import OPTIMAL, Solution

from dsl_oracle import oracle_evaluate


def tiny_instance():
    return FleetInstance(
        supply_areas=(0,), demand_areas=(1,), soc_levels=1,
        supply=[[2]], demand=[[1]], distance_km=[[4.0]],
    )


def random_instance(rng, n_i=2, n_j=2, n_k=2, max_supply=2, fare_hi=30.0):
    supply = rng.integers(0, max_supply + 1, (n_i, n_k))
    if supply.sum() == 0:
        supply[0, -1] = 1
    return FleetInstance(
        supply_areas=tuple(range(n_i)),
        demand_areas=tuple(range(100, 100 + n_j)),
        soc_levels=n_k,
        supply=supply,
        demand=rng.integers(0, 3, (n_j, n_k)),
        distance_km=rng.uniform(0.5, 8.0, (n_i, n_j)),
        fare_bounds=(1.0, fare_hi),
    )


def enumerate_decisions(inst, grid):
    """All feasible (x, gridded fare) decisions of a small instance."""
    n_i, n_j, n_k = inst.n_supply, inst.n_demand, inst.soc_levels

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    cells = [(i, k) for i in range(n_i) for k in range(n_k)]
    options = []
    for i, k in cells:
        opts = [
            alloc[:n_j]
            for alloc in compositions(int(inst.supply[i, k]), n_j + 1)
        ]
        options.append(opts)
    fare_cells = [grid.cell(j, k) for j in range(n_j) for k in range(n_k)]
    for combo in itertools.product(*options):
        x = np.zeros((n_i, n_j, n_k), dtype=int)
        for (i, k), alloc in zip(cells, combo):
            x[i, :, k] = alloc
        for prices in itertools.product(*fare_cells):
            u = np.array(prices).reshape(n_j, n_k)
            yield Decision(x=x, u_hat=u)


class TestDeterministicModel:
    def test_minimal_variable_count(self):
        mip = build_deterministic_mip(tiny_instance(), PriceGrid.uniform(tiny_instance(), 1))
        # x, d, v, delta, rho, rev
        assert mip.n_vars == 6

    def test_empty_grid_rejected(self):
        from fleetopt.fleet import FleetError

        with pytest.raises(FleetError):
            PriceGrid(points=(((),),))

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(12):
            inst = random_instance(rng)
            grid = PriceGrid.uniform(inst, 2)
            mip = build_deterministic_mip(inst, grid)
            sol = branch_and_bound(mip)
            assert sol.status == "Optimal", trial
            best = max(
                evaluate_decision(inst, d) for d in enumerate_decisions(inst, grid)
            )
            assert sol.objective_value == pytest.approx(best, abs=1e-6), trial

    def test_solution_fulfillment_equals_cascade(self):
        rng = np.random.default_rng(21)
        for trial in range(12):
            inst = random_instance(rng)
            grid = PriceGrid.uniform(inst, 2)
            mip = build_deterministic_mip(inst, grid)
            sol = branch_and_bound(mip)
            dec = decision_from_solution(inst, mip, sol)
            d, v = fulfillment_from_solution(inst, mip, sol)
            ful = cascade_fulfill(inst, dec.x)
            assert np.array_equal(ful.d, d), trial
            assert np.array_equal(ful.v, v), trial
            assert evaluate_decision(inst, dec) == pytest.approx(
                sol.objective_value, abs=1e-6
            )

    def test_cascade_output_admits_feasible_indicators(self):
        # any cascade state can be completed to a feasible model point
        rng = np.random.default_rng(3)
        inst = random_instance(rng)
        grid = PriceGrid.uniform(inst, 2)
        mip = build_deterministic_mip(inst, grid)
        x = np.minimum(rng.integers(0, 2, (2, 2, 2)), inst.supply[:, None, :])
        ful = cascade_fulfill(inst, x)
        values = np.zeros(mip.n_vars)
        for i_pos, i in enumerate(inst.supply_areas):
            for j_pos, j in enumerate(inst.demand_areas):
                for k in range(2):
                    values[mip.var_index(f"x[{i},{j},{k}]")] = x[i_pos, j_pos, k]
        for j_pos, j in enumerate(inst.demand_areas):
            for k in range(2):
                values[mip.var_index(f"d[{j},{k}]")] = ful.d[j_pos, k]
                values[mip.var_index(f"v[{j},{k}]")] = ful.v[j_pos, k]
                # saturated demand needs the indicator on; surplus forces it
                delta = 1.0 if ful.d[j_pos, k] == inst.demand[j_pos, k] else 0.0
                values[mip.var_index(f"delta[{j},{k}]")] = delta
                values[mip.var_index(f"rho[{j},{k},0]")] = 1.0
                values[mip.var_index(f"rev[{j},{k},0]")] = ful.d[j_pos, k]
        bad = mip.check_point(values)
        assert bad == []


def stump_forest(inst):
    names = ("temperature",) + tuple(
        f"x[{i},{j},{k}]"
        for i in inst.supply_areas
        for j in inst.demand_areas
        for k in range(inst.soc_levels)
    ) + tuple(
        f"u_hat[{j},{k}]"
        for j in inst.demand_areas
        for k in range(inst.soc_levels)
    )
    schema = FeatureSchema(names=names, n_exogenous=1)
    # stump on temperature (pruned away) over two constant subtrees
    tree = TreeNode(
        feature=0, threshold=15.0,
        left=TreeNode(value=10.0), right=TreeNode(value=30.0),
    )
    # second tree splits on the first allocation variable
    tree2 = TreeNode(
        feature=1, threshold=0.5,
        left=TreeNode(value=0.0), right=TreeNode(value=8.0),
    )
    return Forest(trees=[tree, tree2], schema=schema, config=TrainConfig(), seed=0)


class TestFeatureModel:
    def test_exogenous_pruning_and_objective(self):
        inst = tiny_instance()
        forest = stump_forest(inst)
        mip = build_feature_mip(inst, forest, {"temperature": 20.0})
        sol = branch_and_bound(mip)
        assert sol.status == "Optimal"
        # temperature 20 puts tree 1 at 30; allocating >= 1 puts tree 2 at 8
        assert sol.objective_value == pytest.approx((30.0 + 8.0) / 2)
        dec = decision_from_solution(inst, mip, sol)
        assert dec.x.sum() >= 1

    def test_schema_mismatch_rejected(self):
        from fleetopt.fleet import FleetError

        inst = tiny_instance()
        other = FleetInstance(
            supply_areas=(5,), demand_areas=(6,), soc_levels=1,
            supply=[[2]], demand=[[1]], distance_km=[[4.0]],
        )
        forest = stump_forest(other)
        with pytest.raises(FleetError):
            build_feature_mip(inst, forest, {"temperature": 20.0})

    def test_prediction_matches_at_fixed_decisions(self):
        inst = tiny_instance()
        forest = stump_forest(inst)
        mip = build_feature_mip(inst, forest, {"temperature": 10.0})
        from fleetopt.mip.solver import fix_variables

        for x_val in (0, 1, 2):
            fixed = fix_variables(mip, {"x[0,1,0]": float(x_val), "u_hat[1,0]": 10.0})
            sol = branch_and_bound(fixed)
            expected = forest.predict([10.0, float(x_val), 10.0])
            assert sol.objective_value == pytest.approx(expected, abs=1e-6)


class TestReadback:
    @pytest.mark.parametrize("model", ["plain", "gridded", "deterministic"])
    def test_decision_from_solution_reads_the_written_decision(self, model):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, n_i=2, n_j=3, n_k=2)
        grid = PriceGrid.uniform(inst, 4)
        if model == "deterministic":
            mip = build_deterministic_mip(inst, grid)
        else:
            mip = build_feature_mip(
                inst, stump_forest(inst), {"temperature": 20.0},
                grid if model == "gridded" else None,
            )
        x = rng.integers(0, 3, (inst.n_supply, inst.n_demand, inst.soc_levels))
        if model == "plain":
            u = rng.uniform(*inst.fare_bounds, (inst.n_demand, inst.soc_levels))
        else:
            u = [[cell[(j + 2 * k) % 4] for k, cell in enumerate(row)]
                 for j, row in enumerate(grid.points)]
        dec = Decision(x=x, u_hat=u)
        # write each decision value into the columns its expression reads:
        # a plain column takes the value, a fare grid selects its point
        values = dict.fromkeys(mip.names, 0.0)
        vec = decision_to_vector(inst, dec).tolist()
        for name, value in zip(decision_variable_names(inst), vec):
            terms = mip.expr_map[name].terms
            if list(terms.values()) == [1.0]:
                (col,) = terms
                values[mip.names[col]] = value
            else:
                (col,) = [c for c, price in terms.items() if price == value]
                values[mip.names[col]] = 1.0
        back = decision_from_solution(inst, mip, Solution(OPTIMAL, values))
        assert np.array_equal(back.x, dec.x)
        assert back.u_hat.tolist() == dec.u_hat.tolist()


class TestLowering:
    def setup_method(self):
        self.inst = FleetInstance(
            supply_areas=(0, 1), demand_areas=(8, 9), soc_levels=2,
            supply=[[2, 1], [1, 2]], demand=[[1, 1], [2, 0]],
            distance_km=[[4.0, 2.0], [3.0, 1.0]],
        )
        self.grid = PriceGrid.uniform(self.inst, 3)

    def lower(self, ast, mip):
        return lower_to_mip(canonicalize(ast, self.inst), mip)

    def test_linear_objective_adds_no_variables(self):
        mip = build_deterministic_mip(self.inst, self.grid)
        before = mip.n_vars
        self.lower(parse("maximize sum(i in I, j in J, k in K) x[i,j,k]"), mip)
        assert mip.n_vars == before
        assert mip.secondary is not None

    def test_abs_term_adds_one_aux_two_rows(self):
        mip = build_deterministic_mip(self.inst, self.grid)
        before_v, before_c = mip.n_vars, len(mip.constraints)
        src = ("minimize sum(j in J) abs(demand_avg[j] - inventory_avg - "
               "sum(i in I, k in K) x[i,j,k])")
        self.lower(parse(src), mip)
        assert mip.n_vars == before_v + 2  # one aux per demand area
        assert len(mip.constraints) == before_c + 4

    def test_product_objective_adds_grid_sized_auxiliaries(self):
        mip = build_deterministic_mip(self.inst, self.grid)
        before = mip.n_vars
        src = "maximize sum(i in I, j in J, k in K) (u[j,k] * x[i,j,k])"
        self.lower(parse(src), mip)
        # one product variable per (rho point, allocation) pair
        pairs = self.inst.n_supply * self.inst.n_demand * self.inst.soc_levels
        assert mip.n_vars == before + 3 * pairs

    def test_product_needs_grid(self):
        forest_names = tuple(
            f"x[{i},{j},{k}]"
            for i in self.inst.supply_areas
            for j in self.inst.demand_areas
            for k in range(2)
        ) + tuple(
            f"u_hat[{j},{k}]" for j in self.inst.demand_areas for k in range(2)
        )
        schema = FeatureSchema(names=forest_names, n_exogenous=0)
        forest = Forest(trees=[TreeNode(value=1.0)], schema=schema,
                        config=TrainConfig(), seed=0)
        mip = build_feature_mip(self.inst, forest, {})
        with pytest.raises(DslError, match="price grid"):
            self.lower(
                parse("maximize sum(i in I, j in J, k in K) (u[j,k] * x[i,j,k])"), mip
            )

    def test_rewarded_abs_rejected(self):
        mip = build_deterministic_mip(self.inst, self.grid)
        src = "maximize sum(j in J) abs(demand_avg[j] - sum(i in I, k in K) x[i,j,k])"
        with pytest.raises(DslError, match="abs"):
            self.lower(parse(src), mip)

    def test_lowered_secondary_matches_evaluate(self):
        # solve lexicographically, then check f at the solution decision
        # with the AST-walking oracle, which shares no monomial expansion
        # with the lowering
        rng = np.random.default_rng(2)
        mip = build_deterministic_mip(self.inst, self.grid)
        ast = parse("minimize sum(j in J, k in K) u[j,k]")
        self.lower(ast, mip)
        sol = lexicographic_solve(mip, SolveConfig())
        assert sol.status == "Optimal"
        dec = decision_from_solution(self.inst, mip, sol)
        assert oracle_evaluate(ast, self.inst, dec) == pytest.approx(
            sol.secondary_value, abs=1e-6
        )

    def test_product_query_through_agent_model(self):
        from fleetopt.agent import AgentConfig, build_agent_model, indicator_generate

        ast = indicator_generate(
            "Market share of taxis", self.inst, guide="deterministic"
        ).ast
        mip, _, grid = build_agent_model(
            self.inst, stump_forest(self.inst), {"temperature": 20.0}, ast,
            AgentConfig(grid_points=3),
        )
        assert grid is not None
        # one product column per (grid point, allocation) pair
        products = {v.name for v in mip.variables if v.name.startswith("prod[")}
        assert products == {
            f"prod[rho[{j},{k},{p}]*x[{i},{j},{k}]]"
            for i in self.inst.supply_areas
            for j in self.inst.demand_areas
            for k in range(self.inst.soc_levels)
            for p in range(3)
        }
        sol = lexicographic_solve(mip, SolveConfig())
        assert sol.status == "Optimal"
        dec = decision_from_solution(self.inst, mip, sol)
        assert oracle_evaluate(ast, self.inst, dec) == pytest.approx(
            sol.secondary_value, abs=1e-6
        )

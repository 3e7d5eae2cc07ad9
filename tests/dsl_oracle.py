"""An objective's value at a decision, by walking its AST.

The walk reads every atom straight off the decision and the instance
arrays, summing as the source's comprehensions are written. It shares
only index resolution (:class:`fleetopt.dsl.analysis._IndexWalker`)
with the canonicalizer and none of its monomial expansion, so it checks
:meth:`fleetopt.dsl.CanonicalForm.evaluate` and the lowered MIP
secondary, both of which are read from the canonical form.
"""

from fleetopt.dsl.analysis import _IndexWalker
from fleetopt.dsl.parser import Abs, Atom, BinOp, DslError, IndexVar, Neg, Num, Sum


def oracle_evaluate(ast, instance, decision) -> float:
    """Numeric value of the objective at a decision."""
    return float(_AstEvaluator(instance, decision).eval(ast.body, {}))


class _AstEvaluator(_IndexWalker):
    def __init__(self, instance, decision):
        super().__init__(instance)
        self.decision = decision

    def eval(self, node, env) -> float:
        inst = self.instance
        if isinstance(node, Num):
            return node.value
        if isinstance(node, IndexVar):
            return float(env[node.name])
        if isinstance(node, Neg):
            return -self.eval(node.operand, env)
        if isinstance(node, Abs):
            return abs(self.eval(node.operand, env))
        if isinstance(node, BinOp):
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            return left * right
        if isinstance(node, Sum):
            total = 0.0
            for inner in self._bindings(node, env):
                total += self.eval(node.body, inner)
            return total
        if isinstance(node, Atom):
            name = node.name
            pos = self._positions(node, env)
            if name == "x":
                return float(self.decision.x[pos])
            if name == "u_hat":
                return float(self.decision.u_hat[pos])
            if name == "u":
                return float(
                    inst.theta * self.decision.u_hat[pos] + inst.booking_fee[pos[0]]
                )
            if name == "S":
                return float(inst.supply[pos])
            if name == "z":
                return float(inst.demand[pos])
            if name == "dist":
                return float(inst.distance_km[pos])
            if name == "w":
                return float(inst.reposition_cost[pos])
            if name == "demand_avg":
                return float(self.demand_avg[pos[0]])
            if name == "inventory_avg":
                return self.inventory_avg
            raise DslError(f"unknown identifier {name!r}")
        raise TypeError(f"unexpected AST node {type(node).__name__}")

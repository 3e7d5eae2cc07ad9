"""Canonical expansion and numeric evaluation of objectives.

The parser has already checked everything an objective's text decides:
every identifier is a bound index variable or an atom of its arity, and
every bound variable sits in a position of its own set. The
canonicalizer checks what the instance decides while it expands all
comprehensions over the concrete index sets and folds every parameter
to a number: an integer literal or index arithmetic must name a member
of its set, the degree in decision variables is at most two, and abs()
wraps affine forms only and is never multiplied by a decision. It
leaves a sorted monomial list over decision tokens, which is the
objective's content stripped of all spelling choices. The tokens are
the decision variables' names, read off
:func:`.fleet.decision_variable_names` at each atom's resolved
position. That form is also the only evaluator: an objective's value
at a decision is its monomials summed over the decision's values by
variable name (:meth:`CanonicalForm.evaluate`), the same form the
MIP's secondary objective is lowered from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ..fleet import FleetInstance, decision_variable_names
from .parser import (
    ATOMS,
    Abs,
    And,
    Atom,
    BinOp,
    DslError,
    IndexVar,
    Neg,
    Num,
    ObjectiveAst,
    Sum,
)

COEFF_TOL = 1e-12


# --- canonical form ---


@dataclass(frozen=True)
class CanonicalForm:
    """Sense plus sorted monomials over decision tokens.

    ``monomials`` pairs a coefficient with a sorted tuple of tokens
    (empty for the constant term). Tokens are decision entries such as
    ``x[0,8,1]``/``u_hat[8,2]`` or ``|...|`` composites whose inner
    affine form over decision tokens is kept in ``abs_forms``.
    """

    sense: str
    monomials: tuple[tuple[float, tuple[str, ...]], ...]
    abs_forms: tuple[tuple[str, tuple[tuple[str, float], ...], float], ...] = ()

    def as_string(self) -> str:
        parts = [self.sense]
        for coeff, tokens in self.monomials:
            if tokens:
                parts.append(f"{coeff:+.10g}*{'*'.join(tokens)}")
            else:
                parts.append(f"{coeff:+.10g}")
        return " ".join(parts)

    def abs_form(self, token: str):
        for tok, terms, const in self.abs_forms:
            if tok == token:
                return terms, const
        raise KeyError(token)

    def evaluate(self, token_values: dict[str, float]) -> float:
        """The objective's value, given each decision variable's value by
        name (:func:`.fleet.decision_values`)."""
        total = 0.0
        for coeff, tokens in self.monomials:
            term = coeff
            for tok in tokens:
                if tok.startswith("|"):
                    terms, const = self.abs_form(tok)
                    inner = const + sum(c * token_values[t] for t, c in terms)
                    term *= abs(inner)
                else:
                    term *= token_values[tok]
            total += term
        return total


class _Poly:
    """Polynomial over decision tokens during expansion."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[str, ...], float] = terms or {}

    @classmethod
    def const(cls, value: float) -> "_Poly":
        return cls({(): float(value)} if value else {})

    @classmethod
    def token(cls, token: str, coeff: float = 1.0) -> "_Poly":
        return cls({(token,): coeff})

    def add(self, other: "_Poly", sign: float = 1.0) -> "_Poly":
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, 0.0) + sign * val
        return _Poly(out)

    def scale(self, factor: float) -> "_Poly":
        return _Poly({k: v * factor for k, v in self.terms.items()})

    def mul(self, other: "_Poly") -> "_Poly":
        out: dict[tuple[str, ...], float] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = tuple(sorted(k1 + k2))
                if len(key) > 2:
                    raise DslError("decision degree exceeds 2 after expansion")
                if any(t.startswith("|") for t in key) and len(key) > 1:
                    raise DslError("abs() terms may not appear inside products")
                out[key] = out.get(key, 0.0) + v1 * v2
        return _Poly(out)

    def degree(self) -> int:
        return max((len(k) for k, v in self.terms.items() if abs(v) > COEFF_TOL), default=0)

    def affine_parts(self):
        const = self.terms.get((), 0.0)
        linear = []
        for key, val in self.terms.items():
            if not key or abs(val) <= COEFF_TOL:
                continue
            if len(key) > 1 or key[0].startswith("|"):
                raise DslError("expected an affine form")
            linear.append((key[0], val))
        return sorted(linear), const


class _IndexWalker:
    """The index side of expanding an objective's AST over an instance:
    the instance's index sets and averages, index arithmetic, sum
    bindings and filters, and the resolution of an atom's indices to
    array positions, where an index that is not a member of its set
    raises.

    :class:`FleetInstance` rejects an empty index set, so every set here
    has a member and the supply matrix an entry.
    """

    def __init__(self, instance: FleetInstance):
        self.instance = instance
        self.sets = {
            "I": list(instance.supply_areas),
            "J": list(instance.demand_areas),
            "K": list(range(instance.soc_levels)),
        }
        self.demand_avg = instance.demand.mean(axis=1)
        self.inventory_avg = float(instance.supply.mean())

    def _index_value(self, node, env) -> int:
        if isinstance(node, int):
            return node
        if isinstance(node, IndexVar):
            return env[node.name]
        if isinstance(node, BinOp):
            left = self._index_value(node.left, env)
            right = self._index_value(node.right, env)
            return left + right if node.op == "+" else left - right
        raise DslError("invalid index expression")

    def _cond(self, node, env) -> bool:
        if node is None:
            return True
        if isinstance(node, And):
            return self._cond(node.left, env) and self._cond(node.right, env)
        left = self._index_value(node.left, env)
        right = self._index_value(node.right, env)
        return {
            "==": left == right,
            "!=": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[node.op]

    def _bindings(self, node: Sum, env):
        """The environments a sum's body is taken in, in order.

        The last binding varies fastest, and environments the filter
        rejects are left out. The one dict yielded is updated in place.
        """
        names = [b.name for b in node.bindings]
        inner = dict(env)
        for members in product(*(self.sets[b.set_name] for b in node.bindings)):
            inner.update(zip(names, members))
            if self._cond(node.filter, inner):
                yield inner

    def _positions(self, atom: Atom, env) -> tuple[int, ...]:
        inst = self.instance
        expected = ATOMS[atom.name][1]
        out = []
        for pos, (idx, set_name) in enumerate(zip(atom.indices, expected)):
            value = self._index_value(idx, env)
            if value not in self.sets[set_name]:
                raise DslError(
                    f"{atom.name} index {pos + 1} = {value} is not a member of {set_name}"
                )
            if set_name == "I":
                out.append(inst.supply_index(value))
            elif set_name == "J":
                out.append(inst.demand_index(value))
            else:
                out.append(value)
        return tuple(out)


class _Expander(_IndexWalker):
    def __init__(self, instance: FleetInstance):
        super().__init__(instance)
        self.abs_forms: dict[str, tuple[tuple[tuple[str, float], ...], float]] = {}
        # the decision tokens are the decision variables' names, split and
        # shaped as vector_to_decision splits the shared order
        names = np.array(decision_variable_names(instance), dtype=object)
        n_x = instance.n_supply * instance.n_demand * instance.soc_levels
        self.x_names = names[:n_x].reshape(
            instance.n_supply, instance.n_demand, instance.soc_levels
        )
        self.u_names = names[n_x:].reshape(instance.n_demand, instance.soc_levels)

    def expand(self, node, env) -> _Poly:
        inst = self.instance
        if isinstance(node, Num):
            return _Poly.const(node.value)
        if isinstance(node, IndexVar):
            return _Poly.const(float(env[node.name]))
        if isinstance(node, Neg):
            return self.expand(node.operand, env).scale(-1.0)
        if isinstance(node, BinOp):
            left = self.expand(node.left, env)
            right = self.expand(node.right, env)
            if node.op == "+":
                return left.add(right)
            if node.op == "-":
                return left.add(right, sign=-1.0)
            return left.mul(right)
        if isinstance(node, Abs):
            inner = self.expand(node.operand, env)
            if inner.degree() == 0:
                return _Poly.const(abs(inner.terms.get((), 0.0)))
            linear, const = inner.affine_parts()
            body = " ".join(f"{c:+.10g}*{t}" for t, c in linear)
            token = f"|{const:+.10g} {body}|"
            self.abs_forms[token] = (tuple(linear), const)
            return _Poly.token(token)
        if isinstance(node, Sum):
            total = _Poly()
            for inner in self._bindings(node, env):
                total = total.add(self.expand(node.body, inner))
            return total
        if isinstance(node, Atom):
            name = node.name
            pos = self._positions(node, env)
            if name == "x":
                return _Poly.token(self.x_names[pos])
            if name == "u_hat":
                return _Poly.token(self.u_names[pos])
            if name == "u":
                fee = float(inst.booking_fee[pos[0]])
                return _Poly.token(self.u_names[pos], inst.theta).add(_Poly.const(fee))
            if name == "S":
                return _Poly.const(float(inst.supply[pos[0], pos[1]]))
            if name == "z":
                return _Poly.const(float(inst.demand[pos[0], pos[1]]))
            if name == "dist":
                return _Poly.const(float(inst.distance_km[pos[0], pos[1]]))
            if name == "w":
                return _Poly.const(float(inst.reposition_cost[pos[0], pos[1]]))
            if name == "demand_avg":
                return _Poly.const(float(self.demand_avg[pos[0]]))
            return _Poly.const(self.inventory_avg)  # the one atom left: inventory_avg
        raise TypeError(f"unexpected AST node {type(node).__name__}")


def canonicalize(ast: ObjectiveAst, instance: FleetInstance) -> CanonicalForm:
    """Expand an objective over the instance into sorted monomials."""
    expander = _Expander(instance)
    poly = expander.expand(ast.body, {})
    monomials = sorted(
        ((v, k) for k, v in poly.terms.items() if abs(v) > COEFF_TOL),
        key=lambda item: (len(item[1]), item[1]),
    )
    used = {t for _, key in monomials for t in key if t.startswith("|")}
    abs_forms = tuple(
        (tok, expander.abs_forms[tok][0], expander.abs_forms[tok][1])
        for tok in sorted(used)
    )
    return CanonicalForm(
        sense=ast.sense,
        monomials=tuple((float(v), k) for v, k in monomials),
        abs_forms=abs_forms,
    )

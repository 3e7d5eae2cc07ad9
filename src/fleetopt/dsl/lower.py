"""Lowering canonical objectives onto a fleet MIP, and the gate an
objective passes before it is lowered.

Linear monomials map straight onto the model's decision expressions.
Bilinear fare-times-allocation terms are expanded against the fare
selection binaries of a gridded model, one product auxiliary per
(binary, allocation) pair; no other product is accepted.
Absolute-value terms introduce one bounded auxiliary and two
tightening rows; they are accepted only in the orientation the LP can
honor (penalized, not rewarded). :func:`check` accepts an objective
exactly when it expands on the instance and its form keeps these two
rules, so a model built over that instance can take it.
"""

from __future__ import annotations

from ..fleet import FleetInstance
from ..fleet_mip import add_binary_product
from ..mip.problem import BINARY, CONTINUOUS, GE, MAX, MIN, MipProblem, Objective
from .analysis import CanonicalForm, canonicalize
from .parser import DslError, ObjectiveAst


def _require_lowerable(form: CanonicalForm) -> None:
    """Raise :class:`DslError` at the first monomial the linear model
    cannot take: a product other than fare times allocation, or an
    abs() term the sense rewards."""
    for coeff, tokens in form.monomials:
        if len(tokens) == 2 and not (
            tokens[0].startswith("u_hat") and tokens[1].startswith("x")
        ):
            raise DslError(
                f"product {tokens[0]}*{tokens[1]} is not representable in the linear model"
            )
        if len(tokens) == 1 and tokens[0].startswith("|") and (
            (coeff > 0) != (form.sense == "min")
        ):
            raise DslError(
                "abs() term is rewarded by the objective sense and "
                "cannot be lowered linearly"
            )


def check(ast: ObjectiveAst, instance: FleetInstance):
    """Validate an objective against an instance without raising.

    Returns its canonical form and no diagnostics, or None and the one
    diagnostic of the first rule it breaks, from expansion
    (:func:`.canonicalize`) or from the lowering rules."""
    try:
        form = canonicalize(ast, instance)
        _require_lowerable(form)
    except DslError as err:
        return None, [str(err)]
    return form, []


def _expr_bounds(mip: MipProblem, terms, const: float) -> tuple[float, float]:
    lo = hi = const
    lb, ub = mip.lb, mip.ub
    for idx, c in terms.items():
        a, b = lb[idx].item(), ub[idx].item()
        if c >= 0:
            lo += c * a
            hi += c * b
        else:
            lo += c * b
            hi += c * a
    return lo, hi


def _token_expr(mip: MipProblem, token: str):
    try:
        return mip.expr_map[token]
    except KeyError:
        raise DslError(f"decision {token} is not present in this model") from None


def _lower_abs(mip: MipProblem, form: CanonicalForm, token: str, tag: int) -> int:
    terms_by_token, const = form.abs_form(token)
    terms: dict[int, float] = {}
    total_const = const
    for tok, c in terms_by_token:
        expr = _token_expr(mip, tok)
        for idx, coeff in expr.terms.items():
            terms[idx] = terms.get(idx, 0.0) + c * coeff
        total_const += c * expr.constant
    lo, hi = _expr_bounds(mip, terms, total_const)
    aux = mip.add_variable(f"absval[{tag}]", CONTINUOUS, 0.0, max(abs(lo), abs(hi), 0.0))
    # aux >= L  and  aux >= -L
    for sign, label in ((-1.0, "abs+"), (1.0, "abs-")):
        row = {aux: 1.0}
        row.update((idx, sign * c) for idx, c in terms.items())
        mip.add_constraint(row, GE, -sign * total_const, name=f"{label}[{tag}]")
    return aux


def _lower_product(mip: MipProblem, tok_u: str, tok_x: str) -> list[tuple[int, float]]:
    """Product u_hat * x as one auxiliary per fare selection binary;
    returns (variable index, price weight) pairs."""
    fares = _token_expr(mip, tok_u)
    if any(mip.kinds[idx] != BINARY for idx in fares.terms):
        raise DslError(
            f"product {tok_u}*{tok_x} needs fare selection binaries; "
            "build the model with a price grid"
        )
    x_expr = _token_expr(mip, tok_x)
    if len(x_expr.terms) != 1 or x_expr.constant != 0.0:
        raise DslError(f"{tok_x} does not map to a single column")
    x_idx = next(iter(x_expr.terms))
    x_ub = mip.ub[x_idx].item()
    out = []
    for rho, price in fares.terms.items():
        name = f"prod[{mip.names[rho]}*{mip.names[x_idx]}]"
        out.append((add_binary_product(mip, name, rho, x_idx, x_ub), price))
    return out


def lower_to_mip(form: CanonicalForm, mip: MipProblem) -> Objective:
    """Install a canonical objective as the model's secondary objective
    (predicted profit stays primary). The model must be built over the
    instance the form was expanded on."""
    _require_lowerable(form)
    sense = MAX if form.sense == "max" else MIN
    coeffs: dict[int, float] = {}
    constant = 0.0

    def accumulate(idx: int, value: float):
        coeffs[idx] = coeffs.get(idx, 0.0) + value

    abs_tags = 0
    for coeff, tokens in form.monomials:
        if not tokens:
            constant += coeff
        elif len(tokens) == 2:
            for prod_idx, price in _lower_product(mip, *tokens):
                accumulate(prod_idx, coeff * price)
        elif tokens[0].startswith("|"):
            accumulate(_lower_abs(mip, form, tokens[0], abs_tags), coeff)
            abs_tags += 1
        else:
            expr = _token_expr(mip, tokens[0])
            for idx, c in expr.terms.items():
                accumulate(idx, coeff * c)
            constant += coeff * expr.constant

    mip.set_secondary_objective(sense, coeffs, constant)
    return mip.secondary

"""Lowering validated objectives onto a fleet MIP.

Linear monomials map straight onto the model's decision expressions.
Bilinear fare-times-allocation terms are expanded against the fare
selection binaries of a gridded model, one product auxiliary per
(binary, allocation) pair. Absolute-value terms introduce one bounded
auxiliary and two tightening rows; they are accepted only in the
orientation the LP can honor (penalized, not rewarded).
"""

from __future__ import annotations

from ..fleet_mip import add_binary_product
from ..mip.problem import BINARY, CONTINUOUS, GE, MAX, MIN, MipProblem, Objective
from .analysis import CanonicalForm
from .parser import DslError


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
    row1 = {aux: 1.0}
    for idx, c in terms.items():
        row1[idx] = row1.get(idx, 0.0) - c
    mip.add_constraint(row1, GE, total_const, name=f"abs+[{tag}]")
    row2 = {aux: 1.0}
    for idx, c in terms.items():
        row2[idx] = row2.get(idx, 0.0) + c
    mip.add_constraint(row2, GE, -total_const, name=f"abs-[{tag}]")
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
    sense = MAX if form.sense == "max" else MIN
    coeffs: dict[int, float] = {}
    constant = 0.0

    def accumulate(idx: int, value: float):
        coeffs[idx] = coeffs.get(idx, 0.0) + value

    abs_tags = 0
    for coeff, tokens in form.monomials:
        if not tokens:
            constant += coeff
            continue
        if len(tokens) == 1:
            tok = tokens[0]
            if tok.startswith("|"):
                penalized = (sense == MIN and coeff > 0) or (sense == MAX and coeff < 0)
                if not penalized:
                    raise DslError(
                        "abs() term is rewarded by the objective sense and "
                        "cannot be lowered linearly"
                    )
                aux = _lower_abs(mip, form, tok, abs_tags)
                abs_tags += 1
                accumulate(aux, coeff)
            else:
                expr = _token_expr(mip, tok)
                for idx, c in expr.terms.items():
                    accumulate(idx, coeff * c)
                constant += coeff * expr.constant
            continue
        tok_a, tok_b = tokens
        if tok_a.startswith("u_hat") and tok_b.startswith("x"):
            for prod_idx, price in _lower_product(mip, tok_a, tok_b):
                accumulate(prod_idx, coeff * price)
        else:
            raise DslError(
                f"product {tok_a}*{tok_b} is not representable in the linear model"
            )

    mip.set_secondary_objective(sense, coeffs, constant)
    return mip.secondary

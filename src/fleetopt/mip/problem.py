"""In-memory mixed-integer linear programs and their solutions.

A problem keeps its rows as CSR arrays (:class:`.rows.CompiledRows`)
with a name per row. :meth:`MipProblem.add_constraint` takes one row as
a dict; :meth:`MipProblem.add_rows` takes a block of rows as arrays,
which is how a forest's rows go in. Either way the rows end up in one
row set, :attr:`MipProblem.rows`, which a search reads as it is.
:attr:`MipProblem.constraints` reads the same rows as dicts.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .rows import CompiledRows

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

LE = "<="
EQ = "="
GE = ">="

MIN = "min"
MAX = "max"

INT_TOL = 1e-6


class MipError(ValueError):
    """Raised for malformed problems or invalid solver inputs."""


@dataclass
class Variable:
    name: str
    kind: str = CONTINUOUS
    lb: float = 0.0
    ub: float = float("inf")


@dataclass(frozen=True)
class Constraint:
    """One row read off a problem's arrays (:attr:`MipProblem.constraints`)."""

    coeffs: dict[int, float]
    relation: str
    rhs: float
    name: str = ""


@dataclass
class Objective:
    sense: str
    coeffs: dict[int, float]
    constant: float = 0.0

    def value(self, values: np.ndarray) -> float:
        return self.constant + sum(c * values[i] for i, c in self.coeffs.items())


@dataclass
class AffineExpr:
    """Affine form over problem variables, used to map decision names
    (for example a gridded fare) onto whatever variables encode them."""

    terms: dict[int, float] = field(default_factory=dict)
    constant: float = 0.0

    def value(self, values: np.ndarray) -> float:
        return self.constant + sum(c * values[i] for i, c in self.terms.items())

    @classmethod
    def of_var(cls, index: int) -> "AffineExpr":
        return cls(terms={index: 1.0})


class MipProblem:
    """Variables, linear rows and up to two objectives.

    Integer and binary variables must carry finite bounds. ``expr_map``
    associates external decision names with affine expressions over the
    problem's variables so objective lowering and variable fixing work
    the same whether a decision is a plain column or a derived form.

    Rows are only ever appended. New rows wait, as blocks and as dicts
    added one at a time, until :attr:`rows` is next read, which appends
    them all to the row set at once. A copy shares the row set as it
    stands (arrays are never changed in place) and appends its own rows
    to a row set of its own.
    """

    def __init__(self, name: str = "problem"):
        self.name = name
        self.variables: list[Variable] = []
        self.objective: Objective | None = None
        self.secondary: Objective | None = None
        self.expr_map: dict[str, AffineExpr] = {}
        self._index: dict[str, int] = {}
        self._rows = CompiledRows.empty(0)
        self._row_names: list[str] = []
        self._blocks: list[CompiledRows] = []  # rows added since the last read
        self._pending: list[tuple[dict[int, float], str, float]] = []  # dict rows after them
        self._views: tuple[Constraint, ...] = ()

    # --- construction ---

    @staticmethod
    def _domain(name: str, kind: str, lb: float, ub: float) -> tuple[float, float]:
        """The bounds of a new column of this kind, checked."""
        if kind not in (CONTINUOUS, INTEGER, BINARY):
            raise MipError(f"unknown variable kind {kind!r}")
        if kind == BINARY:
            lb, ub = max(0.0, lb), min(1.0, ub)
        if kind in (INTEGER, BINARY) and (
            not math.isfinite(lb) or not math.isfinite(ub)
        ):
            raise MipError(f"integer variable {name!r} needs finite bounds")
        if lb > ub + 1e-12:
            raise MipError(f"variable {name!r} has empty domain [{lb}, {ub}]")
        return float(lb), float(ub)

    def add_variable(
        self, name: str, kind: str = CONTINUOUS, lb: float = 0.0, ub: float = float("inf")
    ) -> int:
        if name in self._index:
            raise MipError(f"duplicate variable name {name!r}")
        lb, ub = self._domain(name, kind, lb, ub)
        idx = len(self.variables)
        self.variables.append(Variable(name, kind, lb, ub))
        self._index[name] = idx
        return idx

    def add_variables(
        self, names, kind: str = CONTINUOUS, lb: float = 0.0, ub: float = float("inf")
    ) -> range:
        """One column per name, all of one kind and domain; their indices."""
        names = list(names)
        start = len(self.variables)
        if not names:
            return range(start, start)
        index = dict(zip(names, range(start, start + len(names))))
        if len(index) < len(names) or not self._index.keys().isdisjoint(index):
            seen = set(self._index)
            dup = next(n for n in names if n in seen or seen.add(n))
            raise MipError(f"duplicate variable name {dup!r}")
        lb, ub = self._domain(names[0], kind, lb, ub)
        self.variables.extend([Variable(name, kind, lb, ub) for name in names])
        self._index.update(index)
        return range(start, start + len(names))

    def var_index(self, name: str) -> int:
        return self._index[name]

    def _coerce_coeffs(self, coeffs) -> dict[int, float]:
        """Coefficients by column index; zeros dropped, repeats summed."""
        out: dict[int, float] = {}
        index, n = self._index, len(self.variables)
        summed = False
        for key, val in coeffs.items():
            idx = index[key] if isinstance(key, str) else int(key)
            if idx < 0 or idx >= n:
                raise MipError(f"coefficient references unknown variable {key!r}")
            val = float(val)
            if not math.isfinite(val):
                raise MipError("constraint coefficients must be finite")
            if val != 0.0:
                if idx in out:
                    out[idx] += val
                    summed = True
                else:
                    out[idx] = val
        # only a sum can come to zero
        return {i: c for i, c in out.items() if c != 0.0} if summed else out

    def add_constraint(self, coeffs, relation: str, rhs: float, name: str = "") -> int:
        """Append one row; keys are column indices or names, and zero
        coefficients are dropped. Returns the row's index."""
        if relation not in (LE, EQ, GE):
            raise MipError(f"unknown relation {relation!r}")
        self._pending.append((self._coerce_coeffs(coeffs), relation, float(rhs)))
        self._row_names.append(name)
        return len(self._row_names) - 1

    def add_rows(self, indptr, indices, data, relation, rhs, names) -> range:
        """Append a block of rows given as CSR arrays; their indices.

        Row ``r`` has the coefficients ``data[indptr[r]:indptr[r + 1]]``
        on the columns ``indices[indptr[r]:indptr[r + 1]]``, in that
        order, each column at most once. Zero coefficients are dropped,
        as :meth:`add_constraint` drops them, so both give the same
        row. ``relation`` is one relation for every row or one per row.
        """
        indptr = np.asarray(indptr, dtype=np.intp)
        indices = np.asarray(indices, dtype=np.intp)
        data = np.asarray(data, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        names = list(names)
        m = len(names)
        lengths = indptr[1:] - indptr[:-1]
        if (
            len(indptr) != m + 1 or len(rhs) != m or indptr[0] != 0
            or indptr[-1] != len(indices) or (lengths < 0).any()
        ):
            raise MipError("a block needs row pointers, one rhs and one name per row")
        rel = np.asarray(relation)
        if rel.shape not in ((), (m,)):
            raise MipError("a block needs one relation, or one per row")
        if not ((rel == LE) | (rel == EQ) | (rel == GE)).all():
            raise MipError(f"unknown relation in {sorted(set(rel.ravel().tolist()))!r}")
        le, ge = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
        le[:], ge[:] = rel != GE, rel != LE
        n = self.n_vars
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise MipError("coefficient references unknown variable")
        if not np.isfinite(data).all():
            raise MipError("constraint coefficients must be finite")
        row_of = np.repeat(np.arange(m), lengths)
        entries = np.sort(row_of * n + indices)
        if (entries[1:] == entries[:-1]).any():
            raise MipError("a row holds a column twice")
        nonzero = data != 0.0
        if not nonzero.all():
            indices, data = indices[nonzero], data[nonzero]
            indptr = np.zeros(m + 1, dtype=np.intp)
            np.cumsum(np.bincount(row_of[nonzero], minlength=m), out=indptr[1:])
        self._close_pending()
        self._blocks.append(CompiledRows.of_csr(
            n, indptr=indptr, indices=indices, data=data, rhs=rhs, le=le, ge=ge
        ))
        start = len(self._row_names)
        self._row_names.extend(names)
        return range(start, start + m)

    def _close_pending(self) -> None:
        """Turn the dict rows added one at a time into one block."""
        if not self._pending:
            return
        coeffs, rels, rhs = zip(*self._pending)
        self._pending = []
        m = len(rhs)
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, coeffs), dtype=np.intp, count=m), out=indptr[1:])
        nnz = int(indptr[-1])
        self._blocks.append(CompiledRows.of_csr(
            self.n_vars,
            indptr=indptr,
            indices=np.fromiter(chain.from_iterable(coeffs), dtype=np.intp, count=nnz),
            data=np.fromiter(
                chain.from_iterable(map(dict.values, coeffs)), dtype=float, count=nnz
            ),
            rhs=np.array(rhs, dtype=float),
            le=np.array([r != GE for r in rels], dtype=bool),
            ge=np.array([r != LE for r in rels], dtype=bool),
        ))

    def set_objective(self, sense: str, coeffs, constant: float = 0.0) -> None:
        if sense not in (MIN, MAX):
            raise MipError(f"objective sense must be 'min' or 'max', got {sense!r}")
        self.objective = Objective(sense, self._coerce_coeffs(coeffs), float(constant))

    def set_secondary_objective(self, sense: str, coeffs, constant: float = 0.0) -> None:
        if sense not in (MIN, MAX):
            raise MipError(f"objective sense must be 'min' or 'max', got {sense!r}")
        self.secondary = Objective(sense, self._coerce_coeffs(coeffs), float(constant))

    # --- views ---

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def rows(self) -> CompiledRows:
        """The stated rows over the problem's columns, in the order added.

        The row set is kept until a row or a column is added, so every
        search of an unchanged problem, or of a copy that added no row,
        reads the same one (and the level schedule it builds).
        """
        self._close_pending()
        self._rows = self._rows.widen(self.n_vars)
        if self._blocks:
            self._rows = self._rows.append(*self._blocks)
            self._blocks = []
        return self._rows

    @property
    def row_names(self) -> tuple[str, ...]:
        return tuple(self._row_names)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows as :class:`Constraint` views, in row and entry order.

        The views are read off :attr:`rows` when first asked for and
        kept; they are for reading, and changing one changes no row.
        """
        rows = self.rows
        done = len(self._views)
        if done < rows.m:
            ptr = rows.indptr.tolist()
            cols, vals = rows.indices.tolist(), rows.data.tolist()
            self._views += tuple(
                Constraint(
                    dict(zip(cols[ptr[r] : ptr[r + 1]], vals[ptr[r] : ptr[r + 1]])),
                    EQ if le and ge else LE if le else GE,
                    rhs,
                    name,
                )
                for r, le, ge, rhs, name in zip(
                    range(done, rows.m),
                    rows.le[done:].tolist(),
                    rows.ge[done:].tolist(),
                    rows.rhs[done:].tolist(),
                    self._row_names[done:],
                )
            )
        return self._views

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lb = np.array([v.lb for v in self.variables], dtype=float)
        ub = np.array([v.ub for v in self.variables], dtype=float)
        return lb, ub

    def fork(self) -> "MipProblem":
        """A problem over the same columns, objectives and rows, shared.

        Rows added to the fork are its own, and rows added here later
        do not reach it. Columns and objectives are not copied, so a
        fork is for a search that only reads them, such as stage 2 of a
        lexicographic solve; :meth:`copy` copies them too.
        """
        other = copy.copy(self)
        other._rows = self.rows
        other._row_names = list(self._row_names)
        other._blocks, other._pending = [], []
        return other

    def copy(self) -> "MipProblem":
        other = self.fork()
        other.variables = [Variable(v.name, v.kind, v.lb, v.ub) for v in self.variables]
        if self.objective:
            other.objective = Objective(
                self.objective.sense, dict(self.objective.coeffs), self.objective.constant
            )
        if self.secondary:
            other.secondary = Objective(
                self.secondary.sense, dict(self.secondary.coeffs), self.secondary.constant
            )
        other.expr_map = {
            k: AffineExpr(dict(e.terms), e.constant) for k, e in self.expr_map.items()
        }
        other._index = dict(self._index)
        return other

    def check_point(self, values: np.ndarray, tol: float = 1e-6) -> list[str]:
        """Names of constraints/bounds violated at a point (for tests)."""
        bad = []
        for i, v in enumerate(self.variables):
            if values[i] < v.lb - tol or values[i] > v.ub + tol:
                bad.append(f"bound:{v.name}")
            if v.kind in (INTEGER, BINARY) and abs(
                values[i] - round(values[i])
            ) > INT_TOL:
                bad.append(f"integrality:{v.name}")
        for r, con in enumerate(self.constraints):
            act = sum(c * values[i] for i, c in con.coeffs.items())
            if con.relation == LE and act > con.rhs + tol:
                bad.append(f"row:{con.name or r}")
            elif con.relation == GE and act < con.rhs - tol:
                bad.append(f"row:{con.name or r}")
            elif con.relation == EQ and abs(act - con.rhs) > tol:
                bad.append(f"row:{con.name or r}")
        return bad


# --- solutions ---

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
TIME_LIMIT = "TimeLimit"
NODE_LIMIT = "NodeLimit"


@dataclass
class Solution:
    status: str
    values: dict[str, float] = field(default_factory=dict)
    objective_value: float | None = None
    secondary_value: float | None = None
    best_bound: float | None = None
    node_count: int = 0
    lp_iterations: int = 0  # HiGHS simplex iterations
    cut_counts: dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0
    stage2_fallback: bool = False  # lexicographic stage 2 gave no point

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    def value_array(self, problem: MipProblem) -> np.ndarray:
        return np.array([self.values[v.name] for v in problem.variables])

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "values": self.values,
            "objective_value": self.objective_value,
            "secondary_value": self.secondary_value,
            "best_bound": self.best_bound,
            "node_count": self.node_count,
            "lp_iterations": self.lp_iterations,
            "cut_counts": self.cut_counts,
            "wall_time": self.wall_time,
            "stage2_fallback": self.stage2_fallback,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Solution":
        doc = json.loads(text)
        return cls(
            status=doc["status"],
            values=dict(doc.get("values", {})),
            objective_value=doc.get("objective_value"),
            secondary_value=doc.get("secondary_value"),
            best_bound=doc.get("best_bound"),
            node_count=int(doc.get("node_count", 0)),
            lp_iterations=int(doc.get("lp_iterations", 0)),
            cut_counts=dict(doc.get("cut_counts", {})),
            wall_time=float(doc.get("wall_time", 0.0)),
            stage2_fallback=bool(doc.get("stage2_fallback", False)),
        )


# --- LP text format (debug interchange) ---


def _lp_term(coeff: float, name: str) -> str:
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    return f"{sign} {mag:.12g} {name}"


def write_lp(problem: MipProblem, path: str) -> None:
    """Write the problem in the conventional LP text format."""
    lines = []
    obj = problem.objective or Objective(MIN, {})
    lines.append("Maximize" if obj.sense == MAX else "Minimize")
    terms = " ".join(
        _lp_term(c, problem.variables[i].name) for i, c in sorted(obj.coeffs.items())
    )
    lines.append(" obj: " + (terms.lstrip("+ ") if terms else "0"))
    lines.append("Subject To")
    for r, con in enumerate(problem.constraints):
        terms = " ".join(
            _lp_term(c, problem.variables[i].name) for i, c in sorted(con.coeffs.items())
        )
        rel = {LE: "<=", GE: ">=", EQ: "="}[con.relation]
        row_name = con.name or f"c{r}"
        lines.append(f" {row_name}: {terms.lstrip('+ ') or '0'} {rel} {con.rhs:.12g}")
    lines.append("Bounds")
    for v in problem.variables:
        lo = f"{v.lb:.12g}" if np.isfinite(v.lb) else "-inf"
        hi = f"{v.ub:.12g}" if np.isfinite(v.ub) else "+inf"
        lines.append(f" {lo} <= {v.name} <= {hi}")
    generals = [v.name for v in problem.variables if v.kind == INTEGER]
    binaries = [v.name for v in problem.variables if v.kind == BINARY]
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(generals))
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_lp_expr(tokens: list[str]) -> dict[str, float]:
    coeffs: dict[str, float] = {}
    sign = 1.0
    pending: float | None = None
    for tok in tokens:
        if tok == "+":
            continue
        if tok == "-":
            sign = -sign
            continue
        try:
            num = float(tok)
        except ValueError:
            coeff = sign * (1.0 if pending is None else pending)
            coeffs[tok] = coeffs.get(tok, 0.0) + coeff
            sign, pending = 1.0, None
        else:
            pending = num if pending is None else pending * num
    return coeffs


def read_lp(path: str) -> MipProblem:
    """Read a problem written by :func:`write_lp` (restricted LP dialect)."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    problem = MipProblem(name=path)
    section = None
    sense = MIN
    obj_tokens: list[str] = []
    rows: list[tuple[str, list[str], str, float]] = []
    bounds: list[tuple[float, str, float]] = []
    generals: set[str] = set()
    binaries: set[str] = set()
    for ln in raw:
        low = ln.lower()
        if low in ("maximize", "minimize"):
            section = "obj"
            sense = MAX if low == "maximize" else MIN
            continue
        if low == "subject to":
            section = "rows"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low == "generals":
            section = "generals"
            continue
        if low == "binaries":
            section = "binaries"
            continue
        if low == "end":
            break
        if section == "obj":
            body = ln.split(":", 1)[1] if ":" in ln else ln
            obj_tokens.extend(body.split())
        elif section == "rows":
            name, body = ln.split(":", 1) if ":" in ln else ("", ln)
            for rel in (LE, GE, EQ):
                if rel in body:
                    lhs, rhs = body.rsplit(rel, 1)
                    rows.append((name.strip(), lhs.split(), rel, float(rhs)))
                    break
            else:
                raise MipError(f"cannot parse LP row: {ln!r}")
        elif section == "bounds":
            parts = ln.split("<=")
            if len(parts) != 3:
                raise MipError(f"cannot parse LP bound: {ln!r}")
            lo = float("-inf") if parts[0].strip() == "-inf" else float(parts[0])
            hi = float("inf") if parts[2].strip() == "+inf" else float(parts[2])
            bounds.append((lo, parts[1].strip(), hi))
        elif section == "generals":
            generals.update(ln.split())
        elif section == "binaries":
            binaries.update(ln.split())
    bound_map = {name: (lo, hi) for lo, name, hi in bounds}
    names: list[str] = []
    seen = set()

    def note(tokens):
        for tok in tokens:
            if tok in ("+", "-"):
                continue
            try:
                float(tok)
            except ValueError:
                if tok not in seen:
                    seen.add(tok)
                    names.append(tok)

    note(obj_tokens)
    for _, tokens, _, _ in rows:
        note(tokens)
    names.extend(n for n in bound_map if n not in seen)
    for name in names:
        lo, hi = bound_map.get(name, (0.0, float("inf")))
        kind = BINARY if name in binaries else INTEGER if name in generals else CONTINUOUS
        problem.add_variable(name, kind, lo, hi)
    obj = _parse_lp_expr(obj_tokens)
    problem.set_objective(sense, obj)
    for name, tokens, rel, rhs in rows:
        problem.add_constraint(_parse_lp_expr(tokens), rel, rhs, name=name)
    return problem

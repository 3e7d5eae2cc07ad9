"""In-memory mixed-integer linear programs and their solutions.

A problem keeps its columns as arrays (:attr:`MipProblem.names`,
:attr:`MipProblem.kinds`, :attr:`MipProblem.lb`, :attr:`MipProblem.ub`)
and its rows as CSR arrays (:class:`.rows.CompiledRows`) with a name
per row. :meth:`MipProblem.add_variables` adds one column or a block
of one kind. :meth:`MipProblem.add_constraint` takes one row as
a dict; :meth:`MipProblem.add_rows` takes a block of rows as arrays,
which is how a forest's rows go in. Either way the rows end up in one
row set, :attr:`MipProblem.rows`, which a search reads as it is. The
package reads columns and rows only in these forms; the
:class:`Variable` and :class:`Constraint` views are kept for the
benchmark. A problem is built in memory and handed to the solver;
nothing writes it to a file.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import NamedTuple

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


class Variable(NamedTuple):
    """One column read off a problem's arrays (:attr:`MipProblem.variables`)."""

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
    """Columns, linear rows and up to two objectives.

    Integer and binary columns must carry finite bounds. ``expr_map``
    associates external decision names with affine expressions over the
    problem's columns so objective lowering and variable fixing work
    the same whether a decision is a plain column or a derived form.

    Columns and rows are only ever appended, and only column bounds are
    written in place (:attr:`lb`, :attr:`ub`). New columns wait until
    the column arrays are next read, and new rows, as blocks and as
    dicts added one at a time, until :attr:`rows` is; the read appends
    them all at once. A copy gets its own bounds and names, and shares
    the read-only kinds and the row set as it stands (arrays are never
    changed in place): what it appends goes into arrays of its own.
    """

    def __init__(self, name: str = "problem"):
        self.name = name
        self.names: list[str] = []  # per column, for reading
        self.objective: Objective | None = None
        self.secondary: Objective | None = None
        self.expr_map: dict[str, AffineExpr] = {}
        self._index: dict[str, int] = {}
        self._kinds = np.empty(0, dtype="<U10")  # room for the longest kind
        self._lb = np.empty(0)
        self._ub = np.empty(0)
        # columns added since the last read: (kind, lb, ub) per call
        self._new: list[tuple[str, np.ndarray, np.ndarray]] = []
        self._rows = CompiledRows.empty(0)
        self._row_names: list[str] = []
        self._blocks: list[CompiledRows] = []  # rows added since the last read
        self._pending: list[tuple[dict[int, float], str, float]] = []  # dict rows after them
        self._views: tuple[Constraint, ...] = ()

    # --- construction ---

    def add_variable(
        self, name: str, kind: str = CONTINUOUS, lb: float = 0.0, ub: float = float("inf")
    ) -> int:
        """One column; its index (:meth:`add_variables` with one name)."""
        return self.add_variables((name,), kind, lb, ub).start

    def add_variables(
        self, names, kind: str = CONTINUOUS, lb=0.0, ub=float("inf")
    ) -> range:
        """One column per name, all of one kind; their indices.

        ``lb`` and ``ub`` each give one bound for every column, or an
        array of one bound per column, copied here; ±inf is a bound, NaN
        is not. A binary column's bounds are clamped to [0, 1], and an
        integer or binary one needs finite bounds. An error names the
        first column in error.
        """
        names = list(names)
        m = len(names)
        start = len(self.names)
        stop = start + m
        if not names:
            return range(start, start)
        if kind not in (CONTINUOUS, INTEGER, BINARY):
            raise MipError(f"unknown variable kind {kind!r}")
        lb, ub = np.array(lb, dtype=float), np.array(ub, dtype=float)  # copies
        for bound in (lb, ub):
            if bound.shape not in ((), (m,)):
                raise MipError(f"bounds of shape {bound.shape} given for {m} variables")
        lb, ub = np.broadcast_to(lb, m), np.broadcast_to(ub, m)
        if kind == BINARY:
            lb, ub = np.maximum(0.0, lb), np.minimum(1.0, ub)
        nan = np.isnan(lb) | np.isnan(ub)
        if nan.any():
            raise MipError(f"variable {names[int(np.argmax(nan))]!r} has a NaN bound")
        if kind != CONTINUOUS:
            infinite = ~(np.isfinite(lb) & np.isfinite(ub))
            if infinite.any():
                raise MipError(
                    f"integer variable {names[int(np.argmax(infinite))]!r} needs finite bounds"
                )
        empty = lb > ub + 1e-12
        if empty.any():
            at = int(np.argmax(empty))
            raise MipError(f"variable {names[at]!r} has empty domain [{lb[at]}, {ub[at]}]")
        self._index.update(zip(names, range(start, stop)))
        if len(self._index) < stop:  # a name repeats, or was taken
            self._index = dict(zip(self.names, range(start)))
            seen = set(self._index)
            dup = next(n for n in names if n in seen or seen.add(n))
            raise MipError(f"duplicate variable name {dup!r}")
        self._new.append((kind, lb, ub))
        self.names += names
        return range(start, stop)

    def var_index(self, name: str) -> int:
        return self._index[name]

    def _close_columns(self) -> None:
        """Append the columns added since the last read to the arrays."""
        if self._new:
            kinds, lb, ub = zip(*self._new)
            self._new = []
            counts = [len(b) for b in lb]
            self._kinds = np.concatenate((self._kinds, np.repeat(kinds, counts)))
            self._kinds.flags.writeable = False
            self._lb = np.concatenate((self._lb, *lb))
            self._ub = np.concatenate((self._ub, *ub))

    def _coerce_coeffs(self, coeffs) -> dict[int, float]:
        """Coefficients by column index; zeros dropped, repeats summed."""
        out: dict[int, float] = {}
        index, n = self._index, len(self.names)
        summed = False
        for key, val in coeffs.items():
            if type(key) is int:  # also keeps bool out
                idx = key
            elif isinstance(key, str):
                idx = index.get(key, -1)
            elif isinstance(key, np.integer):
                idx = int(key)
            else:
                raise MipError(f"coefficient key {key!r} is neither a column index nor a name")
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
        coefficients are dropped. Returns the row's index. The rhs may be
        ±inf but not NaN."""
        if relation not in (LE, EQ, GE):
            raise MipError(f"unknown relation {relation!r}")
        at = len(self._row_names)
        rhs = float(rhs)
        if math.isnan(rhs):
            raise MipError(f"row {name or at!r} has a NaN rhs")
        self._pending.append((self._coerce_coeffs(coeffs), relation, rhs))
        self._row_names.append(name)
        return at

    def add_rows(self, indptr, indices, data, relation, rhs, names) -> range:
        """Append a block of rows given as CSR arrays; their indices.

        Row ``r`` has the coefficients ``data[indptr[r]:indptr[r + 1]]``
        on the columns ``indices[indptr[r]:indptr[r + 1]]``, in that
        order, each column at most once. Zero coefficients are dropped,
        as :meth:`add_constraint` drops them, so both give the same
        row. ``relation`` is one relation for every row or one per row,
        and ``rhs`` holds one per row, as :meth:`add_constraint` takes it.
        """
        # copies, as add_variables copies its bounds: the rows stay as
        # stated whatever the caller later writes into its arrays
        indptr = np.array(indptr, dtype=np.intp)
        indices = np.array(indices, dtype=np.intp)
        data = np.array(data, dtype=float)
        rhs = np.array(rhs, dtype=float)
        names = list(names)
        m = len(names)
        if (
            indptr.shape != (m + 1,) or rhs.shape != (m,)
            or indices.ndim != 1 or data.shape != indices.shape
        ):
            raise MipError(
                "a block needs row pointers, one rhs and one name per row, "
                "and one coefficient per column index"
            )
        lengths = indptr[1:] - indptr[:-1]
        if indptr[0] != 0 or indptr[-1] != len(indices) or (lengths < 0).any():
            raise MipError("a block's row pointers must run from 0 to its entry count")
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
        nan = np.isnan(rhs)
        if nan.any():
            at = int(np.argmax(nan))
            raise MipError(f"row {names[at] or len(self._row_names) + at!r} has a NaN rhs")
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
        self._blocks.append(CompiledRows(
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
        self._blocks.append(CompiledRows(
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
        return len(self.names)

    @property
    def kinds(self) -> np.ndarray:
        """Each column's kind (:data:`CONTINUOUS`, :data:`INTEGER` or
        :data:`BINARY`), read-only."""
        self._close_columns()
        return self._kinds

    @property
    def lb(self) -> np.ndarray:
        """Each column's lower bound. Writing an entry sets that bound;
        after adding columns, read the array again."""
        self._close_columns()
        return self._lb

    @property
    def ub(self) -> np.ndarray:
        """Each column's upper bound, as :attr:`lb`."""
        self._close_columns()
        return self._ub

    @property
    def rows(self) -> CompiledRows:
        """The stated rows over the problem's columns, in the order added.

        The row set is kept until a row or a column is added, so every
        search of an unchanged problem, or of a copy that added no row,
        reads the same one, and with it the half-row layout it built the
        first time it was propagated. A row set derived from it builds
        its own.
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

        No code in the package reads rows this way; the view is kept for
        the benchmark's ``milp`` oracle and tracer, which still do. The
        views are read off :attr:`rows` when first asked for and kept;
        they are for reading, and changing one changes no row.
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

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The columns as :class:`Variable` views, in column order.

        No code in the package reads columns this way; the view is kept
        for the benchmark's ``milp`` oracle, self-test and tracer, which
        still do. The views are read off the arrays on every call, since
        fixing writes bounds in place, and they cannot be changed.
        """
        return tuple(map(
            Variable, self.names, self.kinds.tolist(), self.lb.tolist(), self.ub.tolist()
        ))

    def copy(self) -> "MipProblem":
        """A problem over copies of the bounds, names, objectives and
        decision expressions that shares the kinds and the rows as they
        stand.

        Columns and rows added to the copy are its own, and columns and
        rows added here later do not reach it.
        """
        self._close_columns()
        other = copy.copy(self)
        other._rows = self.rows
        other._row_names = list(self._row_names)
        other._blocks, other._pending = [], []
        other.names, other._new = list(self.names), []
        other._lb, other._ub = self._lb.copy(), self._ub.copy()
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
        """What a point violates: ``bound:``/``integrality:`` per column,
        in column order, then ``row:`` with each broken row's name, or
        its index when it has none, in row order."""
        values = np.asarray(values, dtype=float)
        out_of_bounds = (values < self.lb - tol) | (values > self.ub + tol)
        fractional = (self.kinds != CONTINUOUS) & (
            np.abs(values - np.round(values)) > INT_TOL
        )
        bad = []
        for i in np.flatnonzero(out_of_bounds | fractional).tolist():
            if out_of_bounds[i]:
                bad.append(f"bound:{self.names[i]}")
            if fractional[i]:
                bad.append(f"integrality:{self.names[i]}")
        rows = self.rows
        act = rows.matrix_t.T @ values
        broken = (rows.le & (act > rows.rhs + tol)) | (rows.ge & (act < rows.rhs - tol))
        bad += [f"row:{self._row_names[r] or r}" for r in np.flatnonzero(broken).tolist()]
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
    # lexicographic stage 1 came from the memo: a fact of the process,
    # not of the problem, so kept out of to_dict
    stage1_reused: bool = False

    def value_array(self, problem: MipProblem) -> np.ndarray:
        return np.array([self.values[name] for name in problem.names])

    def to_dict(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "stage1_reused"
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Solution":
        """A solution from the keys that name a field; other keys are
        ignored and a missing field takes its default."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in json.loads(text).items() if k in names})

"""One persistent HiGHS LP model, re-solved under changing column bounds.

scipy bundles HiGHS, and its private binding
``scipy.optimize._highspy._core._Highs`` exposes the solver object
itself. This module is the only place that imports it. A
:class:`HighsLp` is a search's LP relaxation: it passes the model once,
from the row-wise CSR arrays of a :class:`~.rows.CompiledRows`, and
then only changes column bounds (:meth:`HighsLp.solve`, which passes
them only when they differ from the last ones) or appends rows
(:meth:`HighsLp.add_rows`). It keeps the rows HiGHS holds as
``HighsLp.rows``, cuts included, which is what cut separation reads,
and sums the simplex iterations of its solves.
HiGHS keeps its basis between runs and presolves only while the model
holds no valid basis, in practice on the first solve; every later solve
is a dual simplex warm-started from the basis it holds, by default the
last solve's. :meth:`HighsLp.snapshot` keeps a basis as an opaque
value and :meth:`HighsLp.restore` hands it back, so that each
branch-and-bound node's LP starts from its parent's basis. After an
optimal solve, :meth:`HighsLp.tableau` gives the simplex tableau that
Gomory cuts come from. Only the basic variables and rows of the basis
inverse B⁻¹ are read from HiGHS; a tableau row's column part,
``B⁻¹ row @ A``, is priced here in numpy from ``HighsLp.rows``, to the
same bits as HiGHS's own reduced row. No basis status is read: a
snapshot goes back to HiGHS whole, and the separator derives the side
each nonbasic sits at from the basic variables and the solution.

A search builds its own model, but not its own HiGHS object: building
one and running its first solve costs more than the same solve on an
object that has solved before. :meth:`HighsLp.release` hands the
object back when the search is done, emptied of its model, and the
next :class:`HighsLp` takes it; ``passModel`` replaces whatever the
object held, so an LP solves to the same bits on a reused object as on
a new one. At most :data:`SPARES` objects wait to be reused.

``METHODS`` names every ``_Highs`` method used here, so a test can check
that the installed scipy still has each of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core

from .problem import INFEASIBLE, MAX, OPTIMAL, UNBOUNDED, MipError
from .rows import CompiledRows

METHODS = (
    "addRows",
    "changeColsBounds",
    "clearModel",
    "getBasicVariables",
    "getBasis",
    "getBasisInverseRow",
    "getInfo",
    "getModelStatus",
    "getSolution",
    "modelStatusToString",
    "passModel",
    "run",
    "setBasis",
    "setOptionValue",
)

_STATUS = {
    _core.HighsModelStatus.kOptimal: OPTIMAL,
    _core.HighsModelStatus.kInfeasible: INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: UNBOUNDED,
}

# HiGHS objects handed back by released models. Searches run one at a
# time, each holding one object, so one spare is all that a later search
# can take. Emptying a spare does not give its memory back (one spare
# adds about 2.3 MB to peak RSS on the desk model), so only one is kept.
SPARES = 1
_spares: list = []


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0


# HiGHS's kHighsTiny: its reduced rows hold 0 where |value| is no larger
PRICE_TINY = 1e-14


class Tableau:
    """The basis of a solve and its simplex tableau rows.

    ``basic[i]`` names the variable basic in tableau row i: column j for
    ``j >= 0``, the activity ``a_k @ x`` of row k for ``-1 - k``. Every
    other column and row activity is nonbasic.

    From HiGHS come ``basic`` and, for each tableau row asked for, its
    row of B⁻¹ (:meth:`binv`), one call per row. The row's column part,
    ``reduced = binv @ A`` with A the model's rows, is priced here
    (:meth:`reduced`): each column adds its terms over the rows in
    ascending row order, from 0.0, and an entry of size at most
    ``PRICE_TINY`` becomes 0. That is how HiGHS's ``getReducedRow``
    forms it, and the two agree bit for bit.

    Valid until the model is solved again or changed.
    """

    def __init__(self, highs, rows: CompiledRows):
        self._highs = highs
        self._rows = rows
        status, self.basic = highs.getBasicVariables()
        HighsLp._check(status, "getBasicVariables")

    def binv(self, batch) -> np.ndarray:
        """The rows of B⁻¹ of the tableau rows ``batch``, one row each."""
        binv = np.empty((len(batch), self._rows.m))
        for r, i in enumerate(batch):
            status, binv[r] = self._highs.getBasisInverseRow(int(i))
            HighsLp._check(status, "getBasisInverseRow")
        return binv

    def reduced(self, binv: np.ndarray) -> np.ndarray:
        """The column part ``binv @ A`` of the tableau rows whose B⁻¹
        rows are ``binv``, one row each, as HiGHS forms it."""
        k, m = binv.shape
        q = np.flatnonzero(binv != 0)  # by tableau row, then ascending row
        at = q // m
        reduced = self._rows.combine(k, at, q - at * m, binv.take(q))
        reduced[np.abs(reduced) <= PRICE_TINY] = 0.0
        return reduced


class HighsLp:
    """``c @ x`` maximized or minimized over rows and per-solve bounds.

    ``rows`` holds the rows of the model, the cuts added so far after
    the rows it was built from; ``iterations`` sums the simplex
    iterations of every solve. The HiGHS object is a spare when one
    waits, a new one otherwise; :meth:`release` hands it back.
    """

    def __init__(self, c: np.ndarray, rows: CompiledRows, sense: str):
        self.n = len(c)
        self.rows = rows
        self.iterations = 0
        # HiGHS always minimizes here, with the costs negated for a
        # maximum, as scipy's linprog hands it every LP. Under HiGHS's own
        # maximize sense the dual simplex may pick other optimal vertices:
        # without cuts, the four desk day-3 cells took 458 nodes, not 355,
        # while each node LP started from the last basis; since nodes
        # start from their parent's basis, both senses take 351.
        self.sign = -1.0 if sense == MAX else 1.0
        self.cols = np.arange(self.n, dtype=np.int32)
        try:
            self._highs = _spares.pop()
        except IndexError:
            self._highs = _core._Highs()
            self._highs.setOptionValue("output_flag", False)
        # the column bounds HiGHS holds; each solve passes the ones it changes
        self._bounds = (np.zeros(self.n), np.zeros(self.n))
        lower, upper = rows.row_bounds
        self._check(
            self._highs.passModel(
                self.n, rows.m, len(rows.data), int(_core.MatrixFormat.kRowwise),
                int(_core.ObjSense.kMinimize), 0.0, self.sign * c, *self._bounds,
                lower, upper, rows.indptr[:-1], rows.indices, rows.data,
                np.zeros(self.n, dtype=np.int32),  # integrality: every column continuous
            ),
            "passModel",
        )

    def release(self) -> None:
        """Hand the HiGHS object back, emptied, for a later model to
        reuse; this model can no longer be solved or changed. ``rows``
        and ``iterations`` stay readable."""
        h, self._highs = self._highs, None
        if h is not None and len(_spares) < SPARES:
            h.clearModel()
            _spares.append(h)

    def add_rows(self, rows: CompiledRows) -> None:
        """Append rows to the model and to ``self.rows``.

        The current basis stays valid for the next solve.
        """
        lower, upper = rows.row_bounds
        self._check(
            self._highs.addRows(
                rows.m, lower, upper, len(rows.data), rows.indptr[:-1],
                rows.indices, rows.data,
            ),
            "addRows",
        )
        self.rows = self.rows.append(rows)

    def solve(self, lb, ub) -> LpResult:
        """The LP under these column bounds, with its simplex iterations.

        ``x`` and ``objective`` are None unless the status is optimal.
        A HiGHS outcome other than optimal, infeasible or unbounded
        raises :class:`MipError` with the HiGHS status name. Only the
        columns whose bounds differ from the ones HiGHS holds are passed
        to it, and none after a cut round's ``add_rows``. The solve
        starts from the basis HiGHS holds: the last solve's, or the one
        :meth:`restore` handed back since, as a node's parent basis.
        """
        h = self._highs
        held_lb, held_ub = self._bounds
        changed = np.flatnonzero((lb != held_lb) | (ub != held_ub))
        if len(changed):
            lo, hi = lb[changed], ub[changed]
            self._check(
                h.changeColsBounds(len(changed), self.cols[changed], lo, hi), "changeColsBounds"
            )
            held_lb[changed], held_ub[changed] = lo, hi
        run_status = h.run()
        model_status = h.getModelStatus()
        status = _STATUS.get(model_status)
        if status is None or run_status == _core.HighsStatus.kError:
            raise MipError(
                f"LP backend failure: HiGHS status {h.modelStatusToString(model_status)}"
            )
        info = h.getInfo()
        res = LpResult(status=status, iterations=info.simplex_iteration_count)
        self.iterations += res.iterations
        if status == OPTIMAL:
            res.x = np.array(h.getSolution().col_value)
            res.objective = self.sign * info.objective_function_value
        return res

    def snapshot(self):
        """The basis of the last solve, an opaque value that
        :meth:`restore` hands back to HiGHS; later solves leave it as it
        is."""
        return self._highs.getBasis()

    def restore(self, basis) -> None:
        """Make ``basis``, a :meth:`snapshot` of this model with the rows
        it holds now, the one the next solve starts from."""
        self._check(self._highs.setBasis(basis), "setBasis")

    def tableau(self) -> Tableau:
        """The basis of the last solve, which must have been optimal."""
        return Tableau(self._highs, self.rows)

    @staticmethod
    def _check(status, call: str) -> None:
        if status == _core.HighsStatus.kError:
            raise MipError(f"LP backend failure: HiGHS {call} returned an error")

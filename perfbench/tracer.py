"""Spans around calls into fleetopt's layers, installed from outside.

``Tracer.install`` replaces module attributes (public entry points and
the solver's module-level callees) with wrappers that record a span per
call: layer name, start, end, parent span and the operation it belongs
to. Nothing in fleetopt is edited; ``uninstall`` puts the originals
back. A hook whose target no longer exists, or whose result no longer
has the fields counted, is listed in ``absent`` rather than raising, so
a later rename shows up as a missing layer.

Self time of a span is its duration minus the time covered by its child
spans, so the self times of every span under an operation sum to the
operation's duration.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

from fleetopt.mip import BINARY, OPTIMAL, TIME_LIMIT


def _on_model(tracer, kwargs, result, duration):
    mip = result[0]
    tracer.count["model.columns"] += len(mip.variables)
    tracer.count["model.rows"] += len(mip.constraints)
    tracer.count["model.binaries"] += sum(v.kind == BINARY for v in mip.variables)
    tracer.count["model.nonzeros"] += sum(len(r.coeffs) for r in mip.constraints)


def _on_reduce(tracer, kwargs, result, duration):
    tracer.count["reduce.kept_columns"] += len(result.keep)


def _on_cuts(tracer, kwargs, result, duration):
    tracer.count["cuts.added"] += len(result)


def _on_bnb(tracer, kwargs, result, duration):
    # the lexicographic driver passes the secondary as ``objective`` in stage 2
    stage = "stage2" if kwargs.get("objective") is not None else "stage1"
    tracer.stage_s[stage] += duration
    tracer.count["bnb.nodes"] += result.node_count
    if stage == "stage2":
        tracer.last_stage2 = result


def _on_lex(tracer, kwargs, result, duration):
    # stage 2 ran but gave no usable point: the driver returned stage 1
    stage2, tracer.last_stage2 = tracer.last_stage2, None
    if stage2 is not None and (stage2.status not in (OPTIMAL, TIME_LIMIT) or not stage2.values):
        tracer.count["lex.fallbacks"] += 1


def _on_agent(tracer, kwargs, result, duration):
    tracer.count["agent.iterations"] += len(result.iterations)
    tracer.count["agent.retries"] += sum(
        any("re-prompting" in note for note in r.notes) for r in result.iterations
    )


# (module, attribute, layer, on-return hook). The same function may be
# reachable under several modules; each binding is wrapped.
HOOKS = (
    ("fleetopt.agent.loop", "run_agent", "agent", _on_agent),
    ("fleetopt.agent.loop", "indicator_generate", "indicator", None),
    ("fleetopt.agent.indicator", "indicator_generate", "indicator", None),
    ("fleetopt.agent.guides", "DeterministicGuide.propose", "guide", None),
    ("fleetopt.agent.loop", "build_agent_model", "model", _on_model),
    ("fleetopt.agent.loop", "fix_variables", "fix", None),
    ("fleetopt.agent.loop", "lexicographic_solve", "lex", _on_lex),
    ("fleetopt.mip.solver", "lexicographic_solve", "lex", _on_lex),
    ("fleetopt.mip.solver", "branch_and_bound", "bnb", _on_bnb),
    ("fleetopt.mip.solver", "_reduce", "reduce", _on_reduce),
    ("fleetopt.mip.solver", "_propagate", "propagate", None),
    ("fleetopt.mip.solver", "linprog", "lp.highs", None),
    ("fleetopt.mip.solver", "solve_lp_dense", "lp.simplex", None),
    ("fleetopt.mip.cuts", "gomory_cuts", "cuts", _on_cuts),
    ("fleetopt.mip.cuts", "cover_cuts_raw", "cuts", _on_cuts),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []  # (id, parent, op, layer, start, end)
        self._stack: list[list] = []  # [span id, layer, start, child time]
        self.op = None
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.stage_s = defaultdict(float)
        self.last_stage2 = None

    # --- installation ---

    def install(self) -> None:
        for module_name, attr, layer, hook in HOOKS:
            owner_name, _, name = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, hook))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def absent_layers(self) -> set[str]:
        return {layer for m, a, layer, _ in HOOKS if f"{m}.{a}" in self.absent}

    # --- spans ---

    def begin(self, layer: str) -> None:
        span_id = len(self.spans) + len(self._stack)
        self._stack.append([span_id, layer, time.perf_counter(), 0.0])

    def end(self) -> float:
        now = time.perf_counter()
        span_id, layer, start, child = self._stack.pop()
        duration = now - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, parent, self.op, layer, start, now))
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        return duration

    def _wrap(self, fn, layer, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.end()
            if hook is not None:
                try:
                    hook(tracer, kwargs, result, duration)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # the result changed shape: its counts are absent
                    if f"{layer} counts" not in tracer.absent:
                        tracer.absent.append(f"{layer} counts")
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "op", "layer", "start", "end"],
                    "spans": self.spans,
                    "absent": self.absent,
                },
                fh,
            )

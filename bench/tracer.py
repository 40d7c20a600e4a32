"""In-memory span recorder around goalc's public functions.

``Tracer.install`` replaces each traced function with a wrapper in every
goalc module that holds it (so calls through ``from .x import f`` bindings
are seen too) and ``uninstall`` puts the originals back.  goalc itself is
not modified.  A span is ``[name, start, end, parent index, id]``; the id
names the workload unit (case, run, tick) the span belongs to.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: Traced functions as (module, attribute path).  The span name is
#: ``<module>.<attribute path>`` and its layer is the module.
TARGETS = (
    ("cgm", "parse_model"), ("cgm", "validate"),
    ("compiler", "compile_model"),
    ("symexpr", "evaluate"), ("symexpr", "substitute"),
    ("symexpr", "rename_params"), ("symexpr", "render"),
    ("runtime", "load_policy"), ("runtime", "initial_state"),
    ("runtime", "monitor_ingest"), ("runtime", "analyze"),
    ("runtime", "plan"), ("runtime", "execute"),
    ("bsnsim", "load_scenario"), ("bsnsim", "run"), ("bsnsim", "World.step"),
    ("oracle", "check_formula"), ("oracle", "prob_reach"),
    ("oracle", "cost_reach"),
    ("prismgen", "emit_model"), ("prismgen", "emit_properties"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.ident = ""
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def wrap(self, name: str, fn: Callable,
             on_call: Optional[Callable] = None,
             on_return: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.ident]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import goalc
        from goalc import symexpr

        hooks = {
            "runtime.monitor_ingest": (
                lambda t, a, k: t.count("runtime.monitor_ingest.events", len(a[1])), None),
            "runtime.execute": (
                None, lambda t, r: t.count("runtime.execute.commands", len(r))),
            "bsnsim.World.step": (
                None, lambda t, r: t.count("bsnsim.events", len(r))),
        }
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("goalc.") and m is not None]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            owner = getattr(goalc, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner, attr = getattr(owner, cls_name), meth
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, *hooks.get(name, (None, None)))
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        # Count SymExpr constructions: the operation count of the algebra.
        init = symexpr.SymExpr.__init__

        def counted_init(obj, *args, **kwargs):
            self.counts["symexpr.exprs_built"] += 1
            init(obj, *args, **kwargs)

        self._undo.append((symexpr.SymExpr, "__init__", init))
        symexpr.SymExpr.__init__ = counted_init

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def settle(self) -> None:
        """Close spans left open by an asynchronous abort (the compile budget)."""
        now = time.perf_counter()
        self._stack.clear()
        for rec in self.spans:
            if rec[1] == 0.0:
                rec[1] = now
            if rec[2] == 0.0:
                rec[2] = now

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its direct children.

        Raises ValueError if a child span is not inside its parent's interval,
        since self time would then not account for the parent's span.
        """
        spans = self.spans
        out = [rec[2] - rec[1] for rec in spans]
        for rec in spans:
            if rec[3] >= 0:
                parent = spans[rec[3]]
                if not parent[1] <= rec[1] <= rec[2] <= parent[2]:
                    raise ValueError(f"span {rec[0]} escapes its parent {parent[0]}")
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def summary(self) -> Dict[str, object]:
        """Per-name durations (s), per-name self time (s), per-layer self time (s)."""
        selfs = self.self_times()
        durations: Dict[str, List[float]] = defaultdict(list)
        self_by_name: Dict[str, float] = defaultdict(float)
        self_by_layer: Dict[str, float] = defaultdict(float)
        for rec, own in zip(self.spans, selfs):
            durations[rec[0]].append(rec[2] - rec[1])
            self_by_name[rec[0]] += own
            self_by_layer[rec[0].split(".")[0]] += own
        roots = sum(rec[2] - rec[1] for rec in self.spans if rec[3] < 0)
        return {"durations": durations, "self_by_name": self_by_name,
                "self_by_layer": self_by_layer, "root_s": roots,
                "self_s": sum(selfs)}

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

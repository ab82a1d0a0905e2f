"""Layer tracing from outside the program: wrap statmenus' public functions.

Modules bind each other's functions by name (``from .testmodel import
power``), so a function is wrapped where its callers look it up: in every
*other* ``statmenus`` module that imported it. Calls inside the defining
module are not layer crossings and stay unwrapped, except for the few entry
points in ``INTRA_MODULE`` that are only ever called from their own module.

Every wrapped function is aggregated per thread into calls, total time and
self time (total minus the time of wrapped calls it made on the same
thread). ``ENTRY_POINTS`` and the CLI command also keep one span per call
(name, start, end, parent span). Threads of a pool start with an empty
stack, so their calls have no parent and are not subtracted from the
caller's self time. The ``MEMORY_PEAK`` function runs under ``tracemalloc``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import tracemalloc
from typing import Callable, Dict, List

INTRA_MODULE = frozenset(
    {
        "cli.parse_config",
        "builders.elicitable_range",
        "sensitivity.implied_true_type",
        "sensitivity.fdr_gap_fixed_reward",
    }
)
ENTRY_POINTS = frozenset(
    {
        "cli.parse_config",
        "objectives.threshold_map",
        "objectives.oracle_tdr",
        "objectives.oracle_bayes_risk",
        "builders.build_fixed_reward",
        "builders.build_finite_menu",
        "builders.build_varying_reward",
        "builders.build_from_potential",
        "builders.elicitable_range",
        "contracts.verify_separating",
        "evaluation.frontier",
        "evaluation.screening_cost",
        "evaluation.information_rent",
        "evaluation.principal_return",
        "evaluation.simulate_population",
        "sensitivity.sensitivity_sweep",
    }
)
MEMORY_PEAK = "evaluation.simulate_population"


class _ThreadState:
    __slots__ = ("stack", "aggs")

    def __init__(self):
        self.stack: List[list] = []  # frames: [child seconds, enclosing span id]
        self.aggs: Dict[str, list] = {}  # name -> [calls, total seconds, self seconds]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self.spans: List[tuple] = []
        self.peak_mb: Dict[str, float] = {}
        self.wrapped: List[str] = []

    def _thread_state(self) -> _ThreadState:
        state = _ThreadState()
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    def span(self, name: str, fn: Callable, per_call: bool = True) -> Callable:
        """Return ``fn`` wrapped so that its calls are recorded under ``name``."""
        local, new_state, spans = self._local, self._thread_state, self.spans
        clock = time.perf_counter
        peak = name == MEMORY_PEAK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent]
            if per_call:
                frame[1] = len(spans)
                spans.append(None)
            if peak:
                tracemalloc.start()
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if peak:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peak_mb[name] = max(mb, self.peak_mb.get(name, 0.0))
                agg = state.aggs.get(name)
                if agg is None:
                    agg = state.aggs[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                if per_call:
                    spans[frame[1]] = (name, start, end, parent)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every loaded ``statmenus`` module."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "statmenus" or name.startswith("statmenus.")
        }
        for mod_name, mod in sorted(modules.items()):
            if mod_name == "statmenus":
                continue
            layer = mod_name.rsplit(".", 1)[1].lstrip("_")  # metric names start with a letter
            for fn_name, fn in sorted(vars(mod).items()):
                if fn_name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod_name:
                    continue
                name = f"{layer}.{fn_name}"
                homes = [m for m in modules.values() if m is not mod and vars(m).get(fn_name) is fn]
                if name in INTRA_MODULE:
                    homes.append(mod)
                if not homes:
                    continue
                wrapper = self.span(name, fn, per_call=name in ENTRY_POINTS)
                for home in homes:
                    setattr(home, fn_name, wrapper)
                self.wrapped.append(name)

    def report(self) -> dict:
        """Aggregates merged over threads, spans, memory peaks and cache counters."""
        aggs: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_s) in state.aggs.items():
                agg = aggs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                agg["calls"] += calls
                agg["total_s"] += total
                agg["self_s"] += self_s
        cache = None
        cached = getattr(sys.modules.get("statmenus.objectives"), "_fdr_threshold_cached", None)
        if cached is not None and hasattr(cached, "cache_info"):
            info = cached.cache_info()
            cache = {"hits": info.hits, "misses": info.misses}
        return {
            "aggregates": aggs,
            "spans": [s for s in self.spans if s is not None],
            "peak_mb": dict(self.peak_mb),
            "threshold_cache": cache,
            "wrapped": list(self.wrapped),
        }

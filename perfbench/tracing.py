"""Per-layer spans and counts, recorded from outside the package.

Each layer boundary is a module-level function that its callers look up by
name at call time, or a method looked up on the policy or distribution class.
``Tracer.install`` rebinds every such name to a wrapper that records a span:
calls, total time, and self time (total minus the time of spans it caused).
Nothing inside the package changes.  A boundary that no longer exists is
listed in ``Tracer.absent`` and its metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

PACKAGE = "multisecretary"
MODULES = ("cli", "evaluate", "dp", "offline", "policies", "simulate", "distribution")

ROOT_SPAN = "cli"


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _after_solve(tracer, fn, elapsed, args, kwargs, table):
    a = _bound(fn, args, kwargs)
    tracer.counts["dp.cells"] += a["n"] * a["k"] * a["d"].m
    tracer.counts["dp.table_bytes"] += sum(
        v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))


def _after_forward(tracer, fn, elapsed, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tracer.counts["evaluate.forward_state_steps"] += a["n"] * (a["k"] + 1)
    tracer.counts["evaluate.forward_s." + a["policy"].name] += elapsed
    tracer.maxima["evaluate.forward_max_drift"] = max(
        tracer.maxima["evaluate.forward_max_drift"], float(result[1]))


def _after_expectation(tracer, fn, elapsed, args, kwargs, result):
    tracer.maxima["offline.error_bound_max"] = max(
        tracer.maxima["offline.error_bound_max"], float(result.error_bound))


def _after_sort_batch(tracer, fn, elapsed, args, kwargs, result):
    tracer.counts["offline.sort_rows"] += len(result)


def _after_uniform_block(tracer, fn, elapsed, args, kwargs, result):
    tracer.counts["simulate.uniforms"] += result.size


def _after_chunk(tracer, fn, elapsed, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tracer.counts["simulate.episode_steps"] += a["u"].shape[0] * a["n"]
    paths = result[2]
    if paths is not None:
        tracer.counts["simulate.paths_bytes"] += paths.nbytes


# (home module, function name, span name, hook run after each call)
FUNCTION_LAYERS = (
    ("policies", "make_policy", "policies.make", None),
    ("dp", "solve", "dp.solve", _after_solve),
    ("evaluate", "exact_regret", "evaluate.exact_regret", None),
    ("evaluate", "mc_regret", "evaluate.mc_regret", None),
    ("evaluate", "_forward_value", "evaluate.forward", _after_forward),
    ("offline", "offline_expectation", "offline.expectation", _after_expectation),
    ("offline", "offline_sort_batch", "offline.sort_batch", _after_sort_batch),
    ("simulate", "_uniform_block", "simulate.uniform_block", _after_uniform_block),
    ("simulate", "_simulate_chunk", "simulate.chunk", _after_chunk),
    ("simulate", "_orbit_scan", "simulate.orbit_scan", None),
)

# (module whose classes define the method, method name, span name)
METHOD_LAYERS = (
    ("policies", "rates", "policies.rates"),
    ("policies", "decide_batch", "policies.decide_batch"),
    ("distribution", "sample_many", "distribution.sample_many"),
)


class Tracer:
    """Aggregated spans and counts of one repetition at a time."""

    def __init__(self):
        self._stack: list = []
        self._undo: list = []
        self.absent: list = []
        self.reset()

    def reset(self) -> None:
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)

    def wrap(self, name: str, fn, after=None):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by the spans this one causes
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span = tracer.spans[name]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[0]
            if after is not None:
                after(tracer, fn, elapsed, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        for home, attr, span, after in FUNCTION_LAYERS:
            original = getattr(modules[home], attr, None)
            if original is None:
                self.absent.append(f"{home}.{attr}")
                continue
            wrapper = self.wrap(span, original, after)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._rebind(module, attr, wrapper)
        for home, attr, span in METHOD_LAYERS:
            module = modules[home]
            owners = [cls for cls in vars(module).values()
                      if inspect.isclass(cls) and cls.__module__ == module.__name__
                      and attr in vars(cls)]
            if not owners:
                self.absent.append(f"{home}.*.{attr}")
            for cls in owners:
                self._rebind(cls, attr, self.wrap(span, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the repetition since the last reset.

        ``*_s`` metrics are total span time, except ``cli.self_s``,
        ``policies.make_s`` and ``simulate.chunk_s``, which are self time.
        """
        def calls(name):
            return self.spans[name][0] if name in self.spans else 0

        def total(name):
            return self.spans[name][1] if name in self.spans else 0.0

        def self_time(name):
            return self.spans[name][2] if name in self.spans else 0.0

        out = {
            "cli.self_s": self_time(ROOT_SPAN),
            "policies.make_s": self_time("policies.make"),
            "policies.rates_s": total("policies.rates"),
            "policies.rates_calls": calls("policies.rates"),
            "policies.decide_batch_s": total("policies.decide_batch"),
            "policies.decide_batch_calls": calls("policies.decide_batch"),
            "dp.solve_s": total("dp.solve"),
            "dp.solve_calls": calls("dp.solve"),
            "evaluate.exact_regret_s": total("evaluate.exact_regret"),
            "evaluate.mc_regret_s": total("evaluate.mc_regret"),
            "evaluate.cells": calls("evaluate.exact_regret") + calls("evaluate.mc_regret"),
            "evaluate.forward_s": total("evaluate.forward"),
            "evaluate.forward_calls": calls("evaluate.forward"),
            "offline.expectation_s": total("offline.expectation"),
            "offline.expectation_calls": calls("offline.expectation"),
            "offline.sort_batch_s": total("offline.sort_batch"),
            "simulate.uniform_block_s": total("simulate.uniform_block"),
            "simulate.chunk_s": self_time("simulate.chunk"),
            "simulate.orbit_scan_s": total("simulate.orbit_scan"),
            "distribution.sample_many_s": total("distribution.sample_many"),
            "distribution.sample_many_calls": calls("distribution.sample_many"),
        }
        for policy in ("br", "dp", "ai", "index"):
            out["evaluate.forward_s." + policy] = 0.0
        for name in ("dp.cells", "dp.table_bytes", "evaluate.forward_state_steps",
                     "offline.sort_rows", "simulate.uniforms", "simulate.episode_steps",
                     "simulate.paths_bytes"):
            out[name] = 0
        out.update(self.counts)
        out.update(self.maxima)
        for name in ("evaluate.forward_max_drift", "offline.error_bound_max"):
            out.setdefault(name, 0.0)
        return out

    def self_time_sum(self) -> float:
        """Sum of every span's self time; equals the root span's total."""
        return sum(span[2] for span in self.spans.values())

    def table(self) -> list:
        return sorted(((name, *span) for name, span in self.spans.items()),
                      key=lambda row: -row[3])

"""Spans at commeq's layer boundaries, recorded from outside the package.

``Tracer.install()`` replaces each module-global name a caller looks up (for
example ``commeq.dynamics.exact_reward``, which ``run_dynamics`` calls, or
``commeq.learners._power_fixed_point``, which the learner step calls) with a
wrapper that records a span, and ``Tracer.restore()`` puts every original
back.  Spans live in memory, each with a name, start, end, parent and unit;
self time is computed from them afterwards.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("game", "transforms", "learners", "regret", "dynamics", "verifier",
          "simplexlp", "poa", "adversary", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index into Tracer.spans, -1 for a unit root
    unit: int                   # spans of one unit share this identifier
    counts: dict = field(default_factory=dict)


# counters read at the boundary: (args, kwargs, result) -> {counter: value}

def _fixed_point_iters(args, kwargs, result):
    return {"iters": result[2]}


def _sampled_draws(args, kwargs, result):
    from commeq.dynamics import sample_count
    game, i, _policies, epsilon, delta, _rng, horizon = _bound(
        args, kwargs, ("game", "i", "policies", "epsilon", "delta", "rng", "horizon"))
    max_ta = max(k * m for k, m in zip(game.num_types, game.num_actions))
    per_entry = sample_count(epsilon, delta, game.n, horizon, max_ta)
    return {"samples": game.num_types[i] * per_entry}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(args, kwargs, ("path",))[0])}


def _opponent_stack_bytes(args, kwargs, result):
    from commeq.game import MixtureDistribution
    game, i, dist = _bound(args, kwargs, ("game", "i", "dist"))
    if not isinstance(dist, MixtureDistribution):
        return {"stack_bytes": 0}
    cells = math.prod(k * m for j, (k, m) in enumerate(zip(game.num_types, game.num_actions))
                      if j != i)
    return {"stack_bytes": dist.num_components * cells * 8}


def _lp_columns(args, kwargs, result):
    return {"columns": int(np.shape(_bound(args, kwargs, ("a",))[0])[1])}


def _smoothness_cells(args, kwargs, result):
    game = _bound(args, kwargs, ("game",))[0]
    base = getattr(game, "base", game)
    return {"cells": math.prod(base.num_types) * math.prod(base.num_actions)}


def _bound(args, kwargs, names):
    """The leading parameters of a call, whether passed by position or name."""
    values = list(args[:len(names)])
    values += [kwargs[n] for n in names[len(values):]]
    return values


# (module, attribute path, span name, counter)
BOUNDARIES = (
    ("commeq.cli", "load_game", "game.load_game", None),
    ("commeq.cli", "validate_game", "game.validate_game", None),
    ("commeq.cli", "mixture_to_tabular", "game.mixture_to_tabular", None),
    ("commeq.verifier", "mixture_to_tabular", "game.mixture_to_tabular", None),
    ("commeq.poa", "mixture_to_tabular", "game.mixture_to_tabular", None),
    ("commeq.cli", "load_distribution", "cli.load_distribution", None),
    ("commeq.cli", "run_dynamics", "dynamics.run_dynamics", None),
    ("commeq.cli", "write_regret_csv", "dynamics.write_outputs", _written_bytes),
    ("commeq.cli", "write_equilibrium_json", "dynamics.write_outputs", _written_bytes),
    ("commeq.cli", "write_certificate_txt", "dynamics.write_outputs", _written_bytes),
    ("commeq.dynamics", "exact_reward", "dynamics.exact_reward", None),
    ("commeq.dynamics", "sampled_reward", "dynamics.sampled_reward", _sampled_draws),
    ("commeq.dynamics", "accumulate", "regret.accumulate", None),
    ("commeq.adversary", "accumulate", "regret.accumulate", None),
    ("commeq.dynamics", "external_regret", "regret.curve", None),
    ("commeq.dynamics", "typewise_regret", "regret.curve", None),
    ("commeq.dynamics", "untruthful_regret", "regret.curve", None),
    ("commeq.dynamics", "untruthful_bound", "regret.curve", None),
    ("commeq.learners", "UntruthfulSwapLearner.step", "learners.step", None),
    ("commeq.learners", "TypewiseSwapLearner.step", "learners.step", None),
    ("commeq.learners", "StrategySwapLearner.step", "learners.step", None),
    ("commeq.learners", "_power_fixed_point", "transforms.power_fixed_point",
     _fixed_point_iters),
    ("commeq.learners", "_solve_fixed_point", "transforms.lstsq_fallback", None),
    ("commeq.cli", "comm_eq_epsilon", "verifier.certificate", None),
    ("commeq.cli", "anf_bs_epsilon", "verifier.certificate", None),
    ("commeq.cli", "bne_epsilon", "verifier.certificate", None),
    ("commeq.cli", "coarse_epsilon", "verifier.certificate", None),
    ("commeq.cli", "sfce_epsilon", "verifier.certificate", None),
    ("commeq.poa", "comm_eq_epsilon", "verifier.certificate", None),
    ("commeq.verifier", "deviation_tensor", "verifier.deviation_tensor",
     _opponent_stack_bytes),
    ("commeq.verifier", "_sigma_epsilon", "verifier.strategy_classes", None),
    ("commeq.cli", "strategy_representable", "verifier.strategy_representable", None),
    ("commeq.verifier", "strategy_representable", "verifier.strategy_representable", None),
    ("commeq.verifier", "solve_equality_feasibility",
     "simplexlp.solve_equality_feasibility", _lp_columns),
    ("commeq.cli", "check_smoothness", "poa.check_smoothness", _smoothness_cells),
    ("commeq.poa", "check_smoothness", "poa.check_smoothness", _smoothness_cells),
    ("commeq.cli", "poa_report", "poa.poa_report", None),
    ("commeq.adversary", "build_instance", "adversary.build_instance", None),
    ("commeq.adversary", "check_instance", "adversary.check_instance", None),
    ("commeq.adversary", "run_experiment", "adversary.run_experiment", None),
)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans while installed; single use per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._unit = -1

    # -- wrappers -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        # a pool thread's first span belongs to whatever the main thread has open
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else -1

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        kwargs = kwargs or {}
        stack = self._stack()
        span = Span(name, 0.0, 0.0, self._parent(stack), self._unit)
        with self._lock:
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        for module, path, name, counter in BOUNDARIES:
            owner, attr = _owner(module, path)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def unit(self, fn):
        """Run ``fn()`` as one unit, under a root span named ``bench.unit``."""
        self._unit += 1
        return self.call("bench.unit", fn)

    # -- analysis -------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the part of it that child spans cover."""
        children: dict[int, list[int]] = {}
        for idx, span in enumerate(self.spans):
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(idx)
        out = np.empty(len(self.spans))
        for idx, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for c in sorted(children.get(idx, ()), key=lambda c: self.spans[c].start):
                lo, hi = max(self.spans[c].start, reach), min(self.spans[c].end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[idx] = (span.end - span.start) - covered
        return out

    def unit_walls(self) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == "bench.unit"]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: per-unit figures are medians over the traced units."""
        units = max(self._unit + 1, 1)
        selfs = self.self_times()
        by_name: dict[str, list[int]] = {}
        for idx, span in enumerate(self.spans):
            by_name.setdefault(span.name, []).append(idx)

        def per_unit(name, value) -> float:
            sums = np.zeros(units)
            for idx in by_name.get(name, ()):
                sums[self.spans[idx].unit] += value(idx)
            return float(np.median(sums))

        def busy(name):
            return per_unit(name, lambda i: self.spans[i].end - self.spans[i].start)

        def own(name):
            return per_unit(name, lambda i: selfs[i])

        def calls(name):
            return per_unit(name, lambda i: 1.0)

        def count(name, key):
            return per_unit(name, lambda i: self.spans[i].counts.get(key, 0))

        def us_pct(name, q):
            d = [self.spans[i].end - self.spans[i].start for i in by_name.get(name, ())]
            return float(np.percentile(d, q)) * 1e6 if d else 0.0

        def iters(reduce):
            its = [self.spans[i].counts["iters"]
                   for i in by_name.get("transforms.power_fixed_point", ())]
            return float(reduce(its)) if its else 0.0

        m = {}
        for name in ("dynamics.exact_reward", "learners.step"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.busy_s"] = busy(name)
            m[f"{name}.us_p50"] = us_pct(name, 50)
            m[f"{name}.us_p99"] = us_pct(name, 99)
        name = "dynamics.sampled_reward"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.us_p50"] = us_pct(name, 50)
        m[f"{name}.samples"] = count(name, "samples")
        m["dynamics.run_dynamics.busy_s"] = busy("dynamics.run_dynamics")
        m["dynamics.run_dynamics.self_s"] = own("dynamics.run_dynamics")
        name = "transforms.power_fixed_point"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.iters_mean"] = iters(np.mean)
        m[f"{name}.iters_max"] = iters(np.max)
        m["transforms.lstsq_fallback.calls"] = calls("transforms.lstsq_fallback")
        m["regret.accumulate.calls"] = calls("regret.accumulate")
        m["regret.accumulate.busy_s"] = busy("regret.accumulate")
        m["regret.accumulate.us_p50"] = us_pct("regret.accumulate", 50)
        m["regret.curve.busy_s"] = busy("regret.curve")
        for name in ("game.load_game", "game.validate_game", "game.mixture_to_tabular",
                     "cli.load_distribution", "verifier.strategy_representable",
                     "verifier.strategy_classes", "poa.poa_report",
                     "adversary.build_instance"):
            m[f"{name}.busy_s"] = busy(name)
        m["dynamics.write_outputs.busy_s"] = busy("dynamics.write_outputs")
        m["dynamics.write_outputs.bytes"] = count("dynamics.write_outputs", "bytes")
        name = "verifier.deviation_tensor"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.stack_bytes"] = count(name, "stack_bytes")
        name = "simplexlp.solve_equality_feasibility"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.columns"] = count(name, "columns")
        m["poa.check_smoothness.busy_s"] = busy("poa.check_smoothness")
        m["poa.check_smoothness.cells"] = count("poa.check_smoothness", "cells")
        m["adversary.run_experiment.self_s"] = own("adversary.run_experiment")
        layer_self = self.layer_self(selfs)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = float(np.median(layer_self[layer]))
        m["trace.wall_s"] = float(np.median(self.unit_walls()))
        return m

    def layer_self(self, selfs: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Self time per layer and unit; ``bench`` holds the benchmark's own share."""
        selfs = self.self_times() if selfs is None else selfs
        out = {layer: np.zeros(max(self._unit + 1, 1)) for layer in LAYERS + ("bench",)}
        for span, own in zip(self.spans, selfs):
            out[span.name.split(".", 1)[0]][span.unit] += own
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": s.name, "unit": s.unit,
                                     "parent": s.parent, "start": s.start - t0,
                                     "end": s.end - t0, **s.counts}) + "\n")

"""The benchmark's trace points (perfbench/spans.py) still name real callables.

The traced benchmark replaces each (module, attribute path) of
``spans.BOUNDARIES`` with a wrapper, so a renamed or moved function would
only show up when the benchmark runs.  The module is loaded from its file, as
the benchmark does, and not edited.
"""

import importlib.util
import inspect
import os
import sys

import pytest

from commeq import dynamics

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


SPANS = load_spans()


@pytest.mark.parametrize("module, path", sorted({(m, p) for m, p, _, _ in SPANS.BOUNDARIES}))
def test_boundary_resolves_to_a_callable(module, path):
    owner, attr = SPANS._owner(module, path)
    assert attr in vars(owner), f"{module}.{path} is not defined on its owner"
    assert callable(vars(owner)[attr])


def test_sampled_reward_keeps_the_parameters_the_counter_reads():
    params = list(inspect.signature(dynamics.sampled_reward).parameters)
    assert params == ["game", "i", "policies", "epsilon", "delta", "rng", "horizon"]

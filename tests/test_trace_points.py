"""The benchmark's trace points (perfbench/spans.py) still name real callables.

The traced benchmark replaces each (module, attribute path) of
``spans.BOUNDARIES`` with a wrapper, so a renamed or moved function would
only show up when the benchmark runs.  The module is loaded from its file, as
the benchmark does, and not edited.
"""

import ast
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


def _imported_and_loaded(module):
    """Names a module binds with ``from ... import``, and names its code loads."""
    tree = ast.parse(inspect.getsource(importlib.import_module(module)))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported, loaded


IMPORTED_BOUNDARIES = sorted({(m, p) for m, p, _, _ in SPANS.BOUNDARIES
                              if p in _imported_and_loaded(m)[0]})

# boundaries whose owner imports the name without loading it
UNUSED_IMPORTS = {
    # poa_report returns the smoothness report it checked, so cmd_poa no longer
    # calls check_smoothness; spans.py wraps the name until perfbench reads
    # counters the run records itself
    ("commeq.cli", "check_smoothness"),
}


@pytest.mark.parametrize("module, name", IMPORTED_BOUNDARIES)
def test_an_imported_boundary_is_called_by_its_owner(module, name):
    """A span wraps the owner's binding, so a name the owner imports but never
    loads would be traced without its span ever firing."""
    loaded = _imported_and_loaded(module)[1]
    if (module, name) in UNUSED_IMPORTS:
        assert name not in loaded, f"{module}.{name} is loaded again; drop the exception"
    else:
        assert name in loaded, f"{module} imports {name} only for the tracer"


def test_sampled_reward_keeps_the_parameters_the_counter_reads():
    params = list(inspect.signature(dynamics.sampled_reward).parameters)
    assert params == ["game", "i", "policies", "epsilon", "delta", "rng", "horizon"]

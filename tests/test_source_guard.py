"""``src/commeq`` ships what its commands and its documented API use.

A module-level function or class that no other part of the package refers
to, and that ``commeq.__all__`` does not list, serves only the tests; such
code belongs under ``tests/``.
"""

import ast
import glob
import os

import commeq

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "commeq")


def _names(node):
    """Every name that ``node`` loads, imports or reads as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _modules():
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    return trees


def test_every_exported_name_exists():
    assert len(set(commeq.__all__)) == len(commeq.__all__)
    assert [name for name in commeq.__all__ if not hasattr(commeq, name)] == []


def test_every_definition_is_used_in_src_or_exported():
    modules = _modules()
    # the names each top-level statement refers to; the package's own
    # re-exports are what __all__ lists, not uses
    refers = [(node, set(_names(node))) for name, tree in modules.items()
              if name != "__init__.py" for node in tree.body]
    unused = []
    for name, tree in modules.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef,
                                           ast.ClassDef)):
                continue
            used = any(definition.name in names for node, names in refers
                       if node is not definition)
            if not used and definition.name not in commeq.__all__:
                unused.append(f"{name}: {definition.name}")
    assert unused == []

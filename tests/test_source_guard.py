"""``src/commeq`` ships what its commands and its documented API use.

A module-level function or class that no other part of the package refers
to, and that ``commeq.__all__`` does not list, serves only the tests; such
code belongs under ``tests/``.  Likewise a parameter with a default that no
call in the package or the benchmark sets has one value in use, and belongs
in a module constant; and a parameter that its function never reads goes.
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


PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

# defaulted parameters that no call in src/commeq or perfbench/ sets, kept on
# purpose, each with its reason
UNSET_ALLOWED = {
    # a caller picks among several fixed points of a degenerate transform by
    # its seed; the docstring documents it and the transform tests pin it
    "transforms.py: fixed_point.seed_policy",
}


def _functions(modules):
    """(module, qualified name, callee name, implicit first argument, node) for
    every function and method; a class call stands for its ``__init__``."""
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    callee = node.name if item.name == "__init__" else item.name
                    yield name, f"{node.name}.{item.name}", callee, not static, item
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield name, node.name, node.name, False, node


def _defaulted(fn):
    """The names of ``fn``'s parameters that have a default, with their
    positions (None for keyword-only ones)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    for pos in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[pos].arg, pos
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls():
    """(callee name, positional count or None for a ``*`` splat, keyword
    names or None for a ``**`` splat) of every call in src/commeq and
    perfbench/."""
    trees = list(_modules().values())
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees.append(ast.parse(fh.read()))
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if callee is None:
                continue
            splat = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield (callee, None if splat else len(node.args),
                   None if None in keywords else keywords)


def test_every_defaulted_parameter_is_set_by_some_call():
    calls = {}
    for callee, count, keywords in _calls():
        calls.setdefault(callee, []).append((count, keywords))
    unset = []
    for module, qualname, callee, bound, fn in _functions(_modules()):
        for param, pos in _defaulted(fn):
            if pos is not None and bound:
                pos -= 1                    # self or cls comes with the call
            passed = any(count is None or keywords is None or param in keywords
                         or (pos is not None and count > pos)
                         for count, keywords in calls.get(callee, []))
            key = f"{module}: {qualname}.{param}"
            if not passed and key not in UNSET_ALLOWED:
                unset.append(key)
    assert unset == []


def test_every_parameter_is_read():
    unread = []
    for module, qualname, _, _, fn in _functions(_modules()):
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {sub.id for stmt in fn.body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unread += [f"{module}: {qualname}.{p}" for p in params if p not in read]
    assert unread == []


# the one multiplicative-weights kernel: its weights, its step size and its
# softmax belong to this class, and every expert kind is a bank of it
MWU_OWNER = "_DoublingBank"


def test_only_the_bank_runs_multiplicative_weights():
    def owned(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else owner
            yield child, inner
            yield from owned(child, inner)

    strays = []
    for name, tree in _modules().items():
        for node, owner in owned(tree, None):
            if owner == MWU_OWNER:
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if (isinstance(sub, ast.Attribute) and sub.attr in ("logw", "eta")
                                and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                            strays.append(f"{name}:{node.lineno} self.{sub.attr}")
            elif isinstance(node, ast.Call) and "_softmax" in set(_names(node.func)):
                strays.append(f"{name}:{node.lineno} _softmax")
    assert strays == []

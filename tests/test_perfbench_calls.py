"""The library still accepts every call the benchmark makes.

``perfbench/workloads.py`` calls ``hsepsr`` through dotted names
(``hsepsr.filter.update(...)``) and through local aliases of them
(``m, f = self.model, hsepsr.filter``).  Some of those calls, such as the
traced ``online`` update, run in no quick benchmark run, so a removed
option would break them unseen.  This test reads the file with ``ast``
and binds each call's arguments to the current signature.
"""

import ast
import importlib
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _resolve(path):
    """The object a dotted ``hsepsr`` path names, importing modules on the way."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, name in enumerate(parts[1:], start=2):
        if not hasattr(obj, name):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, name)
    return obj


def _aliases(scope):
    """Local names bound to a dotted ``hsepsr`` path in ``scope``."""
    out = {}
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = node.targets[0], node.value
        pairs = (
            zip(target.elts, value.elts)
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
            else [(target, value)]
        )
        for t, v in pairs:
            path = _dotted(v)
            if isinstance(t, ast.Name) and path and path.startswith("hsepsr."):
                out[t.id] = path
    return out


def _library_calls():
    """(dotted path, call node) for every call into ``hsepsr`` in the file,
    aliases resolved within each top-level function or class."""
    tree = ast.parse(WORKLOADS.read_text())
    for scope in tree.body:
        aliases = _aliases(scope)
        for node in ast.walk(scope):
            path = _dotted(node.func) if isinstance(node, ast.Call) else None
            if path is None:
                continue
            head, _, rest = path.partition(".")
            if head in aliases:
                path = aliases[head] + ("." + rest if rest else "")
            if path.startswith("hsepsr."):
                yield path, node


def test_library_accepts_every_benchmark_call():
    checked, rejected = set(), []
    for path, call in _library_calls():
        if any(isinstance(a, ast.Starred) for a in call.args):
            continue
        keywords = [k.arg for k in call.keywords if k.arg is not None]
        try:
            inspect.signature(_resolve(path)).bind_partial(
                *call.args, **dict.fromkeys(keywords)
            )
        except (AttributeError, ImportError, TypeError) as exc:
            rejected.append(f"line {call.lineno}: {path}: {exc}")
        checked.update((path, k) for k in keywords)
    assert rejected == []
    # the traced online update and the discrete step, which no smoke run reaches
    assert ("hsepsr.filter.condition_observation", "renormalize") in checked
    assert ("hsepsr.filter.update", "renormalize") in checked

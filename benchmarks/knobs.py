"""Which defaulted parameters of ``src/`` no caller ever sets.

Lists each defaulted parameter of a ``src/`` constructor or public
function (module-level function or public method) that no call in
``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/`` passes, and
marks with ``[tests]`` the ones that a call in ``tests/`` passes.  Such a
parameter is a setting that nothing but its default ever exercises, or
that only a test varies.  Nothing is gated::

    python benchmarks/knobs.py        # or: make knobs

The audit reads source only (``ast``); it imports and runs nothing.  A
call is matched to a definition by the called name alone (``f(...)``
and ``x.f(...)`` both count for every ``f``), and passes a parameter by
keyword or by position; ``*args`` passes every positional parameter and
``**kwargs`` every keyword.  A constructor is the class's ``__init__``
(or, for a dataclass, its defaulted fields), called by the class name.
Matching by name over-approximates what is passed, so a row here is
never set by any call the audit can see: not by a call through another
name (a callback, a factory argument, ``super().__init__``) and not by
code the IDL compiler generates at run time.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLERS = [SRC, ROOT / "examples", ROOT / "benchmarks", ROOT / "perfbench"]
TESTS = ROOT / "tests"


# -- the definitions -------------------------------------------------------------

def _defaulted(args: ast.arguments, skip_first: bool):
    """``(name, positional index or None, default source)`` of every
    parameter with a default."""
    positional = args.posonlyargs + args.args
    if skip_first:
        positional = positional[1:]
    out = []
    first_default = len(positional) - len(args.defaults)
    for i, (arg, default) in enumerate(
            zip(positional[first_default:], args.defaults)):
        out.append((arg.arg, first_default + i, ast.unparse(default)))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out.append((arg.arg, None, ast.unparse(default)))
    return out


def _decorators(node) -> set:
    """The last name of each decorator (``x`` for ``@a.x`` or ``@x(...)``)."""
    targets = (d.func if isinstance(d, ast.Call) else d
               for d in node.decorator_list)
    return {t.id if isinstance(t, ast.Name) else getattr(t, "attr", "")
            for t in targets}


def definitions():
    """``(module, label, called name, [(param, index, default)])`` of every
    src constructor and public function."""
    defs = []
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_"):
                defs.append((module, node.name, node.name,
                             _defaulted(node.args, skip_first=False)))
            elif isinstance(node, ast.ClassDef):
                if "dataclass" in _decorators(node):
                    params = [
                        (stmt.target.id, None, ast.unparse(stmt.value))
                        for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and stmt.value is not None
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)
                        and "init=False" not in ast.unparse(stmt.value)]
                    defs.append((module, node.name, node.name, params))
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    decorators = _decorators(item)
                    if "property" in decorators or "setter" in decorators:
                        continue
                    if item.name == "__init__":
                        defs.append((module, node.name, node.name,
                                     _defaulted(item.args, True)))
                    elif not item.name.startswith("_") and \
                            not node.name.startswith("_"):
                        defs.append((
                            module, f"{node.name}.{item.name}", item.name,
                            _defaulted(item.args,
                                       "staticmethod" not in decorators)))
    return defs


# -- the calls ---------------------------------------------------------------------

def calls_in(roots) -> dict:
    """``called name -> [(positional count, keywords)]`` of every call in
    ``roots``; ``None`` stands for "every" (``*args``, ``**kwargs``)."""
    calls: dict = defaultdict(list)
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    continue
                npos = (None if any(isinstance(a, ast.Starred)
                                    for a in node.args) else len(node.args))
                keywords = (None if any(k.arg is None for k in node.keywords)
                            else {k.arg for k in node.keywords})
                calls[name].append((npos, keywords))
    return calls


def _passes(calls: list, param: str, index) -> bool:
    for npos, keywords in calls:
        if keywords is None or param in keywords:
            return True
        if index is not None and (npos is None or npos > index):
            return True
    return False


def unset_knobs():
    """``module -> [(label, param, default, set by tests)]``."""
    traffic, tests = calls_in(CALLERS), calls_in([TESTS])
    report: dict = defaultdict(list)
    for module, label, called, params in definitions():
        seen, seen_in_tests = traffic[called], tests[called]
        for param, index, default in params:
            if not _passes(seen, param, index):
                report[module].append(
                    (label, param, default,
                     _passes(seen_in_tests, param, index)))
    return report


def main() -> int:
    report = unset_knobs()
    total = by_tests = 0
    for module, rows in sorted(report.items()):
        print(f"{module}: {len(rows)} defaulted parameters no caller sets")
        for label, param, default, in_tests in rows:
            mark = "  [tests]" if in_tests else ""
            print(f"    {label}({param}={default}){mark}")
        total += len(rows)
        by_tests += sum(1 for row in rows if row[3])
    print(f"total: {total} defaulted parameters that no call in src, "
          f"examples, benchmarks or perfbench sets; tests set {by_tests} "
          f"of them")
    return 0


if __name__ == "__main__":
    sys.exit(main())

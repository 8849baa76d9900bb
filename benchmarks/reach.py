"""Which ``src/`` functions the reproduction's own traffic never calls.

Records every Python function called, on every thread, while it runs
the traffic this repository serves:

* the virtual-time golden test's ``collect()``: the five experiments at
  the CLI smoke sizes and the ``validate`` scorecard;
* one ``fig4`` CLI run with ``--trace``, ``--trace-tree``, ``--metrics``
  and ``--plot``, writing into a temporary directory;
* one ``run_batch`` of each perfbench workload (``perfbench/workloads.py``,
  imported as is);
* the examples in ``examples/``, each run as ``__main__``.

It then prints, module by module, every function or method defined in
``src/`` that none of it called, with its line count, and the total.  A
never-called function nested in another never-called one is counted only
as part of its parent.  Tests are not part of the traffic: code that only
its own tests reach shows up here.  Nothing is gated::

    PYTHONPATH=src python benchmarks/reach.py        # or: make reach

Calls are seen through ``sys.setprofile`` and ``threading.setprofile``,
set before ``repro`` is imported, so import-time calls count too.  The
run takes about ten seconds.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "experiments" / "test_virtual_time_golden.py"
PERFBENCH = ROOT / "perfbench"
EXAMPLES = ROOT / "examples"


# -- the traffic ---------------------------------------------------------------

def run_golden() -> None:
    spec = importlib.util.spec_from_file_location("_golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.collect()


def run_traced_cli() -> None:
    from repro.experiments.cli import main

    main(["--trace", "trace.json", "--trace-tree", "--metrics",
          "metrics.json", "--plot", "fig4", "--procs", "2", "--nseqs", "20",
          "--rounds", "1"])


def run_perfbench() -> None:
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import WORKLOADS, run_batch
    finally:
        sys.path.remove(str(PERFBENCH))
    for cls in WORKLOADS.values():
        wl = cls()
        wl.compile()
        run_batch(wl, wl.batch_streams(0))


def run_examples() -> None:
    for path in sorted(EXAMPLES.glob("*.py")):
        argv = sys.argv
        sys.argv = [str(path)]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv


def record_calls() -> set:
    """Run the traffic; the code objects of every Python call it made."""
    seen: set = set()
    add = seen.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    cwd = os.getcwd()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            # The CLI and the examples write their files where they run.
            os.chdir(tmp)
            for what, step in [("golden collect()", run_golden),
                               ("traced fig4 CLI run", run_traced_cli),
                               ("perfbench batches", run_perfbench),
                               ("examples", run_examples)]:
                print(f"running {what} ...", file=sys.stderr, flush=True)
                step()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        os.chdir(cwd)
    return seen


# -- the functions defined in src -----------------------------------------------

def defined_functions(path: pathlib.Path):
    """``(first line, qualified name, lines, parent first line)`` of every
    function in ``path``; the first line is the code object's
    ``co_firstlineno`` (the first decorator's, if any)."""
    tree = ast.parse(path.read_text(), str(path))
    out = []

    def visit(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                name = prefix + child.name
                out.append((first, name, child.end_lineno - first + 1,
                            parent))
                visit(child, name + ".", first)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", parent)
            else:
                visit(child, prefix, parent)

    visit(tree, "", None)
    return out


def never_called(seen: set) -> dict[str, list[tuple[str, int]]]:
    called = {(os.path.realpath(c.co_filename), c.co_firstlineno)
              for c in seen}
    report = {}
    for path in sorted(SRC.rglob("*.py")):
        real = os.path.realpath(path)
        funcs = defined_functions(path)
        missed = {first for first, *_ in funcs if (real, first) not in called}
        rows = [(name, lines) for first, name, lines, parent in funcs
                if first in missed and parent not in missed]
        if rows:
            report[str(path.relative_to(SRC))] = rows
    return report


def main() -> int:
    sys.path.insert(0, str(SRC))
    report = never_called(record_calls())
    total = 0
    for module, rows in report.items():
        lines = sum(n for _, n in rows)
        total += lines
        print(f"{module}: {lines} lines never called")
        for name, n in rows:
            print(f"    {n:5d}  {name}")
    print(f"total: {total} lines in {sum(map(len, report.values()))} "
          f"functions never called")
    return 0


if __name__ == "__main__":
    sys.exit(main())

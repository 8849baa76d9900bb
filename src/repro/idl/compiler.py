"""IDL compiler driver: text -> tokens -> AST -> IR -> Python module.

Use :func:`compile_idl` to get a live Python module of stubs/skeletons, or
:func:`generate` for the source text.  The ``pardis-idlc`` console script
wraps the same pipeline (``pardis-idlc file.idl [-pooma|-hpcxx] [-o out.py]``).
"""

from __future__ import annotations

import os
import re
import sys
import types
from typing import Callable, Mapping, Optional, Union

from .codegen import generate_source
from .lexer import IdlSyntaxError
from .parser import parse
from .semantics import CompiledSpec, IdlSemanticError, analyze

__all__ = [
    "IdlSemanticError",
    "IdlSyntaxError",
    "compile_idl",
    "compile_spec",
    "generate",
    "main",
    "preprocess",
]

_module_counter = 0

_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]+"([^"]+)"[ \t]*$',
                         re.MULTILINE)

Resolver = Union[Mapping[str, str], Callable[[str], str], None]


def _resolve(resolver: Resolver, name: str) -> str:
    if resolver is None:
        raise IdlSyntaxError(
            f'#include "{name}" found but no include resolver was given',
            1, 1,
        )
    if callable(resolver):
        return resolver(name)
    try:
        return resolver[name]
    except KeyError:
        raise IdlSyntaxError(f'cannot resolve #include "{name}"', 1, 1) \
            from None


def preprocess(source: str, includes: Resolver = None) -> str:
    """Expand ``#include "name"`` directives.

    ``includes`` maps include names to IDL text (or is a callable doing
    so; the CLI uses a file-system resolver).  Each file is included at
    most once (include-guard semantics) and cycles are rejected.
    """
    seen: set[str] = set()

    def expand(text: str, stack: tuple[str, ...]) -> str:
        def sub(match: re.Match) -> str:
            name = match.group(1)
            if name in stack:
                raise IdlSyntaxError(
                    f'circular #include of "{name}" '
                    f'(chain: {" -> ".join(stack + (name,))})', 1, 1)
            if name in seen:
                return ""  # include-once
            seen.add(name)
            return expand(_resolve(includes, name), stack + (name,))

        return _INCLUDE_RE.sub(sub, text)

    return expand(source, ())


def file_resolver(dirs: list[str]) -> Callable[[str], str]:
    """Include resolver searching a list of directories."""

    def resolve(name: str) -> str:
        for d in dirs:
            path = os.path.join(d, name)
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as fh:
                    return fh.read()
        raise IdlSyntaxError(
            f'#include "{name}" not found in {dirs}', 1, 1)

    return resolve


def compile_spec(source: str, includes: Resolver = None) -> CompiledSpec:
    """Parse + semantically analyze IDL text."""
    return analyze(parse(preprocess(source, includes)))


def generate(source: str, package: Optional[str] = None,
             source_name: str = "<idl>", includes: Resolver = None) -> str:
    """IDL text -> generated Python source.

    ``package`` selects a direct package mapping: ``"POOMA"`` (the paper's
    ``-pooma`` option), ``"HPC++"`` (``-hpcxx``), or ``None`` for standard
    PARDIS distributed-sequence stubs.  ``includes`` resolves
    ``#include`` directives (mapping or callable).
    """
    # Built-in mappings are POOMA and HPC++ (the paper's -pooma/-hpcxx);
    # any other name is a custom package whose container adapters must be
    # registered via repro.core.stubapi.register_adapter before the
    # generated module is imported — the §6 goal of making "mappings for
    # many diverse systems" cheap to add.
    return generate_source(compile_spec(source, includes), package,
                           source_name)


def compile_idl(source: str, package: Optional[str] = None,
                module_name: Optional[str] = None,
                source_name: str = "<idl>",
                includes: Resolver = None) -> types.ModuleType:
    """IDL text -> importable Python module of proxies and skeletons."""
    global _module_counter
    code = generate(source, package, source_name, includes)
    if module_name is None:
        _module_counter += 1
        module_name = f"_pardis_idl_{_module_counter}"
    mod = types.ModuleType(module_name)
    mod.__pardis_source__ = code
    # Register before exec: the dataclass machinery (struct codegen)
    # resolves the defining module through sys.modules.
    sys.modules[module_name] = mod
    exec(compile(code, f"<pardis-idlc {source_name}>", "exec"), mod.__dict__)
    return mod


def main(argv: Optional[list[str]] = None) -> int:
    """Console entry point: ``pardis-idlc``."""
    import argparse  # the CLI's alone: keeps it off ``import repro``

    ap = argparse.ArgumentParser(
        prog="pardis-idlc",
        description="PARDIS IDL compiler: generates Python stubs/skeletons.",
    )
    ap.add_argument("input", help="IDL source file")
    ap.add_argument("-o", "--output", help="output .py file (default: stdout)")
    ap.add_argument("-I", "--include", action="append", default=[],
                    metavar="DIR", help="add an #include search directory")
    group = ap.add_mutually_exclusive_group()
    group.add_argument("-pooma", action="store_true",
                       help="generate POOMA field mappings for pragma'd dsequences")
    group.add_argument("-hpcxx", action="store_true",
                       help="generate HPC++ PSTL vector mappings for pragma'd dsequences")
    ns = ap.parse_args(argv)

    package = "POOMA" if ns.pooma else ("HPC++" if ns.hpcxx else None)
    with open(ns.input, "r", encoding="utf-8") as fh:
        source = fh.read()
    dirs = list(ns.include) + [os.path.dirname(os.path.abspath(ns.input))]
    try:
        code = generate(source, package, source_name=ns.input,
                        includes=file_resolver(dirs))
    except (IdlSyntaxError, IdlSemanticError) as exc:
        print(f"pardis-idlc: error: {exc}", file=sys.stderr)
        return 1
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(code)
    else:
        sys.stdout.write(code)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Python code generation from compiled IDL.

Mirrors the PARDIS C++ compiler's outputs in Python form.  For each
interface the generator emits:

* a **proxy class** with ``_bind``/``_spmd_bind`` class methods and, per
  operation, a blocking stub and a non-blocking ``*_nb`` stub returning
  futures (paper §3.3);
* a **skeleton base class** for servants (the ``_skel`` suffix);
* marshaling metadata (TypeCodes) for every declared type, including
  automatically generated marshaling for dynamically-sized nested types
  (paper §4.1 "the IDL compiler generates those marshaling routines
  automatically").

Package-mapping options reproduce §3.4/§4.3: compiling with
``package="POOMA"`` (the ``-pooma`` flag) makes dsequence parameters whose
typedef carries ``#pragma POOMA:...`` marshal directly into POOMA fields;
``package="HPC++"`` (``-hpcxx``) targets PSTL distributed vectors; no
option produces standard PARDIS distributed sequences.
"""

from __future__ import annotations

import io
from typing import Optional

from ..cdr import (
    ObjectRefTC,
    DSequenceTC,
    EnumTC,
    PrimitiveTC,
    SequenceTC,
    StringTC,
    StructTC,
    TypeCode,
)
from .semantics import (
    CompiledSpec,
    RInterface,
    ROperation,
    RTypedef,
)

#: Compiler option -> pragma package name (paper's -pooma / -hpcxx flags).
PACKAGE_OPTIONS = {"-pooma": "POOMA", "-hpcxx": "HPC++", None: None}


class CodeWriter:
    def __init__(self) -> None:
        self._buf = io.StringIO()
        self._indent = 0

    def line(self, text: str = "") -> None:
        if text:
            self._buf.write("    " * self._indent + text + "\n")
        else:
            self._buf.write("\n")

    def blank(self) -> None:
        self._buf.write("\n")

    def indent(self) -> None:
        self._indent += 1

    def dedent(self) -> None:
        self._indent -= 1

    def getvalue(self) -> str:
        return self._buf.getvalue()


class Generator:
    def __init__(self, spec: CompiledSpec, package: Optional[str] = None,
                 source_name: str = "<idl>") -> None:
        self.spec = spec
        self.package = package
        self.source_name = source_name
        #: id(tc) -> python variable holding that typecode
        self._tc_names: dict[int, str] = {}

    # -- typecode expressions ---------------------------------------------------

    def tc_expr(self, tc: TypeCode) -> str:
        named = self._tc_names.get(id(tc))
        if named is not None:
            return named
        if isinstance(tc, PrimitiveTC):
            return f"_cdr.TC_{tc.name.upper()}"
        if isinstance(tc, StringTC):
            return f"_cdr.StringTC({tc.bound!r})"
        if isinstance(tc, SequenceTC):
            return f"_cdr.SequenceTC({self.tc_expr(tc.element)}, {tc.bound!r})"
        if isinstance(tc, DSequenceTC):
            return (f"_cdr.DSequenceTC({self.tc_expr(tc.element)}, {tc.bound!r}, "
                    f"{tc.client_dist!r}, {tc.server_dist!r})")
        if isinstance(tc, EnumTC):
            return f"_cdr.EnumTC({tc.name!r}, {tc.members!r})"
        if isinstance(tc, ObjectRefTC):
            return f"_cdr.ObjectRefTC({tc.repo_id!r})"
        if isinstance(tc, StructTC):
            fields = ", ".join(
                f"({fname!r}, {self.tc_expr(ftc)})" for fname, ftc in tc.fields
            )
            return f"_cdr.StructTC({tc.name!r}, ({fields}{',' if tc.fields else ''}))"
        raise TypeError(f"cannot emit typecode {tc!r}")

    def _adapter_expr(self, td: Optional[RTypedef]) -> str:
        """Adapter for a dsequence parameter, honouring pragma + option."""
        if td is not None and self.package is not None:
            for pragma in td.pragmas:
                if pragma.package == self.package:
                    return (f"_pardis.resolve_adapter({pragma.package!r}, "
                            f"{pragma.target!r})")
        return "None"

    # -- whole module ---------------------------------------------------------------

    def generate(self) -> str:
        w = CodeWriter()
        w.line(f'"""Generated by pardis-idlc from {self.source_name}; do not edit.')
        w.line("")
        opt = {v: k for k, v in PACKAGE_OPTIONS.items()}.get(self.package)
        w.line(f"package mapping option: {opt or '(none: standard PARDIS stubs)'}")
        w.line('"""')
        w.blank()
        w.line("import dataclasses as _dataclasses")
        w.line("import enum as _enum")
        w.blank()
        w.line("import repro.cdr as _cdr")
        w.line("from repro.core import stubapi as _pardis")
        w.blank()
        w.line("Future = _pardis.Future")
        w.blank()

        for const in self.spec.consts:
            w.line(f"{const.python_name} = {const.value!r}")
        if self.spec.consts:
            w.blank()

        for enum in self.spec.enums:
            self.gen_enum(w, enum)
        for struct in self.spec.structs:
            self.gen_struct(w, struct)
        for exc in self.spec.exceptions:
            self.gen_exception(w, exc)
        for td in self.spec.typedefs:
            self.gen_typedef(w, td)
        for iface in self.spec.interfaces:
            self.gen_interface(w, iface)
        self.gen_namespaces(w)
        return w.getvalue()

    # -- individual declarations ---------------------------------------------------

    def gen_enum(self, w: CodeWriter, enum) -> None:
        name = enum.python_name
        w.line(f"class {name}(_enum.IntEnum):")
        w.indent()
        w.line(f'"""IDL enum {"::".join(enum.qname)}."""')
        for idx, m in enumerate(enum.tc.members):
            w.line(f"{m} = {idx}")
        w.dedent()
        w.blank()
        tc_var = f"_tc_{name}"
        w.line(f"{tc_var} = {self.tc_expr(enum.tc)}")
        w.line(f"{name}._typecode = {tc_var}")
        self._tc_names[id(enum.tc)] = tc_var
        w.blank()

    def gen_struct(self, w: CodeWriter, struct) -> None:
        name = struct.python_name
        tc_var = f"_tc_{name}"
        w.line(f"{tc_var} = {self.tc_expr(struct.tc)}")
        self._tc_names[id(struct.tc)] = tc_var
        w.blank()
        w.line("@_dataclasses.dataclass")
        w.line(f"class {name}:")
        w.indent()
        w.line(f'"""IDL struct {"::".join(struct.qname)}."""')
        for fname, ftc in struct.tc.fields:
            default = ftc.default()
            if isinstance(default, (bool, int, float, str, type(None))):
                w.line(f"{fname}: object = {default!r}")
            else:
                # Mutable / composite defaults (sequences, structs)
                # come from the field's typecode at construction time.
                w.line(f"{fname}: object = _dataclasses.field("
                       f"default_factory={self.tc_expr(ftc)}.default)")
        w.dedent()
        w.blank()
        w.line(f"{name}._typecode = {tc_var}")
        w.blank()

    def gen_exception(self, w: CodeWriter, exc) -> None:
        name = exc.python_name
        tc_var = f"_tc_{name}"
        w.line(f"{tc_var} = {self.tc_expr(exc.tc)}")
        self._tc_names[id(exc.tc)] = tc_var
        repo_id = "IDL:" + "/".join(exc.qname) + ":1.0"
        w.blank()
        w.line(f"class {name}(_pardis.UserException):")
        w.indent()
        w.line(f'"""IDL exception {"::".join(exc.qname)}."""')
        w.line(f"_repo_id = {repo_id!r}")
        w.line(f"_typecode = {tc_var}")
        w.line(f"_fields = {tuple(f for f, _ in exc.tc.fields)!r}")
        w.dedent()
        w.blank()
        w.line(f"_pardis.register_exception({name})")
        w.blank()

    def gen_typedef(self, w: CodeWriter, td: RTypedef) -> None:
        name = td.python_name
        tc_var = f"_tc_{name}"
        w.line(f"{tc_var} = {self.tc_expr(td.tc)}")
        self._tc_names[id(td.tc)] = tc_var
        if isinstance(td.tc, DSequenceTC):
            adapter = self._adapter_expr(td)
            w.line(f"{name} = _pardis.DSeqFactory({tc_var}, adapter={adapter}, "
                   f"name={name!r})")
        else:
            w.line(f"{name} = {tc_var}")
        w.blank()

    # -- interfaces --------------------------------------------------------------------

    def _op_def_expr(self, op: ROperation) -> str:
        params = ", ".join(
            f"_pardis.ParamDef({p.direction!r}, {p.name!r}, {self.tc_expr(p.tc)}, "
            f"adapter={self._adapter_expr(p.via_typedef)})"
            for p in op.params
        )
        ret = "None" if op.ret_tc is None else self.tc_expr(op.ret_tc)
        raises = ", ".join(repr("IDL:" + "/".join(x.qname) + ":1.0")
                           for x in op.raises)
        return (f"_pardis.OpDef({op.name!r}, {ret}, [{params}], "
                f"oneway={op.oneway!r}, raises=[{raises}])")

    def gen_interface(self, w: CodeWriter, iface: RInterface) -> None:
        name = iface.python_name
        repo_id = "IDL:" + "/".join(iface.qname) + ":1.0"
        all_ops = iface.all_ops()
        all_attrs = iface.all_attrs()

        w.line(f"_iface_{name} = _pardis.InterfaceDef(")
        w.indent()
        w.line(f"name={name!r},")
        w.line(f"repo_id={repo_id!r},")
        w.line("ops={")
        w.indent()
        for op in all_ops:
            w.line(f"{op.name!r}: {self._op_def_expr(op)},")
        w.dedent()
        w.line("},")
        attrs = ", ".join(
            f"_pardis.AttrDef({a.name!r}, {self.tc_expr(a.tc)}, {a.readonly!r})"
            for a in all_attrs
        )
        w.line(f"attrs=[{attrs}],")
        w.dedent()
        w.line(")")
        w.blank()

        # Proxy.
        w.line(f"class {name}(_pardis.ProxyBase):")
        w.indent()
        w.line(f'"""Client proxy for IDL interface {"::".join(iface.qname)}."""')
        w.line(f"_interface = _iface_{name}")
        w.blank()
        for op in all_ops:
            self.gen_proxy_op(w, op)
        for attr in all_attrs:
            self.gen_proxy_attr(w, attr)
        w.dedent()
        w.blank()
        w.line(f"_pardis.register_proxy({name})")
        w.blank()

        # Skeleton.
        w.line(f"class {name}_skel(_pardis.SkeletonBase):")
        w.indent()
        w.line(f'"""Servant base class for IDL interface '
               f'{"::".join(iface.qname)}."""')
        w.line(f"_interface = _iface_{name}")
        w.blank()
        for op in all_ops:
            args = ", ".join(p.name for p in op.in_params)
            w.line(f"def {op.name}(self{', ' + args if args else ''}):")
            w.indent()
            w.line(f'raise NotImplementedError("servant must implement '
                   f'{op.name}()")')
            w.dedent()
            w.blank()
        w.dedent()
        w.blank()

    def gen_proxy_op(self, w: CodeWriter, op: ROperation) -> None:
        in_names = [p.name for p in op.in_params]
        sig = ", ".join(["self"] + in_names)
        args = ", ".join(in_names)
        arg_tuple = f"({args},)" if in_names else "()"
        outs = ", ".join(p.name for p in op.out_params)
        doc_ret = ("None" if op.ret_tc is None and not op.out_params else
                   " -> " + ", ".join(
                       ([f"return value"] if op.ret_tc is not None else [])
                       + [f"out {o}" for o in outs.split(", ") if o]
                   ))
        # Blocking stub.
        w.line(f"def {op.name}({sig}, _distributions=None):")
        w.indent()
        w.line(f'"""Blocking invocation of {op.name}{doc_ret}."""')
        w.line(f"return self._invoke({op.name!r}, {arg_tuple}, "
               f"_distributions)")
        w.dedent()
        w.blank()
        if op.oneway:
            return
        # Non-blocking stub (futures), paper §3.3.
        w.line(f"def {op.name}_nb({sig}, *futures, _distributions=None):")
        w.indent()
        w.line(f'"""Non-blocking invocation of {op.name}; returns a future.')
        w.line("")
        w.line("Optional trailing arguments are Future placeholders bound")
        w.line("to the operation's out parameters (resolved together when")
        w.line('the reply arrives)."""')
        w.line(f"return self._invoke_nb({op.name!r}, {arg_tuple}, futures, "
               f"_distributions)")
        w.dedent()
        w.blank()

    def gen_proxy_attr(self, w: CodeWriter, attr) -> None:
        w.line(f"def _get_{attr.name}(self):")
        w.indent()
        w.line(f"return self._invoke_attr_get({attr.name!r})")
        w.dedent()
        w.blank()
        if not attr.readonly:
            w.line(f"def _set_{attr.name}(self, value):")
            w.indent()
            w.line(f"return self._invoke_attr_set({attr.name!r}, value)")
            w.dedent()
            w.blank()

    # -- namespaces ------------------------------------------------------------------------

    def gen_namespaces(self, w: CodeWriter) -> None:
        """Expose ``module::name`` scopes as attribute namespaces."""
        tree: dict = {}
        for group in (self.spec.consts, self.spec.enums, self.spec.structs,
                      self.spec.exceptions, self.spec.typedefs,
                      self.spec.interfaces):
            for item in group:
                if len(item.qname) > 1:
                    node = tree
                    for part in item.qname[:-1]:
                        node = node.setdefault(part, {})
                    node[item.qname[-1]] = item.python_name
        if not tree:
            return
        w.line("import types as _types")
        w.blank()

        def emit(name: str, node: dict, path: tuple[str, ...]) -> str:
            entries = []
            for key, sub in node.items():
                if isinstance(sub, dict):
                    entries.append((key, emit(key, sub, path + (key,))))
                else:
                    entries.append((key, sub))
            var = "_ns_" + "_".join(path)
            kwargs = ", ".join(f"{k}={v}" for k, v in entries)
            w.line(f"{var} = _types.SimpleNamespace({kwargs})")
            return var

        for top, node in tree.items():
            if isinstance(node, dict):
                var = emit(top, node, (top,))
                w.line(f"{top} = {var}")
        w.blank()


def generate_source(spec: CompiledSpec, package: Optional[str] = None,
                    source_name: str = "<idl>") -> str:
    """Generate Python stub/skeleton source for a compiled spec."""
    return Generator(spec, package, source_name).generate()

"""Recursive-descent parser for the PARDIS IDL.

Grammar: the CORBA 2.0 IDL subset used in the paper (modules, interfaces
with inheritance, typedefs, consts, structs, enums, exceptions, attributes
and operations with in/out/inout parameters and ``raises`` clauses)
extended with ``dsequence`` distributed-sequence types and ``#pragma``
package mappings.
"""

from __future__ import annotations

import re
from typing import Optional

from . import ast
from .lexer import (
    IdlSyntaxError,
    T_CHAR,
    T_EOF,
    T_FLOAT,
    T_IDENT,
    T_INT,
    T_KEYWORD,
    T_PRAGMA,
    T_PUNCT,
    T_STRING,
    Token,
    tokenize,
    unescape_string,
)

_PRAGMA_RE = re.compile(r"#\s*pragma\s+([A-Za-z_][\w+]*)\s*:\s*([A-Za-z_]\w*)")

_PRIM_SIMPLE = {"octet", "boolean", "char", "float", "double"}
_DISTRIBUTIONS = {"BLOCK", "CYCLIC", "CONCENTRATED"}


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0
        self._pending_pragmas: list[ast.Pragma] = []

    # -- token helpers ---------------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> IdlSyntaxError:
        t = self.tok
        shown = t.value or "<eof>"
        return IdlSyntaxError(f"{message}, found {shown!r}", t.line, t.col)

    def next(self) -> Token:
        t = self.tok
        self.pos += 1
        return t

    def at(self, type_: str, value: Optional[str] = None) -> bool:
        t = self.tok
        return t.type == type_ and (value is None or t.value == value)

    def accept(self, type_: str, value: Optional[str] = None) -> Optional[Token]:
        if self.at(type_, value):
            return self.next()
        return None

    def expect(self, type_: str, value: Optional[str] = None) -> Token:
        if not self.at(type_, value):
            want = value if value is not None else type_
            raise self.error(f"expected {want!r}")
        return self.next()

    def expect_close_angle(self) -> None:
        """Consume a closing ``>``, splitting a ``>>`` token in two so that
        ``dsequence<sequence<double>>`` parses (the classic C++ problem)."""
        if self.at(T_PUNCT, ">>"):
            t = self.tok
            self.tokens[self.pos] = Token(T_PUNCT, ">", t.line, t.col + 1)
            return
        self.expect(T_PUNCT, ">")

    # -- entry point --------------------------------------------------------------

    def parse(self) -> ast.Specification:
        defs = []
        while not self.at(T_EOF):
            d = self.parse_definition()
            if d is not None:
                defs.append(d)
        if self._pending_pragmas:
            p = self._pending_pragmas[0]
            raise IdlSyntaxError(
                f"#pragma {p.package}:{p.target} is not followed by a typedef",
                p.line, 1,
            )
        return ast.Specification(defs)

    # -- definitions -----------------------------------------------------------------

    def parse_definition(self):
        if self.at(T_PRAGMA):
            self._take_pragma()
            return None
        if self.at(T_KEYWORD, "module"):
            return self.parse_module()
        if self.at(T_KEYWORD, "interface"):
            return self.parse_interface()
        return self.parse_export()

    def _take_pragma(self) -> None:
        t = self.next()
        m = _PRAGMA_RE.match(t.value)
        if m is None:
            raise IdlSyntaxError(
                f"malformed pragma {t.value!r} (expected '#pragma PKG:name')",
                t.line, t.col,
            )
        self._pending_pragmas.append(ast.Pragma(m.group(1), m.group(2), t.line))

    def _claim_pragmas(self) -> list[ast.Pragma]:
        p, self._pending_pragmas = self._pending_pragmas, []
        return p

    def parse_module(self) -> ast.ModuleDecl:
        self.expect(T_KEYWORD, "module")
        name = self.expect(T_IDENT).value
        self.expect(T_PUNCT, "{")
        body = []
        while not self.at(T_PUNCT, "}"):
            d = self.parse_definition()
            if d is not None:
                body.append(d)
        self.expect(T_PUNCT, "}")
        self.expect(T_PUNCT, ";")
        return ast.ModuleDecl(name, body)

    def parse_interface(self) -> ast.InterfaceDecl:
        self.expect(T_KEYWORD, "interface")
        name = self.expect(T_IDENT).value
        bases: list[ast.NamedType] = []
        if self.accept(T_PUNCT, ":"):
            bases.append(ast.NamedType(self.parse_scoped_name()))
            while self.accept(T_PUNCT, ","):
                bases.append(ast.NamedType(self.parse_scoped_name()))
        self.expect(T_PUNCT, "{")
        body = []
        while not self.at(T_PUNCT, "}"):
            if self.at(T_PRAGMA):
                self._take_pragma()
                continue
            body.append(self.parse_export())
        self.expect(T_PUNCT, "}")
        self.expect(T_PUNCT, ";")
        return ast.InterfaceDecl(name, bases, body)

    def parse_export(self):
        if self.at(T_KEYWORD, "typedef"):
            return self.parse_typedef()
        if self.at(T_KEYWORD, "const"):
            return self.parse_const()
        if self.at(T_KEYWORD, "struct"):
            return self.parse_struct()
        if self.at(T_KEYWORD, "enum"):
            return self.parse_enum()
        if self.at(T_KEYWORD, "exception"):
            return self.parse_exception()
        if self.at(T_KEYWORD, "readonly") or self.at(T_KEYWORD, "attribute"):
            return self.parse_attribute()
        if (self.at(T_KEYWORD, "oneway") or self.at(T_KEYWORD, "void")
                or self._at_type_start()):
            return self.parse_operation()
        raise self.error("expected a definition")

    def _at_type_start(self) -> bool:
        t = self.tok
        if t.type == T_IDENT:
            return True
        if t.type == T_KEYWORD and (
            t.value in _PRIM_SIMPLE
            or t.value in ("short", "long", "unsigned", "string",
                           "sequence", "dsequence")
        ):
            return True
        return t.type == T_PUNCT and t.value == "::"

    def parse_typedef(self) -> ast.Typedef:
        pragmas = self._claim_pragmas()
        self.expect(T_KEYWORD, "typedef")
        type_ = self.parse_type()
        name = self.expect(T_IDENT).value
        self.expect(T_PUNCT, ";")
        return ast.Typedef(name, type_, pragmas)

    def parse_const(self) -> ast.ConstDecl:
        self.expect(T_KEYWORD, "const")
        type_ = self.parse_type()
        name = self.expect(T_IDENT).value
        self.expect(T_PUNCT, "=")
        value = self.parse_const_expr()
        self.expect(T_PUNCT, ";")
        return ast.ConstDecl(name, type_, value)

    def parse_struct(self) -> ast.StructDecl:
        self.expect(T_KEYWORD, "struct")
        name = self.expect(T_IDENT).value
        self.expect(T_PUNCT, "{")
        members = self._parse_members()
        self.expect(T_PUNCT, "}")
        self.expect(T_PUNCT, ";")
        if not members:
            raise self.error(f"struct {name!r} must have at least one member")
        return ast.StructDecl(name, members)

    def parse_exception(self) -> ast.ExceptionDecl:
        self.expect(T_KEYWORD, "exception")
        name = self.expect(T_IDENT).value
        self.expect(T_PUNCT, "{")
        members = self._parse_members()
        self.expect(T_PUNCT, "}")
        self.expect(T_PUNCT, ";")
        return ast.ExceptionDecl(name, members)

    def _parse_members(self) -> list[ast.StructMember]:
        members = []
        while not self.at(T_PUNCT, "}"):
            type_ = self.parse_type()
            members.append(ast.StructMember(self.expect(T_IDENT).value, type_))
            while self.accept(T_PUNCT, ","):
                members.append(
                    ast.StructMember(self.expect(T_IDENT).value, type_))
            self.expect(T_PUNCT, ";")
        return members

    def parse_enum(self) -> ast.EnumDecl:
        self.expect(T_KEYWORD, "enum")
        name = self.expect(T_IDENT).value
        self.expect(T_PUNCT, "{")
        members = [self.expect(T_IDENT).value]
        while self.accept(T_PUNCT, ","):
            members.append(self.expect(T_IDENT).value)
        self.expect(T_PUNCT, "}")
        self.expect(T_PUNCT, ";")
        return ast.EnumDecl(name, members)

    def parse_attribute(self) -> ast.Attribute:
        readonly = self.accept(T_KEYWORD, "readonly") is not None
        self.expect(T_KEYWORD, "attribute")
        type_ = self.parse_type()
        name = self.expect(T_IDENT).value
        self.expect(T_PUNCT, ";")
        return ast.Attribute(name, type_, readonly)

    def parse_operation(self) -> ast.Operation:
        oneway = self.accept(T_KEYWORD, "oneway") is not None
        if self.accept(T_KEYWORD, "void"):
            ret: ast.TypeExpr = ast.VoidType()
        else:
            ret = self.parse_type()
        name = self.expect(T_IDENT).value
        self.expect(T_PUNCT, "(")
        params: list[ast.Param] = []
        if not self.at(T_PUNCT, ")"):
            params.append(self.parse_param())
            while self.accept(T_PUNCT, ","):
                params.append(self.parse_param())
        self.expect(T_PUNCT, ")")
        raises: list[ast.NamedType] = []
        if self.accept(T_KEYWORD, "raises"):
            self.expect(T_PUNCT, "(")
            raises.append(ast.NamedType(self.parse_scoped_name()))
            while self.accept(T_PUNCT, ","):
                raises.append(ast.NamedType(self.parse_scoped_name()))
            self.expect(T_PUNCT, ")")
        self.expect(T_PUNCT, ";")
        return ast.Operation(name, ret, params, oneway, raises)

    def parse_param(self) -> ast.Param:
        for direction in ("in", "out", "inout"):
            if self.accept(T_KEYWORD, direction):
                break
        else:
            raise self.error("expected parameter direction (in/out/inout)")
        type_ = self.parse_type()
        name = self.expect(T_IDENT).value
        return ast.Param(direction, type_, name)

    # -- types --------------------------------------------------------------------

    def parse_type(self) -> ast.TypeExpr:
        t = self.tok
        if t.type == T_KEYWORD:
            if t.value in _PRIM_SIMPLE:
                self.next()
                return ast.PrimType(t.value)
            if t.value == "short":
                self.next()
                return ast.PrimType("short")
            if t.value == "long":
                self.next()
                if self.accept(T_KEYWORD, "long"):
                    return ast.PrimType("longlong")
                return ast.PrimType("long")
            if t.value == "unsigned":
                self.next()
                if self.accept(T_KEYWORD, "short"):
                    return ast.PrimType("ushort")
                self.expect(T_KEYWORD, "long")
                if self.accept(T_KEYWORD, "long"):
                    return ast.PrimType("ulonglong")
                return ast.PrimType("ulong")
            if t.value == "string":
                self.next()
                bound = None
                if self.accept(T_PUNCT, "<"):
                    bound = self.parse_const_expr()
                    self.expect_close_angle()
                return ast.StringType(bound)
            if t.value == "sequence":
                self.next()
                self.expect(T_PUNCT, "<")
                elem = self.parse_type()
                bound = None
                if self.accept(T_PUNCT, ","):
                    bound = self.parse_const_expr()
                self.expect_close_angle()
                return ast.SeqType(elem, bound)
            if t.value == "dsequence":
                return self.parse_dsequence()
        if t.type == T_IDENT or (t.type == T_PUNCT and t.value == "::"):
            return ast.NamedType(self.parse_scoped_name())
        raise self.error("expected a type")

    def parse_dsequence(self) -> ast.DSeqType:
        self.expect(T_KEYWORD, "dsequence")
        self.expect(T_PUNCT, "<")
        elem = self.parse_type()
        bound = None
        cdist = "BLOCK"
        sdist = "BLOCK"
        if self.accept(T_PUNCT, ","):
            bound = self.parse_const_expr()
            if self.accept(T_PUNCT, ","):
                cdist = self._parse_distribution()
                if self.accept(T_PUNCT, ","):
                    sdist = self._parse_distribution()
        self.expect_close_angle()
        return ast.DSeqType(elem, bound, cdist, sdist)

    def _parse_distribution(self) -> str:
        t = self.expect(T_IDENT)
        if t.value not in _DISTRIBUTIONS:
            raise IdlSyntaxError(
                f"unknown distribution {t.value!r} "
                f"(expected one of {sorted(_DISTRIBUTIONS)})",
                t.line, t.col,
            )
        return t.value

    def parse_scoped_name(self) -> tuple[str, ...]:
        parts = []
        if self.accept(T_PUNCT, "::"):
            parts.append("")  # absolute path marker
        parts.append(self.expect(T_IDENT).value)
        while self.accept(T_PUNCT, "::"):
            parts.append(self.expect(T_IDENT).value)
        return tuple(parts)

    # -- const expressions ---------------------------------------------------------

    _BINOPS = [("|",), ("^",), ("&",), ("<<", ">>"), ("+", "-"),
               ("*", "/", "%")]

    def parse_const_expr(self, level: int = 0) -> ast.ConstExpr:
        if level == len(self._BINOPS):
            return self.parse_const_unary()
        left = self.parse_const_expr(level + 1)
        while self.tok.type == T_PUNCT and self.tok.value in self._BINOPS[level]:
            op = self.next().value
            right = self.parse_const_expr(level + 1)
            left = ast.BinaryExpr(op, left, right)
        return left

    def parse_const_unary(self) -> ast.ConstExpr:
        if self.tok.type == T_PUNCT and self.tok.value in ("-", "+", "~"):
            op = self.next().value
            return ast.UnaryExpr(op, self.parse_const_unary())
        return self.parse_const_primary()

    def parse_const_primary(self) -> ast.ConstExpr:
        t = self.tok
        if t.type == T_INT:
            self.next()
            return ast.Literal(int(t.value, 0))
        if t.type == T_FLOAT:
            self.next()
            return ast.Literal(float(t.value))
        if t.type == T_STRING:
            self.next()
            return ast.Literal(unescape_string(t.value))
        if t.type == T_CHAR:
            self.next()
            return ast.Literal(unescape_string(t.value))
        if t.type == T_KEYWORD and t.value in ("TRUE", "FALSE"):
            self.next()
            return ast.Literal(t.value == "TRUE")
        if self.accept(T_PUNCT, "("):
            inner = self.parse_const_expr()
            self.expect(T_PUNCT, ")")
            return inner
        if t.type == T_IDENT or (t.type == T_PUNCT and t.value == "::"):
            return ast.ConstRef(self.parse_scoped_name())
        raise self.error("expected a constant expression")


def parse(source: str) -> ast.Specification:
    """Parse IDL text into a :class:`~repro.idl.ast.Specification`."""
    return Parser(source).parse()

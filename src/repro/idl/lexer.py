"""Lexer for the PARDIS IDL (CORBA IDL subset + extensions).

Produces a flat token stream with line/column positions.  Handles ``//``
and ``/* */`` comments, integer/float/string/char literals, the scope
operator ``::``, and ``#pragma`` lines (kept as first-class tokens — the
PARDIS compiler uses pragmas to select package mappings, paper §3.4).
"""

from __future__ import annotations

import re

from .._record import FrozenRecord

_set = object.__setattr__


class IdlSyntaxError(SyntaxError):
    """Lexical or grammatical error in IDL source."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


KEYWORDS = {
    "module", "interface", "typedef", "const", "struct", "enum", "exception",
    "sequence", "dsequence", "string", "void", "in", "out", "inout",
    "oneway", "raises", "attribute", "readonly", "unsigned",
    "octet", "boolean", "char", "short", "long", "float", "double",
    "TRUE", "FALSE",
}

#: token types
T_IDENT = "ident"
T_KEYWORD = "keyword"
T_INT = "int"
T_FLOAT = "float"
T_STRING = "string"
T_CHAR = "char"
T_PUNCT = "punct"
T_PRAGMA = "pragma"
T_EOF = "eof"

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<nl>\n)
  | (?P<linecomment>//[^\n]*)
  | (?P<blockcomment>/\*.*?\*/)
  | (?P<pragma>\#\s*pragma[^\n]*)
  | (?P<float>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)
  | (?P<int>0[xX][0-9a-fA-F]+|\d+)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<char>'(?:[^'\\\n]|\\.)')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>::|<<|>>|[{}()<>,;:=\[\]+\-*/|&^%~])
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(FrozenRecord):
    __slots__ = ("type", "value", "line", "col")

    def __init__(self, type: str, value: str, line: int, col: int) -> None:
        _set(self, "type", type)
        _set(self, "value", value)
        _set(self, "line", line)
        _set(self, "col", col)

    def __repr__(self) -> str:
        return f"Token({self.type}, {self.value!r} @{self.line}:{self.col})"


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; raises :class:`IdlSyntaxError` on bad input."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise IdlSyntaxError(
                f"unexpected character {source[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        text = m.group()
        col = pos - line_start + 1
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind in ("ws", "linecomment"):
            pass
        elif kind == "blockcomment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rfind("\n") + 1
        elif kind == "pragma":
            tokens.append(Token(T_PRAGMA, text, line, col))
        elif kind == "ident":
            ttype = T_KEYWORD if text in KEYWORDS else T_IDENT
            tokens.append(Token(ttype, text, line, col))
        elif kind == "int":
            tokens.append(Token(T_INT, text, line, col))
        elif kind == "float":
            tokens.append(Token(T_FLOAT, text, line, col))
        elif kind == "string":
            tokens.append(Token(T_STRING, text, line, col))
        elif kind == "char":
            tokens.append(Token(T_CHAR, text, line, col))
        elif kind == "punct":
            tokens.append(Token(T_PUNCT, text, line, col))
        pos = m.end()
    tokens.append(Token(T_EOF, "", line, n - line_start + 1))
    return tokens


def unescape_string(literal: str) -> str:
    """Interpret an IDL string literal (with surrounding quotes)."""
    body = literal[1:-1]
    return (body.replace(r"\\", "\x00")
                .replace(r"\"", '"')
                .replace(r"\n", "\n")
                .replace(r"\t", "\t")
                .replace("\x00", "\\"))

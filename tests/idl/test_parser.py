"""Parser tests, including the paper's verbatim IDL samples."""

import re

import pytest

from repro.idl import compile_spec, parse
from repro.idl.lexer import IdlSyntaxError
from repro.idl import ast


def test_empty_spec():
    assert parse("").definitions == []


def test_typedef_primitive():
    spec = parse("typedef long counter;")
    td = spec.definitions[0]
    assert isinstance(td, ast.Typedef)
    assert td.name == "counter"
    assert td.type == ast.PrimType("long")


@pytest.mark.parametrize("idl,expect", [
    ("typedef unsigned long u;", "ulong"),
    ("typedef unsigned short u;", "ushort"),
    ("typedef long long u;", "longlong"),
    ("typedef unsigned long long u;", "ulonglong"),
])
def test_multiword_integer_types(idl, expect):
    assert parse(idl).definitions[0].type == ast.PrimType(expect)


def test_sequence_with_bound():
    spec = parse("typedef sequence<double, 16> v;")
    t = spec.definitions[0].type
    assert isinstance(t, ast.SeqType)
    assert t.element == ast.PrimType("double")
    assert isinstance(t.bound, ast.Literal) and t.bound.value == 16


def test_dsequence_full_form():
    spec = parse("typedef dsequence<double, 1024, BLOCK, CONCENTRATED> d;")
    t = spec.definitions[0].type
    assert isinstance(t, ast.DSeqType)
    assert (t.client_dist, t.server_dist) == ("BLOCK", "CONCENTRATED")


def test_dsequence_defaults_block():
    t = parse("typedef dsequence<double> d;").definitions[0].type
    assert (t.client_dist, t.server_dist) == ("BLOCK", "BLOCK")


def test_dsequence_unknown_distribution():
    with pytest.raises(IdlSyntaxError, match="distribution"):
        parse("typedef dsequence<double, 8, DIAGONAL> d;")


def test_nested_sequence():
    spec = parse("typedef dsequence<sequence<double>> matrix;")
    t = spec.definitions[0].type
    assert isinstance(t, ast.DSeqType)
    assert isinstance(t.element, ast.SeqType)


def test_interface_with_operations():
    spec = parse("""
        interface direct {
            void solve(in double tol, out long status);
        };
    """)
    iface = spec.definitions[0]
    assert isinstance(iface, ast.InterfaceDecl)
    op = iface.body[0]
    assert op.name == "solve"
    assert [(p.direction, p.name) for p in op.params] == [
        ("in", "tol"), ("out", "status")]
    assert isinstance(op.return_type, ast.VoidType)


def test_interface_inheritance():
    spec = parse("""
        interface base { void f(); };
        interface derived : base { void g(); };
    """)
    derived = spec.definitions[1]
    assert derived.bases == [ast.NamedType(("base",))]


def test_oneway_operation():
    spec = parse("interface i { oneway void ping(in long x); };")
    assert spec.definitions[0].body[0].oneway is True


def test_raises_clause():
    spec = parse("""
        exception failed { string why; };
        interface i { void f() raises (failed); };
    """)
    op = spec.definitions[1].body[0]
    assert op.raises == [ast.NamedType(("failed",))]


def test_attribute():
    spec = parse("interface i { readonly attribute long n; attribute double v; };")
    a, b = spec.definitions[0].body
    assert (a.name, a.readonly) == ("n", True)
    assert (b.name, b.readonly) == ("v", False)


def test_module_nesting():
    spec = parse("""
        module outer {
            module inner { typedef long t; };
            interface i { void f(in inner::t x); };
        };
    """)
    outer = spec.definitions[0]
    assert isinstance(outer, ast.ModuleDecl)
    inner, iface = outer.body
    assert isinstance(inner, ast.ModuleDecl)
    param = iface.body[0].params[0]
    assert param.type == ast.NamedType(("inner", "t"))


def test_struct_with_multiple_declarators():
    spec = parse("struct p { double x, y; long n; };")
    s = spec.definitions[0]
    assert [m.name for m in s.members] == ["x", "y", "n"]


def test_enum():
    spec = parse("enum color { RED, GREEN, BLUE };")
    assert spec.definitions[0].members == ["RED", "GREEN", "BLUE"]


def test_const_expression():
    spec = parse("const long N = (2 + 3) * 4;")
    c = spec.definitions[0]
    assert isinstance(c.value, ast.BinaryExpr)
    assert c.value.op == "*"


def test_pragma_attaches_to_next_typedef():
    spec = parse("""
        #pragma HPC++:vector
        #pragma POOMA:field
        typedef dsequence<double, 128> field;
    """)
    td = spec.definitions[0]
    assert [(p.package, p.target) for p in td.pragmas] == [
        ("HPC++", "vector"), ("POOMA", "field")]


def test_dangling_pragma_rejected():
    with pytest.raises(IdlSyntaxError, match="typedef"):
        parse("#pragma POOMA:field\n")


def test_malformed_pragma_rejected():
    with pytest.raises(IdlSyntaxError, match="pragma"):
        parse("#pragma whatever\ntypedef long t;")


def test_missing_semicolon():
    with pytest.raises(IdlSyntaxError, match="';'"):
        parse("typedef long t")


@pytest.mark.parametrize("idl,found,col", [
    ("union u switch (long) { case 1: long a; };", "switch", 9),
    ("typedef double triple[3];", "[", 22),
    ("struct s { double m[3]; };", "[", 20),
], ids=["union", "typedef_array", "member_array"])
def test_unions_and_fixed_arrays_are_rejected(idl, found, col):
    """The IDL has no discriminated unions or fixed arrays: the whole
    front end rejects them as a syntax error at the offending token."""
    with pytest.raises(IdlSyntaxError,
                       match=re.escape(f"found {found!r}")) as err:
        compile_spec(idl)
    assert (err.value.line, err.value.col) == (1, col)


def test_paper_solver_idl():
    """The §4.1 interfaces parse as written (modulo the C++ template fix)."""
    spec = parse("""
        typedef sequence<double> row;
        typedef dsequence<row> matrix;
        typedef dsequence<double> vector;
        interface direct {
            void solve(in matrix A, in vector B, out vector X);
        };
        interface iterative {
            void solve(in double tol, in matrix A, in vector B, out vector X);
        };
    """)
    assert len(spec.definitions) == 5


def test_paper_dna_idl():
    spec = parse("""
        enum status { DONE, PARTIAL };
        typedef sequence<string> dna_list;
        interface list_server {
            void match(in string s, out dna_list l);
        };
        interface dna_db {
            status search(in string s);
        };
    """)
    assert len(spec.definitions) == 4


def test_paper_pipeline_idl():
    spec = parse("""
        const long N = 128;
        #pragma HPC++:vector
        #pragma POOMA:field
        typedef dsequence<double, N*N, BLOCK, BLOCK> field;
        interface visualizer {
            void show(in field myfield);
        };
        interface field_operations {
            void gradient(in field myfield);
        };
    """)
    assert len(spec.definitions) == 4

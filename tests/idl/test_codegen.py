"""Tests for the Python code generator and compiler driver."""

import subprocess
import sys

import pytest

from repro.cdr import DSequenceTC, SequenceTC, TC_DOUBLE, TC_LONG
from repro.idl import IdlSemanticError, compile_idl, generate


class TestGeneratedSource:
    def test_source_is_valid_python(self):
        src = generate("interface i { void f(in long x); };")
        compile(src, "<test>", "exec")

    def test_header_mentions_option(self):
        src = generate("#pragma POOMA:field\ntypedef dsequence<double> f;",
                       package="POOMA")
        assert "-pooma" in src
        src2 = generate("typedef long t;")
        assert "standard PARDIS stubs" in src2

    def test_blocking_and_nonblocking_stubs_emitted(self):
        src = generate("interface i { long f(in long x); };")
        assert "def f(self, x, _distributions=None):" in src
        assert "def f_nb(self, x, *futures, _distributions=None):" in src

    def test_oneway_has_no_nb_stub(self):
        src = generate("interface i { oneway void fire(in long x); };")
        assert "def fire(self" in src
        assert "fire_nb" not in src

    def test_skeleton_emitted_with_abstract_ops(self):
        src = generate("interface i { void f(in long x); };")
        assert "class i_skel(_pardis.SkeletonBase):" in src
        assert "NotImplementedError" in src

    def test_custom_package_allowed(self):
        """Any package name is accepted; its adapters must be registered
        before the generated module is imported (the paper's §6 goal of
        easy mappings for diverse systems)."""
        src = generate("#pragma MYLIB:buffer\ntypedef dsequence<double> b;",
                       package="MYLIB")
        assert "resolve_adapter('MYLIB', 'buffer')" in src


class TestCompiledModule:
    def test_constants(self):
        mod = compile_idl("const long N = 4 * 32; const string S = \"hi\";")
        assert mod.N == 128
        assert mod.S == "hi"

    def test_enum_is_intenum(self):
        mod = compile_idl("enum color { RED, GREEN, BLUE };")
        assert mod.color.GREEN == 1
        assert mod.color.BLUE.name == "BLUE"
        assert mod._tc_color.members == ("RED", "GREEN", "BLUE")

    def test_struct_dataclass_with_defaults(self):
        mod = compile_idl("""
            struct point { double x; double y; string label;
                           sequence<long> tags; };
        """)
        p = mod.point()
        assert (p.x, p.y, p.label) == (0.0, 0.0, "")
        # a composite member's default is built afresh for each value
        assert list(p.tags) == [] and mod.point().tags is not p.tags
        q = mod.point(x=1.5, y=2.5, label="q")
        assert q.label == "q"

    def test_struct_typecode_roundtrip(self):
        from repro.cdr import decode, encode

        mod = compile_idl("struct p { long a; string b; };")
        v = mod.p(a=7, b="x")
        out = decode(mod.p._typecode, encode(mod.p._typecode, v))
        assert out == {"a": 7, "b": "x"}

    def test_typedef_plain_is_typecode(self):
        mod = compile_idl("typedef sequence<double, 8> v;")
        assert mod.v == SequenceTC(TC_DOUBLE, 8)

    def test_typedef_dsequence_is_factory(self):
        mod = compile_idl("typedef dsequence<double, 64, CYCLIC> v;")
        assert mod.v.tc == DSequenceTC(TC_DOUBLE, 64, "CYCLIC", "BLOCK")
        assert "dsequence" in repr(mod.v)

    def test_exception_class(self):
        mod = compile_idl("exception oops { string why; long code; };")
        exc = mod.oops(why="bad", code=3)
        assert exc.why == "bad"
        assert exc.code == 3
        assert "IDL:oops:1.0" == mod.oops._repo_id
        with pytest.raises(TypeError):
            mod.oops(nonsense=1)

    def test_interface_metadata(self):
        mod = compile_idl("""
            typedef dsequence<double> v;
            interface i {
                double f(in v data, out v result);
                oneway void g(in long x);
            };
        """)
        iface = mod.i._interface
        assert iface.repo_id == "IDL:i:1.0"
        f = iface.op("f")
        assert f.ret_tc == TC_DOUBLE
        assert [p.name for p in f.params] == ["data", "result"]
        assert f.params[0].is_distributed
        assert iface.op("g").oneway

    def test_inherited_ops_present_on_derived_proxy(self):
        mod = compile_idl("""
            interface base { void ping(); };
            interface derived : base { void pong(); };
        """)
        assert "ping" in mod.derived._interface.ops
        assert hasattr(mod.derived, "ping")
        assert hasattr(mod.derived_skel, "ping")

    def test_module_namespaces(self):
        mod = compile_idl("""
            module app {
                const long VERSION = 3;
                module inner { typedef long t; };
                interface svc { void f(); };
            };
        """)
        assert mod.app.VERSION == 3
        assert mod.app.inner.t == TC_LONG
        assert mod.app.svc is mod.app_svc

    def test_attributes_generated(self):
        mod = compile_idl("""
            interface cfg {
                readonly attribute long version;
                attribute double threshold;
            };
        """)
        assert hasattr(mod.cfg, "_get_version")
        assert not hasattr(mod.cfg, "_set_version")
        assert hasattr(mod.cfg, "_set_threshold")

    def test_raises_metadata(self):
        mod = compile_idl("""
            exception bad { string why; };
            interface i { void f() raises (bad); };
        """)
        assert mod.i._interface.op("f").raises == ["IDL:bad:1.0"]

    def test_semantic_errors_propagate(self):
        with pytest.raises(IdlSemanticError):
            compile_idl("typedef unknown_thing t;")


class TestCli:
    def run_cli(self, *args, idl="interface i { void f(); };", tmp_path=None):
        src_file = tmp_path / "x.idl"
        src_file.write_text(idl)
        return subprocess.run(
            [sys.executable, "-m", "repro.idl.compiler",
             str(src_file), *args],
            capture_output=True, text=True,
        )

    def test_stdout_output(self, tmp_path):
        r = self.run_cli(tmp_path=tmp_path)
        assert r.returncode == 0
        assert "class i(_pardis.ProxyBase)" in r.stdout

    def test_output_file(self, tmp_path):
        out = tmp_path / "stubs.py"
        r = self.run_cli("-o", str(out), tmp_path=tmp_path)
        assert r.returncode == 0
        assert "class i_skel" in out.read_text()

    def test_pooma_option(self, tmp_path):
        r = self.run_cli(
            "-pooma", tmp_path=tmp_path,
            idl="#pragma POOMA:field\ntypedef dsequence<double> f;")
        assert r.returncode == 0
        assert "resolve_adapter('POOMA', 'field')" in r.stdout

    def test_error_exit_code(self, tmp_path):
        r = self.run_cli(tmp_path=tmp_path, idl="typedef broken!!;")
        assert r.returncode == 1
        assert "error" in r.stderr

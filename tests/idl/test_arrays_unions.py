"""Fixed-size arrays and discriminated unions, from IDL to the wire."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cdr import (
    ArrayTC,
    EnumTC,
    MarshalError,
    StringTC,
    TC_DOUBLE,
    TC_LONG,
    UnionTC,
    decode,
    encode,
)
from repro.idl import IdlSemanticError, compile_idl, compile_spec
from repro.idl.lexer import IdlSyntaxError


class TestArrayTypeCode:
    def test_numeric_roundtrip(self):
        tc = ArrayTC(TC_DOUBLE, (2, 3))
        v = np.arange(6.0).reshape(2, 3)
        out = decode(tc, encode(tc, v))
        np.testing.assert_array_equal(out, v)
        assert out.shape == (2, 3)

    def test_no_length_prefix_on_wire(self):
        tc = ArrayTC(TC_DOUBLE, (4,))
        assert len(encode(tc, np.zeros(4))) == 32  # exactly 4 doubles

    def test_shape_mismatch_rejected(self):
        tc = ArrayTC(TC_DOUBLE, (2, 2))
        with pytest.raises(MarshalError, match="shape"):
            encode(tc, np.zeros((2, 3)))

    def test_object_element_array(self):
        tc = ArrayTC(StringTC(), (2, 2))
        v = [["a", "b"], ["c", "d"]]
        assert decode(tc, encode(tc, v)) == v

    def test_object_dimension_mismatch(self):
        tc = ArrayTC(StringTC(), (2,))
        with pytest.raises(MarshalError, match="dimension"):
            encode(tc, ["a", "b", "c"])

    def test_default_numeric_is_zeros(self):
        tc = ArrayTC(TC_LONG, (2, 2))
        np.testing.assert_array_equal(tc.default(), np.zeros((2, 2)))

    def test_default_object_nested_lists(self):
        tc = ArrayTC(StringTC(), (2, 2))
        assert tc.default() == [["", ""], ["", ""]]

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            ArrayTC(TC_LONG, ())
        with pytest.raises(ValueError):
            ArrayTC(TC_LONG, (0,))


class TestUnionTypeCode:
    TC = UnionTC("val", TC_LONG, (
        (1, "d", TC_DOUBLE),
        (2, "s", StringTC()),
    ), default_case=("n", TC_LONG))

    def test_case_roundtrip(self):
        assert decode(self.TC, encode(self.TC, (1, 2.5))) == (1, 2.5)
        assert decode(self.TC, encode(self.TC, (2, "hi"))) == (2, "hi")

    def test_default_arm(self):
        assert decode(self.TC, encode(self.TC, (99, 7))) == (99, 7)

    def test_no_default_unknown_disc_rejected(self):
        tc = UnionTC("v", TC_LONG, ((1, "d", TC_DOUBLE),))
        with pytest.raises(MarshalError, match="no arm"):
            encode(tc, (9, 1.0))

    def test_malformed_value(self):
        with pytest.raises(MarshalError, match="pair"):
            encode(self.TC, 42)

    def test_enum_discriminator(self):
        # An enum discriminator decodes to its member name (and a name may
        # be used when encoding, too).
        color = EnumTC("color", ("RED", "GREEN"))
        tc = UnionTC("cv", color, ((0, "r", TC_DOUBLE), (1, "g", TC_LONG)))
        assert decode(tc, encode(tc, (0, 1.5))) == ("RED", 1.5)
        assert decode(tc, encode(tc, ("GREEN", 7))) == ("GREEN", 7)

    def test_enum_carried_in_union_arm(self):
        mood = EnumTC("mood", ("HAPPY", "GRUMPY"))
        tc = UnionTC("mv", TC_LONG, ((0, "m", mood), (1, "n", TC_LONG)))
        assert decode(tc, encode(tc, (0, "GRUMPY"))) == (0, "GRUMPY")
        assert decode(tc, encode(tc, (0, 0))) == (0, "HAPPY")


class TestIdlArrays:
    def test_typedef_array(self):
        spec = compile_spec("typedef double mat[3][4];")
        tc = spec.typedefs[0].tc
        assert tc == ArrayTC(TC_DOUBLE, (3, 4))

    def test_dims_from_consts(self):
        spec = compile_spec("const long N = 4; typedef long grid[N][N*2];")
        assert spec.typedefs[0].tc.dims == (4, 8)

    def test_struct_member_array(self):
        spec = compile_spec("struct s { double xyz[3]; long n; };")
        fields = dict(spec.structs[0].tc.fields)
        assert fields["xyz"] == ArrayTC(TC_DOUBLE, (3,))
        assert fields["n"] == TC_LONG

    def test_array_of_dsequence_rejected(self):
        with pytest.raises(IdlSemanticError, match="arrays of dsequence"):
            compile_spec("typedef dsequence<double> v; typedef v bad[4];")

    def test_zero_dim_rejected(self):
        with pytest.raises(IdlSemanticError, match="positive"):
            compile_spec("typedef long bad[0];")

    def test_struct_with_array_default(self):
        mod = compile_idl("struct s { double xyz[3]; };",
                          module_name="array_struct_stubs")
        v = mod.s()
        np.testing.assert_array_equal(v.xyz, np.zeros(3))

    def test_array_over_the_wire(self):
        from repro.core import Simulation

        mod = compile_idl("""
            typedef double triple[3];
            interface geom { double norm(in triple v); };
        """, module_name="array_wire_stubs")
        sim = Simulation()

        def server_main(ctx):
            class Impl(mod.geom_skel):
                def norm(self, v):
                    return float(np.linalg.norm(v))

            ctx.poa.activate(Impl(), "geom", kind="spmd")
            ctx.poa.impl_is_ready()

        sim.server(server_main, host="HOST_2", nprocs=1)
        out = {}

        def client(ctx):
            g = mod.geom._bind("geom")
            out["n"] = g.norm(np.array([3.0, 4.0, 0.0]))

        sim.client(client, host="HOST_1")
        sim.run()
        assert out["n"] == 5.0


class TestIdlUnions:
    IDL = """
        enum kind { INT_KIND, TEXT_KIND, REAL_KIND };
        union value switch (kind) {
            case INT_KIND: long i;
            case TEXT_KIND: string s;
            default: double d;
        };
    """

    def test_union_compiles(self):
        spec = compile_spec(self.IDL)
        tc = spec.unions[0].tc
        assert tc.name == "value"
        assert len(tc.cases) == 2
        assert tc.default_case[0] == "d"

    def test_union_in_generated_module(self):
        mod = compile_idl(self.IDL, module_name="union_stubs")
        tc = mod.value
        assert decode(tc, encode(tc, (0, 41))) == ("INT_KIND", 41)
        assert decode(tc, encode(tc, (1, "x"))) == ("TEXT_KIND", "x")
        assert decode(tc, encode(tc, (2, 2.5))) == ("REAL_KIND", 2.5)

    def test_union_usable_in_operation(self):
        from repro.core import Simulation

        mod = compile_idl(self.IDL + """
            interface store { value get(in long which); };
        """, module_name="union_wire_stubs")
        sim = Simulation()

        def server_main(ctx):
            class Impl(mod.store_skel):
                def get(self, which):
                    return [(0, 10), (1, "ten"), (2, 10.0)][which]

            ctx.poa.activate(Impl(), "store", kind="spmd")
            ctx.poa.impl_is_ready()

        sim.server(server_main, host="HOST_2", nprocs=1)
        out = {}

        def client(ctx):
            s = mod.store._bind("store")
            out["vals"] = [s.get(0), s.get(1), s.get(2)]

        sim.client(client, host="HOST_1")
        sim.run()
        assert out["vals"] == [("INT_KIND", 10), ("TEXT_KIND", "ten"),
                               ("REAL_KIND", 10.0)]

    @pytest.mark.parametrize("local", [False, True])
    def test_single_union_out_param_nonblocking(self, local):
        """A lone out parameter whose value is a tuple (a union) reaches
        its placeholder whole, on the remote path and on the local
        bypass alike: one result slot is never unpacked."""
        from repro.core import Future, Simulation

        mod = compile_idl("""
            union blob switch (long) { case 1: double d; case 2: string s; };
            interface u { void get(out blob w); };
        """, module_name="union_out_stubs")
        sim = Simulation()

        def servant():
            class Impl(mod.u_skel):
                def get(self):
                    return (2, "hello")

            return Impl()

        def server_main(ctx):
            ctx.poa.activate(servant(), "u", kind="spmd")
            ctx.poa.impl_is_ready()

        out = {}

        def client(ctx):
            if local:
                ctx.poa.activate(servant(), "u", kind="spmd")
            prx = mod.u._bind("u")
            assert prx._binding.local == local
            w = Future()
            prx.get_nb(w).value()
            out["w"] = w.value()

        if not local:
            sim.server(server_main, host="HOST_2", nprocs=1)
        sim.client(client, host="HOST_1")
        sim.run()
        assert out["w"] == (2, "hello")

    def test_duplicate_case_label_rejected(self):
        with pytest.raises(IdlSemanticError, match="duplicate case"):
            compile_spec("""
                union u switch (long) { case 1: long a; case 1: double b; };
            """)

    def test_two_defaults_rejected(self):
        with pytest.raises(IdlSyntaxError, match="default"):
            compile_spec("""
                union u switch (long) {
                    default: long a;
                    default: double b;
                };
            """)

    def test_non_integral_discriminator_rejected(self):
        with pytest.raises(IdlSemanticError, match="discriminator"):
            compile_spec("union u switch (string) { case 1: long a; };")

    def test_dsequence_arm_rejected(self):
        with pytest.raises(IdlSemanticError, match="distributed"):
            compile_spec("""
                typedef dsequence<double> v;
                union u switch (long) { case 1: v a; };
            """)

    def test_union_without_labelled_case_rejected(self):
        with pytest.raises(IdlSemanticError, match="labelled"):
            compile_spec("union u switch (long) { default: long a; };")

    def test_multi_label_case(self):
        spec = compile_spec("""
            union u switch (long) { case 1: case 2: long a; };
        """)
        tc = spec.unions[0].tc
        assert tc.arm_for(1) == tc.arm_for(2) == ("a", TC_LONG)


@settings(max_examples=60)
@given(
    disc=st.integers(-100, 100),
    dval=st.floats(allow_nan=False, allow_infinity=False),
    sval=st.text(max_size=20),
)
def test_property_union_roundtrip(disc, dval, sval):
    tc = UnionTC("u", TC_LONG, (
        (1, "d", TC_DOUBLE), (2, "s", StringTC()),
    ), default_case=("n", TC_LONG))
    if disc == 1:
        v = (1, dval)
    elif disc == 2:
        v = (2, sval)
    else:
        v = (disc, disc)
    assert decode(tc, encode(tc, v)) == v


@settings(max_examples=40)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=6, max_size=6))
def test_property_array_roundtrip(values):
    tc = ArrayTC(TC_DOUBLE, (2, 3))
    v = np.array(values).reshape(2, 3)
    np.testing.assert_array_equal(decode(tc, encode(tc, v)), v)

"""Echo-server matrix: every IDL type category travels through a real
invocation unchanged (in -> server -> out), including property-based
randomized payloads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Simulation
from repro.idl import compile_idl

ECHO_IDL = """
    enum mood { HAPPY, GRUMPY, SLEEPY };
    struct point { double x; double y; string tag; };
    typedef sequence<point> points;
    typedef sequence<sequence<long>> table;
    interface echo {
        double f_double(in double v, out double w);
        string f_string(in string v, out string w);
        mood f_enum(in mood v, out mood w);
        point f_struct(in point v, out point w);
        points f_structseq(in points v, out points w);
        table f_nested(in table v, out table w);
        boolean f_bool(in boolean v, out boolean w);
    };
"""


@pytest.fixture(scope="module")
def world():
    """One long-lived simulation is too stateful for many tests; instead
    expose a runner that builds a fresh one per invocation batch."""
    mod = compile_idl(ECHO_IDL, module_name="echo_matrix_stubs")

    def run(calls):
        sim = Simulation()

        def server_main(ctx):
            class EchoImpl(mod.echo_skel):
                pass

            for op in mod.echo._interface.ops:
                setattr(EchoImpl, op,
                        (lambda self, v: (v, v)))
            ctx.poa.activate(EchoImpl(), "echo", kind="spmd")
            ctx.poa.impl_is_ready()

        results = []

        def client(ctx):
            e = mod.echo._bind("echo")
            for op, value in calls:
                results.append(getattr(e, op)(value))

        sim.client(client, host="HOST_1")
        sim.server(server_main, host="HOST_2", nprocs=1)
        sim.run()
        return results

    run.mod = mod
    return run


class TestEchoMatrix:
    def test_double(self, world):
        [(r, o)] = world([("f_double", 3.25)])
        assert r == o == 3.25

    def test_string_unicode(self, world):
        [(r, o)] = world([("f_string", "héllo wörld")])
        assert r == o == "héllo wörld"

    def test_enum(self, world):
        mod = world.mod
        [(r, o)] = world([("f_enum", mod.mood.GRUMPY)])
        assert r == o == "GRUMPY"

    def test_struct(self, world):
        mod = world.mod
        [(r, o)] = world([("f_struct", mod.point(x=1.0, y=-2.0, tag="p"))])
        assert r == o == {"x": 1.0, "y": -2.0, "tag": "p"}

    def test_sequence_of_structs(self, world):
        mod = world.mod
        pts = [mod.point(x=float(i), y=0.0, tag=f"t{i}") for i in range(3)]
        [(r, o)] = world([("f_structseq", pts)])
        assert [p["tag"] for p in r] == ["t0", "t1", "t2"]

    def test_nested_dynamic_table(self, world):
        table = [[1, 2, 3], [], [9]]
        [(r, o)] = world([("f_nested", table)])
        assert [list(map(int, row)) for row in r] == table

    def test_bool(self, world):
        [(r, o)] = world([("f_bool", True)])
        assert r is True and o is True


@settings(max_examples=10, deadline=None)
@given(
    d=st.floats(allow_nan=False, allow_infinity=False),
    s=st.text(max_size=40),
)
def test_property_random_payloads_echo(d, s):
    # Build one world per example (cheap: milliseconds).
    mod = compile_idl(ECHO_IDL, module_name="echo_matrix_prop_stubs")
    sim = Simulation()

    def server_main(ctx):
        class EchoImpl(mod.echo_skel):
            def f_double(self, v):
                return (v, v)

            def f_string(self, v):
                return (v, v)

        ctx.poa.activate(EchoImpl(), "echo", kind="spmd")
        ctx.poa.impl_is_ready()

    out = {}

    def client(ctx):
        e = mod.echo._bind("echo")
        out["d"] = e.f_double(d)[0]
        out["s"] = e.f_string(s)[0]

    sim.server(server_main, host="HOST_2", nprocs=1)
    sim.client(client, host="HOST_1")
    sim.run()
    assert out["d"] == d
    assert out["s"] == s

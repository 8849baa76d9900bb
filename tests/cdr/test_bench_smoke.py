"""Smoke-run the marshaling microbenchmarks without pytest-benchmark.

``benchmarks/bench_marshal.py`` normally runs under ``make bench``; this
suite imports it and drives every benchmark function once with a stub
``benchmark`` fixture, so a refactor of the CDR layer that breaks the
benchmark harness (or its typecodes) fails fast in the tier-1 tests.
"""

import importlib.util
import pathlib

import pytest

BENCH_PATH = (pathlib.Path(__file__).resolve().parents[2]
              / "benchmarks" / "bench_marshal.py")


def _load_bench_module():
    spec = importlib.util.spec_from_file_location("bench_marshal_smoke",
                                                  BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _OneShotBenchmark:
    """pytest-benchmark stand-in: runs the target exactly once."""

    def __init__(self):
        self.extra_info = {}

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, **_ignored):
        return fn(*args, **(kwargs or {}))


@pytest.fixture(scope="module")
def bench_mod():
    return _load_bench_module()


def test_flat_doubles_smoke(bench_mod):
    bench_mod.test_encode_flat_doubles(_OneShotBenchmark(), 1_000)
    bench_mod.test_decode_flat_doubles(_OneShotBenchmark(), 1_000)


def test_nested_rows_smoke(bench_mod):
    bench_mod.test_encode_matrix_of_rows(_OneShotBenchmark(), 10)
    bench_mod.test_decode_matrix_of_rows(_OneShotBenchmark(), 10)


def test_nested_fragment_smoke(bench_mod):
    bench_mod.test_nested_fragment_roundtrip(_OneShotBenchmark(), ncols=16)


def test_records_smoke(bench_mod):
    bench_mod.test_roundtrip_heterogeneous_records(_OneShotBenchmark())


def test_fast_path_smoke(bench_mod):
    bench_mod.test_bulk_fast_path_speedup(_OneShotBenchmark())


@pytest.mark.parametrize("kind", ["BLOCK", "CYCLIC"])
def test_transfer_smoke(bench_mod, kind):
    bench_mod.test_transfer_extract_insert(_OneShotBenchmark(), kind)

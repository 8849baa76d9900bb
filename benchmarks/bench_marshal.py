"""Marshaling microbenchmarks (real wall-clock, not virtual time).

The IDL compiler generates marshaling automatically, including for
dynamically-sized nested types (§4.1); these benchmarks measure the CDR
layer's actual throughput so regressions in the hot encode/decode paths
are visible.
"""

import numpy as np
import pytest

from repro.cdr import (
    SequenceTC,
    StringTC,
    StructTC,
    TC_DOUBLE,
    TC_LONG,
    decode,
    encode,
)

FLAT = SequenceTC(TC_DOUBLE)
NESTED = SequenceTC(SequenceTC(TC_DOUBLE))
RECORDS = SequenceTC(StructTC("rec", (
    ("id", TC_LONG), ("name", StringTC()), ("values", SequenceTC(TC_DOUBLE)),
)))


@pytest.mark.benchmark(group="marshal-flat")
@pytest.mark.parametrize("n", [1_000, 100_000])
def test_encode_flat_doubles(benchmark, n):
    data = np.arange(n, dtype=float)
    out = benchmark(encode, FLAT, data)
    benchmark.extra_info["wire_bytes"] = len(out)


@pytest.mark.benchmark(group="marshal-flat")
@pytest.mark.parametrize("n", [1_000, 100_000])
def test_decode_flat_doubles(benchmark, n):
    wire = encode(FLAT, np.arange(n, dtype=float))
    out = benchmark(decode, FLAT, wire)
    assert len(out) == n


@pytest.mark.benchmark(group="marshal-nested")
@pytest.mark.parametrize("rows", [10, 200])
def test_encode_matrix_of_rows(benchmark, rows):
    """The §4.1 matrix shape: dynamically-sized rows."""
    data = [np.arange(rows, dtype=float) for _ in range(rows)]
    out = benchmark(encode, NESTED, data)
    benchmark.extra_info["wire_bytes"] = len(out)


@pytest.mark.benchmark(group="marshal-nested")
@pytest.mark.parametrize("rows", [10, 200])
def test_decode_matrix_of_rows(benchmark, rows):
    wire = encode(NESTED, [np.arange(rows, dtype=float) for _ in range(rows)])
    out = benchmark(decode, NESTED, wire)
    assert len(out) == rows


@pytest.mark.benchmark(group="marshal-records")
def test_roundtrip_heterogeneous_records(benchmark):
    data = [
        {"id": i, "name": f"record-{i}", "values": np.arange(i % 7, dtype=float)}
        for i in range(200)
    ]

    def roundtrip():
        return decode(RECORDS, encode(RECORDS, data))

    out = benchmark(roundtrip)
    assert len(out) == 200


@pytest.mark.benchmark(group="marshal-fastpath")
def test_bulk_fast_path_speedup(benchmark):
    """The numpy fast path must beat element-wise encoding by a wide
    margin — that is why it exists."""
    import time

    from repro.cdr import CdrEncoder

    data = np.arange(50_000, dtype=float)

    def fast():
        return encode(FLAT, data)

    def slow():
        enc = CdrEncoder()
        enc.put_ulong(len(data))
        for v in data:
            enc.put_primitive(TC_DOUBLE, float(v))
        return enc.getvalue()

    wire_fast = benchmark(fast)
    t0 = time.perf_counter()
    wire_slow = slow()
    slow_s = time.perf_counter() - t0
    assert wire_fast == wire_slow
    benchmark.extra_info["elementwise_s"] = round(slow_s, 4)


def _race(fn_a, fn_b, repeats=15, inner=8):
    """Min-of-N timing of two functions with the rounds interleaved, so
    both see the same machine conditions; returns (best_a, best_b) in
    seconds per call."""
    import time

    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn_a()
        best_a = min(best_a, (time.perf_counter() - t0) / inner)
        t0 = time.perf_counter()
        for _ in range(inner):
            fn_b()
        best_b = min(best_b, (time.perf_counter() - t0) / inner)
    return best_a, best_b


@pytest.mark.benchmark(group="marshal-zerocopy")
@pytest.mark.parametrize("nbytes", [64 * 1024, 1024 * 1024],
                         ids=["64KiB", "1MiB"])
def test_zero_copy_fragment_roundtrip_speedup(benchmark, nbytes):
    """The zero-copy gate: a numeric fragment's encode→decode round trip
    through the courier (one pooled write, aliasing decode) must be at
    least 2x faster at >= 64 KiB than the one-shot CDR round trip
    ``decode(encode(...))`` (three encode copies + a decode copy)."""
    from repro.cdr import BufferPool, SequenceTC, decode, encode
    from repro.core.pipeline.courier import fragment_payload, fragment_values

    n = nbytes // 8
    data = np.arange(n, dtype=float)
    pool = BufferPool()
    seq = SequenceTC(TC_DOUBLE)

    def roundtrip():
        payload = fragment_payload(TC_DOUBLE, data, pool)
        s = float(fragment_values(TC_DOUBLE, payload, pool)[-1])
        payload.release()
        return s

    def one_shot():
        return float(decode(seq, encode(seq, data))[-1])

    assert roundtrip() == one_shot() == float(n - 1)
    # Wire parity with the one-shot stream, byte for byte.
    buf = fragment_payload(TC_DOUBLE, data, pool)
    assert bytes(buf.view()) == encode(seq, data)
    buf.release()

    fast_s, slow_s = _race(roundtrip, one_shot)
    speedup = slow_s / fast_s
    benchmark.extra_info["fast_s"] = round(fast_s, 7)
    benchmark.extra_info["slow_s"] = round(slow_s, 7)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(roundtrip)
    assert speedup >= 2.0, (
        f"zero-copy round trip only {speedup:.2f}x faster at {nbytes} bytes "
        f"(fast {fast_s * 1e6:.1f} us, slow {slow_s * 1e6:.1f} us)"
    )


#: rows per nested fragment of a 4->3 BLOCK redistribution of 256 rows
#: (perfbench ``dseq_matrix``): 0->0, 1->0, 1->1, 2->1, 2->2, 3->2
MATRIX_FRAGMENT_ROWS = (64, 22, 42, 43, 21, 64)


@pytest.mark.benchmark(group="marshal-nested")
def test_nested_fragment_roundtrip(benchmark, ncols=256):
    """The six nested fragments of one ``dseq_matrix`` request
    (``sequence<double>`` rows of 256 doubles) through the courier's
    payload encode and decode: one rows writer into an exact-size
    buffer, one block copy per fragment on the way back."""
    from repro.cdr import BufferPool
    from repro.core.pipeline.courier import fragment_payload, fragment_values

    row = SequenceTC(TC_DOUBLE)
    rng = np.random.default_rng(0)
    fragments = [[rng.random(ncols) for _ in range(k)]
                 for k in MATRIX_FRAGMENT_ROWS]
    pool = BufferPool()

    def roundtrip():
        return [fragment_values(row, fragment_payload(row, rows, pool), pool)
                for rows in fragments]

    out = benchmark(roundtrip)
    for got, rows in zip(out, fragments):
        np.testing.assert_array_equal(np.asarray(got), np.asarray(rows))
    assert pool.stats.borrows == 0
    benchmark.extra_info["wire_bytes"] = sum(
        len(fragment_payload(row, rows, pool)) for rows in fragments)


@pytest.mark.benchmark(group="transfer")
@pytest.mark.parametrize("kind", ["BLOCK", "CYCLIC"])
def test_transfer_extract_insert(benchmark, kind):
    """One 4->3 redistribution of a 256-row matrix held as a list of rows
    (perfbench ``dseq_matrix``'s shape): every plan item's extract plus
    insert, no CDR.  BLOCK moves each item as one slice; CYCLIC walks
    each item's cached local index arrays."""
    from repro.core import transfer
    from repro.core.distribution import resolve_dist_spec

    n = 256
    src = resolve_dist_spec(kind, n, 4)
    dst = resolve_dist_spec(kind, n, 3)
    rows = [np.full(n, float(g)) for g in range(n)]
    src_locals = [[rows[g] for g in src.global_indices(r)]
                  for r in range(src.p)]
    dst_locals = [[None] * dst.local_size(r) for r in range(dst.p)]

    def move():
        for item in transfer.cached_schedule(src, dst):
            values = transfer.extract(item, src_locals[item.src_rank])
            transfer.insert(item, dst_locals[item.dst_rank], values)

    benchmark(move)
    for r in range(dst.p):
        assert [row[0] for row in dst_locals[r]] == \
            [float(g) for g in dst.global_indices(r)]

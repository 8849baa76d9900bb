"""CDR-style encoder.

Follows CORBA CDR's layout rules: every primitive is aligned to its
natural boundary (relative to the start of the encapsulation), sequences
and strings carry a ``ulong`` length prefix, strings are NUL-terminated,
enums travel as ``ulong``.  Byte order is fixed little-endian (a real GIOP
stream carries a byte-order flag; a single simulation never mixes orders).

Bulk numeric sequences take a numpy fast path: one alignment pad, one
length word, one contiguous buffer copy.  A nested numeric sequence
(``sequence<sequence<double>>`` and the like) has one rows writer: a
planning pass checks every row and places its header and data with the
alignment rules above, which sizes the whole run; the buffer then grows
once and each row is written with one ndarray assignment.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from .typecodes import (
    ObjectRefTC,
    DSequenceTC,
    EnumTC,
    INT_RANGES,
    PrimitiveTC,
    SequenceTC,
    StringTC,
    StructTC,
    TypeCode,
    is_numeric_primitive,
    is_numeric_rows,
)


from .typecodes import TC_BOOLEAN as PRIM_BOOL


class MarshalError(ValueError):
    """Value cannot be encoded under the given TypeCode."""


#: One precompiled little-endian codec per integer and floating-point
#: primitive (``char`` and ``boolean`` are single raw bytes); the decoder
#: unpacks with the same objects.
SCALAR_CODECS = {
    name: struct.Struct("<" + code)
    for name, code in (("octet", "B"), ("short", "h"), ("ushort", "H"),
                       ("long", "i"), ("ulong", "I"), ("longlong", "q"),
                       ("ulonglong", "Q"), ("float", "f"), ("double", "d"))
}
_ULONG = SCALAR_CODECS["ulong"]
_PAD = bytes(8)
#: a numeric run's header by its size: the count, then the pad that
#: aligns an 8-byte element
_HEADERS = {4: _ULONG, 8: struct.Struct("<I4x")}


class CdrEncoder:
    """Append-only CDR output stream."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    # -- low-level --------------------------------------------------------------

    def align(self, n: int) -> None:
        pad = (-len(self._buf)) % n
        if pad:
            self._buf.extend(b"\0" * pad)

    def put_primitive(self, tc: PrimitiveTC, value: Any) -> None:
        self.align(tc.size)
        if tc.name == "char":
            if isinstance(value, str):
                if len(value) != 1:
                    raise MarshalError(f"char needs a 1-char string, got {value!r}")
                value = ord(value)
            self._buf.append(int(value) & 0xFF)
            return
        if tc.name == "boolean":
            self._buf.append(1 if value else 0)
            return
        bounds = INT_RANGES.get(tc.name)
        if bounds is None:          # float / double
            value = float(value)
        else:
            value = int(value)
            if not (bounds[0] <= value <= bounds[1]):
                raise MarshalError(f"{value} out of range for {tc.name}")
        self._buf.extend(SCALAR_CODECS[tc.name].pack(value))

    def put_ulong(self, value: int) -> None:
        self.align(4)
        if not (0 <= value <= 0xFFFFFFFF):
            raise MarshalError(f"ulong out of range: {value}")
        self._buf.extend(_ULONG.pack(value))

    def put_string(self, value: str, bound: int | None = None) -> None:
        data = value.encode("utf-8")
        if bound is not None and len(data) > bound:
            raise MarshalError(f"string of {len(data)} bytes exceeds bound {bound}")
        self.put_ulong(len(data) + 1)
        self._buf.extend(data)
        self._buf.append(0)

    def put_bulk(self, element: PrimitiveTC, values: Any) -> None:
        """One numeric run: the ``ulong`` count, the pad to the element's
        alignment, and the elements in one copy.  Flat numeric sequences
        are written here."""
        if element.name == "boolean":
            values = _booleans(values)
        arr = np.ascontiguousarray(values, dtype=element.dtype)
        if arr.ndim != 1:
            raise MarshalError(f"bulk sequence must be 1-D, got shape {arr.shape}")
        buf = self._buf
        pad = (-len(buf)) % 4
        after = len(buf) + pad + 4               # where the count ends
        buf += (_PAD[:pad] + _ULONG.pack(arr.size)
                + _PAD[:(-after) % element.size])
        buf += arr.tobytes()

    # -- typecode-driven -----------------------------------------------------------

    def encode(self, tc: TypeCode, value: Any) -> "CdrEncoder":
        if isinstance(tc, PrimitiveTC):
            self.put_primitive(tc, value)
        elif isinstance(tc, StringTC):
            if not isinstance(value, str):
                raise MarshalError(f"expected str, got {type(value).__name__}")
            self.put_string(value, tc.bound)
        elif isinstance(tc, EnumTC):
            idx = tc.index_of(value)
            if not (0 <= idx < len(tc.members)):
                raise MarshalError(f"enum {tc.name} has no member index {idx}")
            self.put_ulong(idx)
        elif isinstance(tc, SequenceTC):
            self._encode_sequence(tc, value)
        elif isinstance(tc, DSequenceTC):
            # A whole dsequence encoded locally is just its fragment form.
            self._encode_sequence(tc.fragment_tc(), value)
        elif isinstance(tc, StructTC):
            for fname, ftc in tc.fields:
                try:
                    fval = value[fname] if isinstance(value, dict) else getattr(value, fname)
                except (KeyError, AttributeError):
                    raise MarshalError(
                        f"struct {tc.name} value missing field {fname!r}"
                    ) from None
                self.encode(ftc, fval)
        elif isinstance(tc, ObjectRefTC):
            self._encode_objref(tc, value)
        else:
            raise MarshalError(f"cannot encode typecode {tc!r}")
        return self

    def _encode_objref(self, tc: ObjectRefTC, value: Any) -> None:
        # Accept proxies (static or dynamic) and raw ObjectRefs.
        binding = getattr(value, "_binding", None)
        if binding is not None:
            value = binding.ref
        if value is None:
            self.put_primitive(PRIM_BOOL, False)   # nil reference
            return
        required = ("name", "repo_id", "kind", "program_id", "host",
                    "nthreads", "owner_rank", "endpoints")
        if not all(hasattr(value, f) for f in required):
            raise MarshalError(
                f"expected an object reference or proxy, got {value!r}"
            )
        self.put_primitive(PRIM_BOOL, True)
        self.put_string(value.name)
        self.put_string(value.repo_id)
        self.put_string(value.kind)
        self.put_ulong(value.program_id)
        self.put_string(value.host)
        self.put_ulong(value.nthreads)
        self.put_ulong(value.owner_rank)
        self.put_ulong(len(value.endpoints))
        for addr in value.endpoints:
            self.put_string(addr.host)
            self.put_ulong(addr.node)
            self.put_ulong(addr.port)
        dists = value.in_dists or {}
        self.put_ulong(len(dists))
        for (op, param), spec in sorted(dists.items()):
            if not isinstance(spec, str):
                raise MarshalError(
                    "object references with non-named in-distribution "
                    f"overrides cannot travel by value ({op}/{param}: {spec!r})"
                )
            self.put_string(op)
            self.put_string(param)
            self.put_string(spec)

    def _encode_sequence(self, tc: SequenceTC, value: Any) -> None:
        n = _checked_len(value, tc.bound)
        # The bulk path is only valid for numeric primitive elements: an
        # ndarray handed to a sequence-of-structs (or similar) must go
        # element-wise so a wrong element type raises MarshalError.
        element = tc.element
        if is_numeric_primitive(element) and not isinstance(value, (str, bytes)):
            self.put_bulk(element, value)
            return
        self.put_ulong(n)
        if is_numeric_rows(element):
            # The rows writer: size the run, grow the stream once, then
            # write every row in place.
            buf = self._buf
            plan, end = _plan_rows(element, value, len(buf))
            buf += bytes(end - len(buf))
            _write_rows(buf, element.element, plan)
            return
        for item in value:
            self.encode(element, item)


def _booleans(values: Any) -> np.ndarray:
    """Boolean elements as a bulk lane writes them: each one's truth
    value, so it is 0 or 1 on the wire, as ``put_primitive`` writes a
    boolean."""
    arr = np.asarray(values)
    if arr.dtype.kind in "OSU":
        return np.vectorize(bool, otypes=[bool])(arr)
    return arr != 0


def _checked_len(value: Any, bound: int | None) -> int:
    """Length of a sequence value, checked against its ``bound``."""
    try:
        n = len(value)
    except TypeError:
        raise MarshalError(
            f"expected a sized sequence, got {type(value).__name__}"
        ) from None
    if bound is not None and n > bound:
        raise MarshalError(f"sequence of {n} exceeds bound {bound}")
    return n


def _plan_rows(row_tc: SequenceTC, rows: Any, pos: int):
    """Planning pass of the rows writer, for rows starting at stream
    offset ``pos``.

    Checks each row as the element-wise stream would (bound, sized, 1-D;
    a ``str``/``bytes`` row is converted element by element) and places
    its ``ulong`` header and its data with the CDR alignment rules.
    Returns ``([(header offset, first element index, length, array),
    ...], end)``: all the writing pass needs, and where the run ends.
    """
    numbers = row_tc.element
    dtype = numbers.dtype
    size = numbers.size
    bound = row_tc.bound
    booleans = numbers.name == "boolean"
    plan = []
    for row in rows:
        _checked_len(row, bound)
        if booleans and not isinstance(row, (str, bytes)):
            row = _booleans(row)
        if type(row) is np.ndarray and row.dtype == dtype:
            arr = row
        elif isinstance(row, (str, bytes)):
            scratch = CdrEncoder()
            for v in row:
                scratch.put_primitive(numbers, v)
            arr = np.frombuffer(scratch.getvalue(), dtype)
        else:
            arr = np.asarray(row, dtype=dtype)
        if arr.ndim != 1:
            raise MarshalError(
                f"bulk sequence must be 1-D, got shape {arr.shape}")
        m = arr.size
        header = pos + (-pos) % 4
        data = header + 4
        data += (-data) % size
        plan.append((header, data // size, m, arr))
        pos = data + m * size
    return plan, pos


def _write_rows(buf: bytearray, numbers: PrimitiveTC, plan) -> None:
    """Writing pass of the rows writer: each planned row's header, then
    its data through one dtype view of ``buf``, which must already span
    the run with its pads zeroed.  The view is local, so the export
    that blocks resizing ``buf`` ends on return."""
    view = np.frombuffer(buf, numbers.dtype, len(buf) // numbers.size)
    pack_into = _ULONG.pack_into
    for header, first, m, arr in plan:
        pack_into(buf, header, m)
        view[first:first + m] = arr


def encode_rows_payload(row_tc: SequenceTC, rows: Any) -> bytearray:
    """A fragment of a nested numeric sequence, ``sequence<row_tc>``,
    written by the rows writer into an exact-size ``bytearray`` (the
    same bytes as :func:`encode`, without its final copy)."""
    k = _checked_len(rows, None)
    plan, total = _plan_rows(row_tc, rows, 4)
    buf = bytearray(total)
    _ULONG.pack_into(buf, 0, k)
    _write_rows(buf, row_tc.element, plan)
    return buf


def encode(tc: TypeCode, value: Any) -> bytes:
    """One-shot encode."""
    return CdrEncoder().encode(tc, value).getvalue()


def _make_views(views: dict, element: PrimitiveTC, data, header: int):
    """Build (and cache on the pooled buffer) the writable and read-only
    full-buffer ndarray views of a bucket for one element dtype.  Bucket
    capacities are multiples of 8, so every element size divides the
    region past the header exactly."""
    w = np.frombuffer(data, dtype=element.dtype, offset=header)
    r = w[:]
    r.flags.writeable = False
    pair = views[element.name] = (w, r)
    return pair


def encode_bulk_payload(element: PrimitiveTC, values, pool):
    """Zero-copy lane: encode a numeric fragment into a pooled buffer.

    Writes the ``ulong`` count, alignment pad, and the element data with a
    single vectorized copy (``np.asarray`` accepts non-contiguous input;
    the strided gather happens inside the one ndarray assignment).  The
    produced bytes are identical to ``CdrEncoder.put_bulk`` on a fresh
    stream.  Returns a :class:`~repro.cdr.buffers.PooledBuffer` lease the
    caller owns.
    """
    dtype = element.dtype
    if element.name == "boolean":
        values = _booleans(values)
    arr = values if (type(values) is np.ndarray and values.dtype == dtype) \
        else np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise MarshalError(f"bulk sequence must be 1-D, got shape {arr.shape}")
    size = element.size
    header = 4 + ((-4) % size)
    n = arr.size
    total = header + n * size
    buf = pool.acquire(total)
    data = buf.data
    _HEADERS[header].pack_into(data, 0, n)
    pair = buf.views.get(element.name)
    if pair is None:
        pair = _make_views(buf.views, element, data, header)
    pair[0][:n] = arr
    stats = pool.stats
    stats.fast_encodes += 1
    stats.bytes_fast += total
    return buf

"""CDR-style decoder; exact mirror of :mod:`repro.cdr.encoder`."""

from __future__ import annotations

from typing import Any

import numpy as np

from .buffers import PooledBuffer
from .encoder import _ULONG, SCALAR_CODECS, MarshalError, _make_views
from .typecodes import (
    ObjectRefTC,
    TC_BOOLEAN as PRIM_BOOL,
    TC_ULONG,
    DSequenceTC,
    EnumTC,
    PrimitiveTC,
    SequenceTC,
    StringTC,
    StructTC,
    TypeCode,
    is_numeric_primitive,
    is_numeric_rows,
)


class CdrDecoder:
    """Sequential CDR input stream."""

    def __init__(self, data: bytes) -> None:
        self._data = memoryview(data)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> bool:
        return self._pos == len(self._data)

    # -- low-level --------------------------------------------------------------

    def align(self, n: int) -> None:
        self._pos += (-self._pos) % n

    def _skip(self, n: int) -> int:
        """Step over the next ``n`` bytes; returns the offset they start at."""
        pos = self._pos
        if pos + n > len(self._data):
            raise MarshalError(
                f"buffer underrun: need {n} bytes at offset {pos}, "
                f"only {self.remaining} remain"
            )
        self._pos = pos + n
        return pos

    def _take(self, n: int) -> memoryview:
        pos = self._skip(n)
        return self._data[pos:pos + n]

    def get_primitive(self, tc: PrimitiveTC) -> Any:
        self.align(tc.size)
        raw = self._take(tc.size)
        if tc.name == "char":
            return chr(raw[0])
        if tc.name == "boolean":
            return bool(raw[0])
        return SCALAR_CODECS[tc.name].unpack(raw)[0]

    def get_ulong(self) -> int:
        self.align(4)
        return _ULONG.unpack_from(self._data, self._skip(4))[0]

    def get_string(self) -> str:
        n = self.get_ulong()
        if n < 1:
            raise MarshalError("string length prefix must be >= 1")
        raw = self._take(n)
        if raw[-1] != 0:
            raise MarshalError("string is not NUL-terminated")
        return bytes(raw[:-1]).decode("utf-8")

    def get_bulk(self, element: PrimitiveTC) -> np.ndarray:
        """One numeric run (see ``CdrEncoder.put_bulk``), copied out.
        Flat numeric sequences are read here."""
        n = self.get_ulong()
        self.align(element.size)
        start = self._skip(n * element.size)
        return np.frombuffer(self._data, element.dtype, n, start).copy()

    def get_rows(self, row_tc: SequenceTC, k: int) -> list:
        """The ``k`` rows of a nested numeric sequence (its count already
        read), each a writable 1-D ndarray that never aliases the stream.

        Row 0 is read as one numeric run.  When rows 1.. fit at the
        stride row 1 implies and every one of their headers repeats row
        0's length, all ``k`` rows are copied out as one ``(k, m)``
        block; otherwise (ragged rows, a corrupt header, truncation)
        they are read one run at a time, with the same values and
        errors.
        """
        if k == 0:
            return []
        numbers = row_tc.element
        dtype = numbers.dtype
        size = numbers.size
        bound = row_tc.bound
        data = self._data
        m = self.get_ulong()
        self.align(size)
        row0 = self._skip(m * size)
        if bound is not None and m > bound:
            raise MarshalError(f"sequence of {m} exceeds bound {bound}")
        if k >= 2:
            # From row 1 on, every header of an m-element row starts at
            # the same offset modulo the element's alignment, so the pads
            # and the header-to-header stride repeat; row 0's pad may
            # differ.
            header = self._pos + (-self._pos) % 4
            start = header + 4
            start += (-start) % size
            stride = (start + m * size + 3) // 4 * 4 - header
            end = start + (k - 2) * stride + m * size
            if end <= len(data):
                headers = np.ndarray((k - 1,), TC_ULONG.dtype, data, header,
                                     (stride,))
                if (headers == m).all():
                    block = np.empty((k, m), dtype)
                    block[0] = np.frombuffer(data, dtype, m, row0)
                    block[1:] = np.ndarray((k - 1, m), dtype, data, start,
                                           (stride, size))
                    self._pos = end
                    return list(block)
        rows = [np.frombuffer(data, dtype, m, row0).copy()]
        for _ in range(k - 1):
            row = self.get_bulk(numbers)
            if bound is not None and row.size > bound:
                raise MarshalError(
                    f"sequence of {row.size} exceeds bound {bound}")
            rows.append(row)
        return rows

    # -- typecode-driven -----------------------------------------------------------

    def decode(self, tc: TypeCode) -> Any:
        if isinstance(tc, PrimitiveTC):
            return self.get_primitive(tc)
        if isinstance(tc, StringTC):
            s = self.get_string()
            if tc.bound is not None and len(s.encode("utf-8")) > tc.bound:
                raise MarshalError(f"decoded string exceeds bound {tc.bound}")
            return s
        if isinstance(tc, EnumTC):
            idx = self.get_ulong()
            if idx >= len(tc.members):
                raise MarshalError(f"enum {tc.name} has no member index {idx}")
            # Decoding yields the member *name*: the encoder accepts both
            # names and indices, so name-out makes decode(encode(v)) a
            # fixed point regardless of which form was encoded.
            return tc.members[idx]
        if isinstance(tc, SequenceTC):
            return self._decode_sequence(tc)
        if isinstance(tc, DSequenceTC):
            return self._decode_sequence(tc.fragment_tc())
        if isinstance(tc, StructTC):
            return {fname: self.decode(ftc) for fname, ftc in tc.fields}
        if isinstance(tc, ObjectRefTC):
            return self._decode_objref(tc)
        raise MarshalError(f"cannot decode typecode {tc!r}")

    def _decode_objref(self, tc: ObjectRefTC):
        from ..core.repository import ObjectRef
        from ..netsim import Address

        if not self.get_primitive(PRIM_BOOL):
            return None
        name = self.get_string()
        repo_id = self.get_string()
        kind = self.get_string()
        program_id = self.get_ulong()
        host = self.get_string()
        nthreads = self.get_ulong()
        owner_rank = self.get_ulong()
        n_ep = self.get_ulong()
        endpoints = tuple(
            Address(self.get_string(), self.get_ulong(), self.get_ulong())
            for _ in range(n_ep)
        )
        n_dists = self.get_ulong()
        in_dists = {}
        for _ in range(n_dists):
            op = self.get_string()
            param = self.get_string()
            in_dists[(op, param)] = self.get_string()
        return ObjectRef(name=name, repo_id=repo_id, kind=kind,
                         program_id=program_id, host=host,
                         nthreads=nthreads, owner_rank=owner_rank,
                         endpoints=endpoints, in_dists=in_dists)

    def _decode_sequence(self, tc: SequenceTC) -> Any:
        element = tc.element
        if is_numeric_primitive(element):
            arr = self.get_bulk(element)
            if tc.bound is not None and arr.size > tc.bound:
                raise MarshalError(
                    f"sequence of {arr.size} exceeds bound {tc.bound}")
            return arr
        n = self.get_ulong()
        if tc.bound is not None and n > tc.bound:
            raise MarshalError(f"sequence of {n} exceeds bound {tc.bound}")
        if is_numeric_rows(element):
            return self.get_rows(element, n)
        return [self.decode(element) for _ in range(n)]


def decode_rows_payload(row_tc: SequenceTC, payload) -> list:
    """Decode a fragment of a nested numeric sequence, ``sequence<row_tc>``
    (see :func:`~repro.cdr.encoder.encode_rows_payload`), with the rows
    reader.  The rows never alias ``payload``."""
    dec = CdrDecoder(payload)
    return dec.get_rows(row_tc, dec.get_ulong())


def decode_bulk_payload(element: PrimitiveTC, payload) -> np.ndarray:
    """Zero-copy lane: view a numeric fragment payload as an ndarray.

    Accepts a :class:`~repro.cdr.buffers.PooledBuffer` lease or anything
    exposing the buffer protocol (``bytes``, ``memoryview``).  Returns a
    **read-only** ndarray aliasing the payload storage — no copy; the
    caller must finish with the array before releasing the underlying
    buffer.  Mirrors ``CdrDecoder.get_bulk`` except trailing bytes beyond
    the declared count are tolerated (a pooled buffer's bucket capacity
    can exceed the payload length).
    """
    pooled = type(payload) is PooledBuffer
    if pooled:
        if payload.released:
            raise MarshalError("decode of a released PooledBuffer")
        avail = payload.length
        data = payload.data
    else:
        avail = len(payload)
        data = payload
    if avail < 4:
        raise MarshalError(f"bulk payload of {avail} bytes has no length word")
    (n,) = _ULONG.unpack_from(data, 0)
    size = element.size
    header = 4 + ((-4) % size)
    end = header + n * size
    if avail < end:
        raise MarshalError(
            f"buffer underrun: bulk payload declares {n} elements "
            f"({end} bytes) but only {avail} are present"
        )
    if pooled:
        pair = payload.views.get(element.name)
        if pair is None:
            pair = _make_views(payload.views, element, data, header)
        arr = pair[1][:n]
    else:
        arr = np.frombuffer(data, dtype=element.dtype, count=n,
                            offset=header)
        if arr.flags.writeable:
            arr.flags.writeable = False
    return arr


def decode(tc: TypeCode, data: bytes) -> Any:
    """One-shot decode; requires the buffer to be fully consumed."""
    dec = CdrDecoder(data)
    value = dec.decode(tc)
    if not dec.done():
        raise MarshalError(f"{dec.remaining} trailing bytes after decode")
    return value

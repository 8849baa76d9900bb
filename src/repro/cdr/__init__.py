"""CDR-style marshaling: typecodes, encoder, decoder.

The IDL compiler generates code that drives this layer; the same
marshaling routines serve both network transport and transport within a
parallel program's communication domain (paper §4.1).
"""

from .buffers import BufferPool, PooledBuffer, ZeroCopyStats
from .decoder import CdrDecoder, decode, decode_bulk_payload
from .encoder import CdrEncoder, MarshalError, encode, encode_bulk_payload
from .typecodes import (
    DSequenceTC,
    EnumTC,
    PRIMITIVES,
    PrimitiveTC,
    SequenceTC,
    StringTC,
    StructTC,
    TC_BOOLEAN,
    TC_CHAR,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    TC_ULONG,
    TC_ULONGLONG,
    TC_USHORT,
    TypeCode,
    is_numeric_primitive,
    wire_size,
)

from .typecodes import ObjectRefTC

__all__ = [
    "BufferPool",
    "CdrDecoder",
    "CdrEncoder",
    "DSequenceTC",
    "EnumTC",
    "MarshalError",
    "ObjectRefTC",
    "PRIMITIVES",
    "PooledBuffer",
    "PrimitiveTC",
    "SequenceTC",
    "StringTC",
    "StructTC",
    "TC_BOOLEAN",
    "TC_CHAR",
    "TC_DOUBLE",
    "TC_FLOAT",
    "TC_LONG",
    "TC_LONGLONG",
    "TC_OCTET",
    "TC_SHORT",
    "TC_ULONG",
    "TC_ULONGLONG",
    "TC_USHORT",
    "TypeCode",
    "ZeroCopyStats",
    "decode",
    "decode_bulk_payload",
    "encode",
    "encode_bulk_payload",
    "is_numeric_primitive",
    "wire_size",
]

"""JSON emission with a pinned number format, and the typed-record codec.

All floats are written with 17 significant digits so that output files are
byte-stable across platforms and fully round-trip in double precision.
Parsing is plain ``json.loads``.  The emitter dispatches on the exact type
of each value and falls back to isinstance checks for numpy scalars and
subclasses.

:class:`Record` maps a frozen dataclass to and from a JSON object, one key
per field in declaration order.  Fields whose metadata is
:data:`COMPLEX_VECTOR` or :data:`COMPLEX_MATRIX` hold complex arrays,
written as flattened row-major ``[re, im]`` pairs (a tuple of matrices as
one such list per matrix).  The decoder checks every field of outside
input, its presence, JSON type and finiteness, and raises ``ValueError``
naming the field; shapes and ranges are checked by the record's
constructor, which takes only the fields declared with ``init``, the
others being derived from them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from typing import Any

import numpy as np

loads = json.loads
#: The string encoder ``json.dumps`` uses by default, non-ASCII escaped.
_escape = json.encoder.encode_basestring_ascii

#: Field metadata of a complex vector written as [re, im] pairs.
COMPLEX_VECTOR = {"complex": "vector"}
#: Field metadata of a square complex matrix, or a stack of them, each
#: written as its row-major [re, im] pairs.
COMPLEX_MATRIX = {"complex": "matrix"}


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(x, ".17g")


@functools.cache
def _layout(indent: int | None, level: int) -> tuple[str, str, str]:
    """The whitespace after the opening bracket, between items and before the
    closing bracket of a non-empty container at ``level``."""
    if indent is None:
        return "", ", ", ""
    inner = "\n" + " " * (indent * (level + 1))
    return inner, "," + inner, "\n" + " " * (indent * level)


def _object(obj: dict, indent: int | None, level: int) -> str:
    if not obj:
        return "{}"
    first, sep, last = _layout(indent, level)
    level += 1
    items = [_escape(str(k)) + ": " + _emit(v, indent, level) for k, v in obj.items()]
    return "{" + first + sep.join(items) + last + "}"


def _array(obj, indent: int | None, level: int) -> str:
    if not obj:
        return "[]"
    first, sep, last = _layout(indent, level)
    level += 1
    return "[" + first + sep.join([_emit(v, indent, level) for v in obj]) + last + "]"


def _emit(obj: Any, indent: int | None, level: int) -> str:
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is dict:
        return _object(obj, indent, level)
    if kind is list or kind is tuple:
        return _array(obj, indent, level)
    if kind is np.ndarray:
        return _emit(obj.tolist(), indent, level)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if kind is int:
        return str(obj)
    if kind is str:
        return _escape(obj)
    # numpy scalars, ndarray subclasses and subclasses of the types above;
    # bool admits no subclass, so np.bool_ falls through to the TypeError
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist(), indent, level)
    if isinstance(obj, np.floating):
        return _format_float(float(obj))
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        return _object(obj, indent, level)
    if isinstance(obj, (list, tuple)):
        return _array(obj, indent, level)
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")


def dumps(obj: Any, indent: int | None = None) -> str:
    return _emit(obj, indent, 0)


def freeze(x, shape: tuple | None = None, dtype=float, name: str = "array") -> np.ndarray:
    """Read-only array copy of ``x``, required to have ``shape`` if given."""
    a = np.array(x, dtype=dtype)
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    a.setflags(write=False)
    return a


# -- decoders of outside input; each raises ValueError naming the field ------


def number(value, name: str) -> float:
    """A finite JSON number as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {type(value).__name__}")
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    return x


def integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    return value


def string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {type(value).__name__}")
    return value


def real_array(value, name: str) -> np.ndarray:
    """A JSON number or rectangular nested list of numbers, all finite."""
    try:
        a = np.array(value)
    except ValueError:  # ragged nesting
        a = None
    # bools, strings, objects and integers beyond 64 bits all fail the kind test
    if a is None or a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a number or a rectangular array of numbers")
    a = a.astype(float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def complex_array(value, name: str, square: bool = False) -> np.ndarray:
    """Complex array from a list of [re, im] pairs (or a list of such lists).

    With ``square`` each list of n*n pairs is one row-major n x n matrix.
    """
    pairs = real_array(value, name)
    if pairs.ndim < 2 or pairs.shape[-1] != 2:
        raise ValueError(f"{name} must be a list of [re, im] pairs")
    # a view keeps each part bit for bit, signed zeros included
    z = np.ascontiguousarray(pairs).view(complex)[..., 0]
    if square:
        n = math.isqrt(z.shape[-1])
        if n * n != z.shape[-1]:
            raise ValueError(f"{name} must hold n*n entries of an n x n matrix, got {z.shape[-1]}")
        z = z.reshape(z.shape[:-1] + (n, n))
    return z


_DECODERS = {
    "float": number,
    "int": integer,
    "str": string,
    "np.ndarray": real_array,
}


#: Each dataclass's fields, looked up once per class.
record_fields = functools.cache(dataclasses.fields)


@functools.cache
def _codec(cls) -> tuple:
    """(name, complex kind or None, type, init) of each field of ``cls``."""
    return tuple((f.name, f.metadata.get("complex"), f.type, f.init) for f in record_fields(cls))


def _encode(kind, value):
    a = np.asarray(value)
    if kind == "matrix":
        a = a.reshape(a.shape[:-2] + (-1,))
    return np.stack([a.real, a.imag], axis=-1)


def _decode(name: str, kind, type_: str, value):
    if kind is not None:
        return complex_array(value, name, square=kind == "matrix")
    decoder = _DECODERS.get(type_)
    if decoder is None:
        raise TypeError(f"no JSON decoder for field {name} of type {type_}")
    return decoder(value, name)


class Record:
    """JSON mapping of a dataclass, one key per field in declaration order."""

    def to_json_dict(self) -> dict:
        return {
            name: getattr(self, name) if kind is None else _encode(kind, getattr(self, name))
            for name, kind, _, _ in _codec(type(self))
        }

    def to_json(self, indent: int | None = None) -> str:
        return dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict):
        if not isinstance(data, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object")
        values = {}
        for name, kind, type_, init in _codec(cls):
            if name not in data:
                raise ValueError(f"missing field {name!r}")
            value = _decode(name, kind, type_, data[name])
            if init:
                values[name] = value
        return cls(**values)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(loads(text))

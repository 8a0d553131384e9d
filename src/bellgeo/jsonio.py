"""JSON emission with a pinned number format, and the typed-record codec.

All floats are written with 17 significant digits so that output files are
byte-stable across platforms and fully round-trip in double precision.
Parsing is plain ``json.loads``.

:class:`Record` maps a frozen dataclass to and from a JSON object, one key
per field in declaration order.  Fields whose metadata is
:data:`COMPLEX_VECTOR` or :data:`COMPLEX_MATRIX` hold complex arrays,
written as flattened row-major ``[re, im]`` pairs (a tuple of matrices as
one such list per matrix).  The decoder checks every field of outside
input, its presence, JSON type and finiteness, and raises ``ValueError``
naming the field; shapes and ranges are checked by the record's
constructor.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from typing import Any

import numpy as np

loads = json.loads

#: Field metadata of a complex vector written as [re, im] pairs.
COMPLEX_VECTOR = {"complex": "vector"}
#: Field metadata of a square complex matrix, or a stack of them, each
#: written as its row-major [re, im] pairs.
COMPLEX_MATRIX = {"complex": "matrix"}


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    s = format(x, ".17g")
    return s


def _emit(obj: Any, indent: int | None, level: int) -> str:
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        obj = int(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = [(json.dumps(str(k)), _emit(v, indent, level + 1)) for k, v in obj.items()]
        if indent is None:
            return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
        pad = " " * (indent * (level + 1))
        closing = " " * (indent * level)
        if not items:
            return "{}"
        body = (",\n").join(f"{pad}{k}: {v}" for k, v in items)
        return "{\n" + body + "\n" + closing + "}"
    if isinstance(obj, (list, tuple)):
        parts = [_emit(v, indent, level + 1) for v in obj]
        if indent is None:
            return "[" + ", ".join(parts) + "]"
        pad = " " * (indent * (level + 1))
        closing = " " * (indent * level)
        if not parts:
            return "[]"
        return "[\n" + (",\n").join(pad + p for p in parts) + "\n" + closing + "]"
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


def _encode(f, value):
    kind = f.metadata.get("complex")
    if kind is None:
        return value
    a = np.asarray(value)
    if kind == "matrix":
        a = a.reshape(a.shape[:-2] + (-1,))
    return np.stack([a.real, a.imag], axis=-1)


def _decode(f, value):
    kind = f.metadata.get("complex")
    if kind is not None:
        return complex_array(value, f.name, square=kind == "matrix")
    decoder = _DECODERS.get(f.type)
    if decoder is None:
        raise TypeError(f"no JSON decoder for field {f.name} of type {f.type}")
    return decoder(value, f.name)


class Record:
    """JSON mapping of a dataclass, one key per field in declaration order."""

    def to_json_dict(self) -> dict:
        return {f.name: _encode(f, getattr(self, f.name)) for f in fields(self)}

    def to_json(self, indent: int | None = None) -> str:
        return dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict):
        if not isinstance(data, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object")
        values = {}
        for f in fields(cls):
            if f.name not in data:
                raise ValueError(f"missing field {f.name!r}")
            values[f.name] = _decode(f, data[f.name])
        return cls(**values)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(loads(text))

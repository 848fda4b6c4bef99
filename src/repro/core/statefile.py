"""The v4 state container: a JSON header and raw numpy arrays.

Every state file (snapshot shard files, detect checkpoints) is a
magic line ``repro-<kind>-state-v4``, a little-endian u64 header
length, a JSON header (the writer's fields plus ``arrays``:
each array's name, dtype, shape and sha256, in payload order), then
each array's raw bytes, padded to 8.  Reading never unpickles: arrays
come back as read-only ``np.frombuffer`` views once their names,
dtypes, shapes, extents and digests check out against what the reader
expects.  Anything else, v2 and v3 state included (a magic line and a
pickle), raises ``ValueError``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from typing import Dict, Tuple

import numpy as np

VERSION = 4

_MAGIC = re.compile(rb"repro-([a-z]+)-state-v(\d+)\n")
_LENGTH = struct.Struct("<Q")


def magic(kind: str) -> bytes:
    """The current magic line of ``kind`` state."""
    return b"repro-%s-state-v%d\n" % (kind.encode(), VERSION)


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def pack(kind: str, header: dict, arrays: Dict[str, np.ndarray]) -> bytes:
    """Serialize ``header`` fields and named ``arrays`` as ``kind`` state."""
    entries, parts = [], []
    for name, array in arrays.items():
        data = np.ascontiguousarray(array).reshape(-1).view(np.uint8).data
        entries.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        )
        parts += [data, b"\0" * (-len(data) % 8)]
    head = json.dumps({**header, "arrays": entries}, default=_jsonable)
    head += " " * (-(len(magic(kind)) + _LENGTH.size + len(head)) % 8)
    return b"".join(
        [magic(kind), _LENGTH.pack(len(head)), head.encode(), *parts]
    )


def check_magic(data, kind: str) -> int:
    """Length of ``data``'s magic line, if it is current ``kind`` state;
    ``ValueError`` otherwise, naming the version of older state."""
    found = _MAGIC.match(bytes(memoryview(data)[:64]))
    if found is None or found.group(1).decode() != kind:
        raise ValueError(
            f"not a serialized {kind} state (missing or mismatched "
            f"header; expected {magic(kind)!r})"
        )
    if int(found.group(2)) != VERSION:
        raise ValueError(
            f"{kind} state v{int(found.group(2))} is no longer readable "
            f"(header {found.group(0)!r}); only v{VERSION} loads, so "
            "discard it and rebuild the state from its input"
        )
    return found.end()


def _header_span(view: memoryview, kind: str) -> Tuple[int, int]:
    """Start and end of ``kind`` state's JSON header in ``view``."""
    start = check_magic(view, kind) + _LENGTH.size
    length = -1
    if len(view) >= start:
        length = _LENGTH.unpack(view[start - _LENGTH.size:start])[0]
    if length < 0 or len(view) < start + length:
        raise ValueError(f"truncated {kind} state header")
    return start, start + length


def header_digest(data, kind: str) -> str:
    """sha256 of ``kind`` state's magic line, length and JSON header.

    The header lists every array's sha256, so this one small digest
    pins the whole container: :func:`unpack` checks each array against
    the header it covers.
    """
    view = memoryview(data).cast("B")
    return hashlib.sha256(view[:_header_span(view, kind)[1]]).hexdigest()


def unpack(
    data, kind: str, dtypes: Dict[str, str]
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``(header, arrays)`` of ``kind`` state written by :func:`pack`.

    ``dtypes`` names every array the reader expects and its dtype; a
    missing, extra, re-typed or re-shaped array is refused.
    """
    view = memoryview(data).cast("B")
    start, offset = _header_span(view, kind)
    try:
        header = json.loads(bytes(view[start:offset]))
        entries = header.pop("arrays")
        names = sorted(entry["name"] for entry in entries)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"corrupt {kind} state header: {exc}") from exc
    if names != sorted(dtypes):
        raise ValueError(
            f"{kind} state holds arrays {names}, expected {sorted(dtypes)}"
        )
    arrays = {}
    for entry in entries:
        name, shape = entry["name"], entry.get("shape")
        dtype = np.dtype(dtypes[name])
        if entry.get("dtype") != dtype.str or not (
            isinstance(shape, list)
            and all(isinstance(n, int) and n >= 0 for n in shape)
        ):
            raise ValueError(
                f"{kind} state array {name!r} is {entry.get('dtype')} "
                f"of shape {shape}, expected {dtype.str}"
            )
        end = offset + math.prod(shape) * dtype.itemsize
        if end > len(view):
            raise ValueError(f"truncated {kind} state: array {name!r}")
        if hashlib.sha256(view[offset:end]).hexdigest() != entry.get(
            "sha256"
        ):
            raise ValueError(
                f"{kind} state array {name!r} does not match its digest"
            )
        arrays[name] = np.frombuffer(
            view, dtype, math.prod(shape), offset
        ).reshape(shape)
        offset = end + (-end % 8)
    if offset != len(view):
        raise ValueError(
            f"{kind} state has {len(view) - offset} bytes past its arrays"
        )
    return header, arrays

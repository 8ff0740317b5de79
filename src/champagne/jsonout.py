"""The one JSON reader and the one JSON report writer.

`load` reads a stream or a UTF-8 file, and turns a document nested deeper
than the decoder can follow into a ValueError like any other parse error.

`dumps` is `json.dumps(obj, indent=2, sort_keys=True)`, byte for byte,
with the bulk of the work in the stdlib's C encoder.

With `indent` set, CPython's encoder (3.10-3.13) runs in pure Python.
Here the walk stays in Python only down to the containers that hold no
container; each of those goes to a C encoder whose item separator already
carries the newline and indent of its depth, and the writer adds the line
breaks inside the brackets.  A list of non-empty such dicts (a pair table)
is one C call: an encoded string never holds a raw newline, so the text
`},\\n<indent>{` can only be an item boundary, and one `str.replace`
re-indents it.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain

_CONTAINERS = (list, tuple, dict)


@lru_cache(maxsize=None)
def _encode(depth: int):
    sep = ",\n" + "  " * (depth + 1)
    return json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode


def _scalars(values) -> bool:
    """No value is a list, tuple or dict; one C-level pass over the values."""
    return not any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _dumps(obj, depth: int, walking: set) -> str:
    if not (isinstance(obj, _CONTAINERS) and obj):  # scalars, [] and {}
        return _encode(depth)(obj)
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if _scalars(obj.values() if isinstance(obj, dict) else obj):
        text = _encode(depth)(obj)
        return f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"
    if (
        not isinstance(obj, dict)
        and set(map(type, obj)) == {dict}
        and all(obj)
        and _scalars(chain.from_iterable(map(dict.values, obj)))
    ):
        cell = inner + "  "
        body = _encode(depth + 1)(obj)[2:-2].replace(
            "}," + cell + "{", inner + "}," + inner + "{" + cell
        )
        return f"[{inner}{{{cell}{body}{inner}}}{outer}]"
    # only the containers walked here can close a cycle
    if id(obj) in walking:
        raise ValueError("Circular reference detected")
    walking.add(id(obj))
    if isinstance(obj, dict):
        # the C encoder sorts and converts the keys exactly as json.dumps does
        keys = _encode(depth)(dict.fromkeys(obj, 0))[1:-1].split("," + inner)
        parts = [
            k[:-1] + _dumps(v, depth + 1, walking)
            for k, (_, v) in zip(keys, sorted(obj.items()))
        ]
        ends = "{}"
    else:
        parts = [_dumps(v, depth + 1, walking) for v in obj]
        ends = "[]"
    walking.discard(id(obj))
    return ends[0] + inner + ("," + inner).join(parts) + outer + ends[1]


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`: the same text, and the
    same exception type for a value or key JSON cannot hold."""
    return _dumps(obj, 0, set())


def load(path_or_stream):
    """`json.load` of a stream, or of the UTF-8 file at a path."""
    try:
        if hasattr(path_or_stream, "read"):
            return json.load(path_or_stream)
        with open(path_or_stream, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None

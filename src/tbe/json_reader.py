"""The one reader of JSON inputs: CFN-JSON, HUBO-JSON, custom assignment
maps and ensemble profiles.

A document is parsed by ``orjson``, and ``json`` is kept only to decide
refusals: whenever the fast path raises a ``ValueError`` the same build
runs again on ``json.loads``, so every refusal, and its message, is the
one ``json`` gives.  Both parsers round each number's decimal text to
the nearest float, orjson natively (correctly rounded parsing as in
Lemire, "Number Parsing at a Gigabyte per Second", 2021), so an accepted
document holds the same values either way.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, TypeVar

import numpy as np
import orjson

from .errors import CfnFormatError

__all__ = ["MAX_FAST_DEPTH", "read_json"]

T = TypeVar("T")

MAX_FAST_DEPTH = 64
"""Deepest nesting the fast path parses.  orjson recurses once per
level with no limit of its own (a 200 000-deep array overflows an 8 MiB
stack), and every input format here nests at most 4 deep, so a deeper
document goes straight to ``json``."""

# every byte but the six that nest a document or bound its strings
_OTHER_BYTES = bytes(range(256)).translate(None, b'"[]{}\\')
_STRING = re.compile(rb'"[^"]*"')


def read_json(data: bytes | str, build: Callable[[Any], T], invalid: str) -> T:
    """``build`` of the JSON document ``data``.

    The document comes from ``orjson.loads``.  On any ``ValueError``
    (orjson refuses the text, ``build`` refuses what orjson made of it,
    or the bytes are not UTF-8) ``build`` runs again on
    ``json.loads(data)``, which alone reads NaN and Infinity literals, a
    BOM, UTF-16 and UTF-32 bytes, lone surrogates, and integers past 64
    bits (orjson reads those as floats, which an integer field refuses).
    ``build`` must be a function of the document alone, as it may run
    twice.  Raises CfnFormatError ``f"{invalid}: {exc}"`` on text
    ``json`` cannot parse, a document nested past Python's recursion
    limit included.
    """
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    if _depth_bound(raw) <= MAX_FAST_DEPTH:
        try:
            return build(orjson.loads(raw))
        except ValueError:
            pass
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # nesting past the recursion limit is refused too
        raise CfnFormatError(f"{invalid}: {exc}") from exc
    return build(doc)


def _depth_bound(raw: bytes) -> int:
    """An upper bound on the nesting depth of the JSON text ``raw``, at
    least the depth orjson reaches before it refuses a malformed text.

    Only brackets, quotes and backslashes are kept.  With no backslash
    every quote opens or closes a string, so dropping the strings leaves
    the structural brackets, whose running count is the depth (a quote
    left by an unterminated string counts as one more level); with a
    backslash, every opening bracket is counted."""
    marks = raw.translate(None, _OTHER_BYTES)
    if b"\\" in marks:
        return marks.count(b"[") + marks.count(b"{")
    brackets = np.frombuffer(_STRING.sub(b"", marks), dtype=np.uint8)
    # '[' and '{' have bit 1 set, ']' and '}' do not
    steps = (brackets & 2).astype(np.intp) - 1
    return int(np.cumsum(steps).max(initial=0))

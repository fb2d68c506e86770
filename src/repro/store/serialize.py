"""Canonical serialisation shared by the run store and the JSON reports.

Two tiers, used deliberately for different data:

* **Canonical JSON** — for everything report-facing (specs, summaries,
  measurement rows).  :func:`to_jsonable` maps values onto plain JSON
  types first (numpy scalars to Python scalars, tuples to lists, mapping
  keys to strings) and :func:`canonical_dumps` emits sorted keys with
  compact separators, so the same value always serialises to the same
  bytes.  :func:`json_normalize` is the round-trip — the resumable sweep
  layer pushes *fresh* rows through it before returning them, which is
  what makes cache hits bit-identical to fresh executions by
  construction.
* **Pickle** — for Python-object columns the JSON schema cannot express
  losslessly (protocol outputs such as total-order ``ChainEntry`` chains,
  decision values, trace payload columns).  The protocol is pinned so
  stores written by different Python minors stay mutually readable.
"""

from __future__ import annotations

import json
import pickle
from typing import Any, Mapping

__all__ = [
    "to_jsonable",
    "canonical_dumps",
    "json_normalize",
    "pickle_dumps",
    "pickle_loads",
]

#: Pinned pickle protocol for object blobs (available since Python 3.4).
PICKLE_PROTOCOL = 4

#: Types ``to_jsonable`` returns unchanged without further checks.
_PLAIN_SCALARS = frozenset({str, int, float, bool, type(None)})


def to_jsonable(value: Any) -> Any:
    """Map ``value`` onto plain JSON types, recursively.

    Numpy scalars become Python scalars (a latent drift source: a row
    holding ``np.float64`` used to serialise differently from the same
    row holding ``float``), tuples become lists and mapping keys become
    strings.  Values with no JSON image raise ``TypeError`` loudly.

    Exact ``str``/``int``/``float``/``bool``/``None``, ``dict``, ``list``
    and ``tuple`` values, which make up nearly every report row and
    stream event, are matched by type before the subclass and ABC
    checks; the result is the same either way.
    """

    kind = type(value)
    if kind in _PLAIN_SCALARS:
        return value
    if kind is dict:
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [to_jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item") and not isinstance(value, Mapping):
        # numpy scalar (np.integer / np.floating / np.bool_)
        scalar = value.item()
        if isinstance(scalar, (bool, int, float, str)) or scalar is None:
            return scalar
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"value of type {type(value).__name__} has no canonical JSON form")


def canonical_dumps(value: Any, *, indent: int | None = None) -> str:
    """Serialise ``value`` canonically: normalised types and sorted keys."""

    separators = (",", ":") if indent is None else None
    return json.dumps(
        to_jsonable(value),
        sort_keys=True,
        indent=indent,
        separators=separators,
        ensure_ascii=True,
    )


def json_normalize(value: Any) -> Any:
    """Round-trip ``value`` through canonical JSON.

    The identity for values already in canonical form; otherwise the
    JSON image (tuples as lists, numpy scalars as Python scalars).  Both
    the cached and the fresh path of a resumable sweep return rows in
    this form, so equality between them is structural.
    """

    return json.loads(canonical_dumps(value))


def pickle_dumps(value: Any) -> bytes:
    return pickle.dumps(value, protocol=PICKLE_PROTOCOL)


def pickle_loads(blob: bytes) -> Any:
    return pickle.loads(blob)

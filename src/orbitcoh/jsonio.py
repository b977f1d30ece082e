"""JSON schemas for graphs, posets, copresheaves and results."""

from __future__ import annotations

import json

from .intlinalg import IntMatrix
from .orbit import Graph
from .posets import Cyclic, GradedPoset, NotGraded, build_poset
from .sheaves import Copresheaf


class BadInput(Exception):
    """Malformed or schema-violating input."""


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool (floats are rejected too)."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_json(path: str):
    """The JSON value in a UTF-8 file; unreadable, undecodable or too deeply
    nested input is ``BadInput``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise BadInput(f"cannot read JSON from {path}: {exc}") from exc


def parse_graph(data) -> Graph:
    """{"n": int, "edges": [[i, j], ...]} or {"complete": n}.

    ``n`` and every edge endpoint must be JSON integers, not booleans or
    floats; endpoints run from 1 to n.
    """
    if not isinstance(data, dict):
        raise BadInput("graph JSON must be an object")
    if "complete" in data:
        n = data["complete"]
        if not _is_int(n) or n < 1:
            raise BadInput("complete: expects a positive integer")
        return Graph.complete(n)
    try:
        n = data["n"]
        edges = data["edges"]
        if not _is_int(n) or n < 1:
            raise BadInput("n must be a positive integer")
        edges = [tuple(e) for e in edges]
        if not all(_is_int(v) for e in edges for v in e):
            raise BadInput("edge endpoints must be integers")
        return Graph.make(n, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput(f"bad graph JSON: {exc}") from exc


def parse_poset(data) -> GradedPoset:
    """{"elements": [labels], "covers": [[lo, hi], ...], "rank": [ints]}.

    The three fields must be JSON arrays and every cover a pair; every
    cover must name listed elements, and every rank must be a JSON integer.
    """
    try:
        if not all(isinstance(data[key], list) for key in ("elements", "covers", "rank")):
            raise BadInput("elements, covers and rank must be arrays")
        if not all(isinstance(c, list) and len(c) == 2 for c in data["covers"]):
            raise BadInput("each cover must be a [lo, hi] array")
        elements = [str(e) for e in data["elements"]]
        covers = [(str(lo), str(hi)) for lo, hi in data["covers"]]
        ranks = data["rank"]
        if len(ranks) != len(elements):
            raise BadInput("rank list must parallel elements")
        if not all(_is_int(r) for r in ranks):
            raise BadInput("ranks must be integers")
        known = set(elements)
        if not all(lo in known and hi in known for lo, hi in covers):
            raise BadInput("covers name elements that are not listed")
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput(f"bad poset JSON: {exc}") from exc
    try:
        return build_poset(elements, covers, dict(zip(elements, ranks)))
    except (Cyclic, NotGraded, ValueError) as exc:
        raise BadInput(f"invalid poset: {exc}") from exc


def parse_copresheaf(data, poset: GradedPoset) -> Copresheaf:
    """{"ranks": [ints], "extensions": {"lo->hi": [[row-major ints]]}}.

    ``ranks`` parallels the poset's labels in sorted order (``poset.labels``),
    not the order of the poset file; extensions are keyed by cover pairs,
    and an omitted one is the zero map.  Ranks must be nonnegative JSON
    integers and matrix entries JSON integers.
    """
    try:
        ranks = list(data["ranks"])
        raw = data.get("extensions", {})
    except (KeyError, TypeError) as exc:
        raise BadInput(f"bad copresheaf JSON: {exc}") from exc
    if not all(_is_int(r) and r >= 0 for r in ranks):
        raise BadInput("ranks must be nonnegative integers")
    if not isinstance(raw, dict):
        raise BadInput("extensions must be an object")
    if len(ranks) != poset.n:
        raise BadInput("ranks list must parallel the poset elements")
    rank_of = dict(zip(poset.labels, ranks))
    maps = {}
    for key, rows in raw.items():
        if "->" not in key:
            raise BadInput(f"extension key {key!r} is not 'lo->hi'")
        lo_lab, hi_lab = key.split("->", 1)
        if lo_lab not in poset.index or hi_lab not in poset.index:
            raise BadInput(f"extension key {key!r} names unknown elements")
        lo, hi = poset.index[lo_lab], poset.index[hi_lab]
        if hi not in poset.upper[lo]:
            raise BadInput(f"extension key {key!r} is not a cover")
        try:
            entries = [list(row) for row in rows]
            if not all(_is_int(x) for row in entries for x in row):
                raise BadInput(f"bad matrix at {key!r}: entries must be integers")
            mat = IntMatrix(rank_of[hi_lab], rank_of[lo_lab], entries)
        except (TypeError, ValueError) as exc:
            raise BadInput(f"bad matrix at {key!r}: {exc}") from exc
        maps[(lo, hi)] = mat
    try:
        return Copresheaf(poset, [rank_of[lab] for lab in poset.labels], maps)
    except ValueError as exc:
        raise BadInput(f"invalid copresheaf: {exc}") from exc


def dumps(data) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"

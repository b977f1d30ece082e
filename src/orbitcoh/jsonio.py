"""JSON schemas for graphs, posets, copresheaves and results."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .orbit import Graph
    from .posets import GradedPoset
    from .sheaves import Copresheaf


class BadInput(Exception):
    """Malformed or schema-violating input."""


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool (floats are rejected too)."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_json(path: str):
    """The JSON value in a UTF-8 file; unreadable, undecodable or too deeply
    nested input is ``BadInput``, and so is an integer literal longer than
    the interpreter converts (a plain ``ValueError`` from ``json.load``)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise BadInput(f"cannot read JSON from {path}: {exc}") from exc


def parse_graph(data) -> Graph:
    """{"n": int, "edges": [[i, j], ...]} or {"complete": n}.

    ``n`` and every edge endpoint must be JSON integers, not booleans or
    floats; endpoints run from 1 to n.
    """
    from .orbit import Graph

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
    The poset must be graded; the first cover in index order that is not is named.
    """
    from .posets import Cyclic, GradedPoset

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
        poset = GradedPoset(elements, covers, dict(zip(elements, ranks)))
    except (Cyclic, ValueError) as exc:
        raise BadInput(f"invalid poset: {exc}") from exc
    if not poset.graded:
        lo, hi = next((lo, hi) for lo, hi in poset.covers
                      if poset.rank[hi] != poset.rank[lo] + 1)
        raise BadInput(f"invalid poset: cover {poset.labels[lo]} -> {poset.labels[hi]} "
                       f"jumps rank {poset.rank[lo]} -> {poset.rank[hi]}")
    return poset


def parse_copresheaf(data, poset: GradedPoset) -> Copresheaf:
    """{"ranks": [ints], "extensions": {"lo->hi": [[row-major ints]]}}.

    ``ranks`` parallels the poset's labels in sorted order (``poset.labels``),
    not the order of the poset file; extensions are keyed by cover pairs,
    and an omitted one is the zero map.  Ranks must be nonnegative JSON
    integers; a matrix must be a list of rank(hi) rows of rank(lo) JSON
    integers, and is kept as its sparse columns.  It must be functorial.
    """
    from .sheaves import Copresheaf

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
        nrows, ncols = rank_of[hi_lab], rank_of[lo_lab]
        if not (isinstance(rows, list) and len(rows) == nrows
                and all(isinstance(row, list) and len(row) == ncols for row in rows)):
            raise BadInput(f"bad matrix at {key!r}: expected {nrows}x{ncols} "
                           "(a list of rows)")
        if not all(_is_int(x) for row in rows for x in row):
            raise BadInput(f"bad matrix at {key!r}: entries must be integers")
        maps[(lo, hi)] = [{i: row[j] for i, row in enumerate(rows) if row[j]}
                          for j in range(ncols)]
    try:
        g = Copresheaf(poset, [rank_of[lab] for lab in poset.labels], maps)
        g.check_functorial()
    except ValueError as exc:
        raise BadInput(f"invalid copresheaf: {exc}") from exc
    return g


def dump(data, fh) -> None:
    """Write canonical JSON text to the text file ``fh``: sorted keys,
    two-space indent, ASCII escapes, trailing newline.

    The same text as ``json.dumps(data, sort_keys=True, indent=2) + "\\n"``
    for what the program writes: dicts with string keys, lists, tuples,
    strings, ints, booleans, None, and ``SparseRows`` as the nested list
    of its dense rows.  Anything else, a float or a non-string key
    included, raises ``TypeError`` before anything is written.  The
    parts go to ``fh`` as they are, never joined into one string.
    """
    out: list[str] = []
    _write(data, out, "\n", _IntTexts())
    out.append("\n")
    fh.writelines(out)


class SparseRows:
    """A dense int matrix given as ``ncols`` and one sparse row
    ``{column: value}`` per row, with no zero entries stored; equal by value.

    A plain class, not a ``NamedTuple``: every command loads this module,
    and building a named tuple class costs more at import than the class.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int, rows: list[dict[int, int]]):
        self.ncols = ncols
        self.rows = rows

    def __eq__(self, other):
        if type(other) is not SparseRows:
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows


# the exact type of an int that is not a bool or other subclass
_INT = frozenset((int,))


class _IntTexts(dict):
    """The text of each int written so far in one document, which holds
    few distinct values, so each repr is built once per ``dump`` call.
    Look up exact ints only: ``True == 1``, so a bool would read ``1``."""

    def __missing__(self, x: int) -> str:
        text = self[x] = int.__repr__(x)
        return text


def _write(value, out: list[str], nl: str, texts: _IntTexts):
    """Append ``value`` to ``out``; ``nl`` is the newline and indent of its line.

    Exact ints inside a container, most of every payload, are written in
    place without a call of ``_write``, their text read from ``texts``;
    bools and other int subclasses take the general path.  A
    ``SparseRows`` is written row by row as its dense rows.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        comma = "," + inner
        # one join for an int list, the leaves of every differential; the
        # exact-type test runs in C and leaves bools to print as true and false
        if _INT.issuperset(map(type, value)):
            out.append(f"[{inner}{comma.join(map(texts.__getitem__, value))}{nl}]")
            return
        sep = "[" + inner
        for item in value:
            if type(item) is int:
                out.append(sep + texts[item])
            else:
                out.append(sep)
                _write(item, out, inner, texts)
            sep = comma
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            if type(item) is int:
                out.append(f"{sep}{encode_basestring_ascii(key)}: {texts[item]}")
            else:
                out.append(f"{sep}{encode_basestring_ascii(key)}: ")
                _write(item, out, inner, texts)
            sep = comma
        out.append(nl + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif type(value) is SparseRows:
        if not value.rows:
            out.append("[]")
            return
        inner = nl + "  "
        cell = inner + "  "
        join = ("," + cell).join
        # each row is a copy of the "0" cells with its entries filled in
        zeros = ["0"] * value.ncols
        lines = []
        for row in value.rows:
            cells = zeros.copy()
            for c, v in row.items():
                cells[c] = texts[v]
            lines.append(f"[{cell}{join(cells)}{inner}]" if cells else "[]")
        out.append(f"[{inner}{(',' + inner).join(lines)}{nl}]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

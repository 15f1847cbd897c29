"""Grid text and JSON serialization for PDAs.

Text format: an optional header line ``# pda f=<f> K=<K>``, then f lines of
K whitespace-separated tokens, ``*`` for a star and a non-negative integer in
ASCII decimal digits otherwise.  Output uses LF line endings.

JSON format: an object with fields ``rows``, ``cols`` and ``cells``, the
latter a flat row-major list where stars encode as null.

Text in serialize_grid's exact form, with or without its header, is read by
one json.loads.  Every other text goes through the per-line reader, which
alone defines the format, checks each token with one rule and locates
errors; the fast path only hands such text on, so both accept the same texts
and give the same errors.

Both readers refuse a grid of more than ``MAX_CELLS`` cells before building
any of them, so a hostile header or shape cannot make them allocate more.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain

from .core import MAX_CELLS, Pda, _check_kind, _check_pda, _gather, _write_text
from .errors import GridParseError

__all__ = [
    "parse_grid",
    "serialize_grid",
    "pda_to_json",
    "pda_from_json",
    "load_pda",
    "save_pda",
]

_HEADER_RE = re.compile(r"#\s*pda\s+f=([0-9]+)\s+K=([0-9]+)\s*$")
_PLAIN_HEADER_RE = re.compile(r"# pda f=([0-9]+) K=([0-9]+)\n")  # serialize_grid's own
_NOT_PLAIN = str.maketrans("", "", "0123456789* \n")


def _check_size(rows: int, cols: int, line: int) -> None:
    if rows * cols > MAX_CELLS:
        raise GridParseError(
            f"grid of {rows}x{cols} cells exceeds the limit of {MAX_CELLS}", line, 1
        )


def _parse_plain(text: str) -> "Pda | None":
    """``text`` by one json.loads if serialize_grid could have written it, else None."""
    m = _PLAIN_HEADER_RE.match(text)
    body = text[m.end() if m else 0 :].rstrip("\n")
    f, k = body.count("\n") + 1, body.partition("\n")[0].count(" ") + 1
    if (len(body) > 2 * MAX_CELLS or f * k > MAX_CELLS or body.translate(_NOT_PLAIN)
            or m and (m[1], m[2]) != (str(f), str(k))):
        return None
    try:
        rows = json.loads("[[" + body.replace("*", "null").replace(" ", ",").replace("\n", "],[") + "]]")
    except ValueError:  # leading zeros, "**", "1*", stray spaces, overlong labels
        return None
    if set(map(len, rows)) != {k}:
        return None
    # json.loads of digits, null, commas and brackets yields only None and
    # non-negative ints, so the cells need no second check.
    return Pda._of(f, k, tuple(chain.from_iterable(rows)))


def parse_grid(text: str) -> Pda:
    plain = _parse_plain(_check_kind(text, "text", str))
    if plain is not None:
        return plain
    lines = text.splitlines()
    header = header_line = None
    body = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if body or header is not None:
                raise GridParseError("unexpected comment line", lineno, 1)
            m = _HEADER_RE.match(line)
            if not m:
                raise GridParseError("malformed header", lineno, 1)
            try:
                header = (int(m.group(1)), int(m.group(2)))
            except ValueError:  # more digits than int() converts
                raise GridParseError("malformed header", lineno, 1) from None
            _check_size(*header, lineno)
            header_line = lineno
            continue
        body.append((lineno, line))

    if not body:
        raise GridParseError("empty grid", 1, 1)

    width = len(body[0][1].split())
    _check_size(len(body), width, body[0][0])
    cells = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != width:
            raise GridParseError(
                f"ragged row: {len(tokens)} tokens, expected {width}", lineno, 1
            )
        for col, tok in enumerate(tokens, start=1):
            if tok != "*" and not (tok.isascii() and tok.isdigit()):
                raise GridParseError(f"invalid token {tok!r}", lineno, col)
        try:
            cells += [None if tok == "*" else int(tok) for tok in tokens]
        except ValueError:  # a label with more digits than int() converts
            limit = sys.get_int_max_str_digits()
            col = next(col for col, tok in enumerate(tokens, start=1) if len(tok) > limit)
            raise GridParseError(f"label longer than {limit} digits", lineno, col) from None

    if header is not None and header != (len(body), width):
        raise GridParseError(
            f"header says f={header[0]} K={header[1]} but body is {len(body)}x{width}",
            header_line, 1,
        )
    # Every token passed the "*"-or-ASCII-digits rule above, so every cell
    # is None or a non-negative int.
    return Pda._of(len(body), width, tuple(cells))


def serialize_grid(p: Pda, header: bool = False) -> str:
    # Each label's digits once, by int.__repr__ (an IntEnum's str is its name on 3.10).
    labels = _check_pda(p, "array").labels()
    tokens = dict(zip(labels, map(int.__repr__, labels))) | {None: "*"}
    out = [f"# pda f={p.rows} K={p.cols}"] if header else []
    cells, w = p.cells, p.cols
    out += [" ".join(_gather(tokens, cells[i : i + w])) for i in range(0, len(cells), w)]
    return "\n".join(out) + "\n"


def pda_to_json(p: Pda) -> str:
    return json.dumps({"rows": _check_pda(p, "array").rows, "cols": p.cols, "cells": list(p.cells)})


def pda_from_json(text: str) -> Pda:
    try:
        obj = json.loads(text)
        rows, cols, cells = obj["rows"], obj["cols"], obj["cells"]
    except (ValueError, KeyError, TypeError) as exc:
        raise GridParseError(f"malformed PDA JSON: {exc}", 1, 1) from exc
    if type(rows) is int and type(cols) is int:
        _check_size(rows, cols, 1)
    try:
        return Pda(rows, cols, tuple(cells))
    except (ValueError, TypeError) as exc:
        raise GridParseError(f"malformed PDA JSON: {exc}", 1, 1) from exc


def _is_json(path) -> bool:
    return path is not None and str(path).endswith(".json")


def load_pda(path) -> Pda:
    """Read a PDA from a file, JSON when the name ends in .json, grid text otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if _is_json(path):
        return pda_from_json(text)
    return parse_grid(text)


def save_pda(p: Pda, path=None, fmt: "str | None" = None) -> None:
    """Write ``p`` to ``path``, or stdout when None, in ``fmt``, else as :func:`load_pda` reads it."""
    as_json = _is_json(path) if fmt is None else fmt == "json"
    _write_text(pda_to_json(p) + "\n" if as_json else serialize_grid(p), path)

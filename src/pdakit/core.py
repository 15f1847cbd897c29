"""Core placement delivery array value type, validation, and parameters.

A placement delivery array (PDA) is an f x K grid whose cells hold either a
star (a cached subfile) or a non-negative integer label (a coded
transmission slot).  Stars are represented by ``None``.  A grid is a
(K, f, Z, S) PDA when

  C1  every column contains the same number Z of stars,
  C2  every label of the label set S occurs at least once,
  C3  if two distinct cells carry the same label, the two mirrored cells
      (swap the columns) are both stars (the Blackburn property).

C3 is what makes XOR delivery decodable: the mirrored stars guarantee every
peer subfile entering a coded transmission is already cached by the users
that need to cancel it.

All values are immutable and hashable and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from operator import is_, itemgetter
from os import PathLike
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidPdaError

__all__ = [
    "Pda",
    "Violation",
    "ValidationReport",
    "PdaParams",
    "validate",
    "params",
    "relabel",
    "canonicalize",
    "disjoint_copy",
    "hstack",
    "vstack",
]

# About 19 times the largest array the package builds here, mn(18, 9) with
# 875,160 cells.  Neither the readers nor the constructions make a larger grid.
MAX_CELLS = 1 << 24

class _Frozen:
    """Value semantics for the records that are not tuples: equality with
    an instance of the same class over ``_fields``, a hash over them, a
    ``Name(field=value, ...)`` repr, and no attribute assignment or
    deletion; ``__init__`` fills ``__dict__``."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Pda(_Frozen):
    """An f x K grid of stars and integer labels, stored row-major.

    ``Pda(...)`` checks the shape and every cell; the PDA conditions are
    not checked, use :func:`validate`.  Grids pdakit reads from grid text,
    assembles from blocks, relabels or reverses are not checked a second
    time, as their cells are ints by construction; JSON input is checked,
    and the subset constructions check their labels.  A grid builds its label index,
    star flags, column star counts, star rows and C3 verdict once, on first
    use, so repeated :func:`validate`, :func:`params` and compatibility calls
    on the same grid do not scan it again.
    """

    _fields = ("rows", "cols", "cells")

    def __init__(self, rows: int, cols: int, cells: tuple):
        if type(rows) is not int or type(cols) is not int:
            raise ValueError(f"rows and cols must be int, got {rows!r} and {cols!r}")
        if rows < 1 or cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
        if type(cells) is not tuple:
            cells = tuple(cells)
        if len(cells) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} cells for a {rows}x{cols} grid, got {len(cells)}"
            )
        for c in cells:
            # A non-negative plain int passes the full check, so only other
            # cells pay for it.
            if c is not None and (type(c) is not int or c < 0):
                if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                    raise ValueError(f"cells must be None or non-negative int, got {c!r}")
        d = self.__dict__
        d["rows"], d["cols"], d["cells"] = rows, cols, cells

    @classmethod
    def _of(cls, rows: int, cols: int, cells: tuple) -> "Pda":
        """A grid built without any check.  The caller has proven that rows
        and cols are ints of at least 1, that ``cells`` is a tuple of
        rows * cols cells, and that each cell is None or a non-negative
        ``int`` (the type itself, so no bool)."""
        p = object.__new__(cls)
        d = p.__dict__
        d["rows"], d["cols"], d["cells"] = rows, cols, cells
        return p

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "Pda":
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ValueError("grid must have at least one row")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
        cells = tuple(c for r in rows for c in r)
        return cls(len(rows), width, cells)

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def _checked(self, what: str, index: int, bound: int) -> int:
        """``index`` when it is a valid row or column number, else ValueError."""
        if 0 <= index < bound:
            return index
        raise ValueError(f"{what} {index} is out of range for a {self.rows}x{self.cols} grid")

    def cell(self, j: int, k: int):
        j, k = self._checked("row", j, self.rows), self._checked("column", k, self.cols)
        return self.cells[j * self.cols + k]

    def row(self, j: int) -> tuple:
        start = self._checked("row", j, self.rows) * self.cols
        return self.cells[start : start + self.cols]

    def column(self, k: int) -> tuple:
        return self.cells[self._checked("column", k, self.cols) :: self.cols]

    def labels(self) -> frozenset:
        return frozenset(self.cells).difference((None,))

    def label_positions(self) -> dict:
        """Map each label to its cells as (row, col) pairs in row-major order."""
        w = self.cols
        return {s: [divmod(pos, w) for pos in flat] for s, flat in self._label_index.items()}

    def column_star_count(self, k: int) -> int:
        return self._star_counts[self._checked("column", k, self.cols)]

    @cached_property
    def _label_index(self) -> dict:
        """Each label's flat row-major positions, labels in order of first
        appearance; built once per grid and shared by validation,
        canonicalization, compatibility checks and simulation, which must
        not mutate it."""
        index: dict = {}
        for pos, c in enumerate(self.cells):
            if c is not None:
                flat = index.get(c)
                if flat is None:
                    index[c] = [pos]
                else:
                    flat.append(pos)
        return index

    @cached_property
    def _star_flags(self) -> bytearray:
        """One byte per cell, row-major, 1 for a star and 0 for a label: the
        one star scan both star tables read."""
        return bytearray(map(is_, self.cells, repeat(None)))

    @cached_property
    def _star_counts(self) -> tuple:
        flags, w = self._star_flags, self.cols
        return tuple(flags[k::w].count(1) for k in range(w))

    @cached_property
    def _star_rows(self) -> tuple:
        """One int per row, bit k set when column k is a star, built at C level."""
        w = self.cols
        bits = self._star_flags.translate(bytes.maketrans(b"\0\1", b"01"))
        return tuple(int(bits[i : i + w][::-1], 2) for i in range(0, len(bits), w))

    @cached_property
    def _c3(self) -> "Violation | None":
        return _first_blackburn_violation(self)


class Violation(NamedTuple):
    """One witnessed condition failure.

    ``condition`` is "C1", "C2" or "C3".  The witness shape depends on the
    condition: C1 carries (column, star_count, expected); C2 carries the
    smallest missing label; C3 carries two equal-label cells and the
    mirrored cell that is not a star.
    """

    condition: str
    witness: tuple


class ValidationReport(NamedTuple):
    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    violations: tuple

    @property
    def ok(self) -> bool:
        return self.c1_ok and self.c2_ok and self.c3_ok


def validate(p: Pda, expected_labels: "int | None" = None) -> ValidationReport:
    """Check conditions C1-C3 and report one witness per violated condition.

    C2 is trivially satisfied by the labels actually present; when
    ``expected_labels`` declares the intended label count m (label set [m]),
    a missing-label violation is reported if fewer than m distinct labels
    appear; an ``expected_labels`` that is no int is a ValueError.
    Witnesses are the first violation in row-major scan order.
    """
    counts = _check_pda(p, "array")._star_counts
    if expected_labels is not None:
        _check_kind(expected_labels, "expected_labels", int)
    z = counts[0]
    c1 = next((Violation("C1", (k, c, z)) for k, c in enumerate(counts) if c != z), None)

    present, c2 = p._label_index, None
    if expected_labels is not None and len(present) < expected_labels:
        c2 = Violation("C2", (next(s for s in range(expected_labels) if s not in present),))

    c3 = p._c3
    return ValidationReport(c1 is None, c2 is None, c3 is None, tuple(filter(None, (c1, c2, c3))))


def _first_blackburn_violation(p: Pda) -> "Violation | None":
    """The C3 violation a row-major scan meets first, or None.

    A label at rows R and columns C obeys C3 exactly when its R x C
    submatrix is all stars off the diagonal, so one ``_stars_over`` count
    of g*g - g clears a label of g cells in O(g).  A failing label's flat
    positions go to ``_failing_pairs``, the compatibility checks' walk, one
    later position at a time, up to its first failure: the smallest later cell,
    then its earliest earlier occurrence, then the (j1, k2) mirror before (j2, k1).
    """
    cells, w, rows = p.cells, p.cols, p._star_rows
    first = None
    for s, flat in p._label_index.items():
        g = len(flat)
        if _stars_over(rows, flat, w, flat, w) == g * g - g:
            continue
        found = next(chain.from_iterable(
            _failing_pairs(cells, s, flat[:b], w, flat[b : b + 1], w, both=True) for b in range(1, g)
        ))
        if first is None or found[2] < first[2]:
            first = found
    return None if first is None else Violation("C3", first[1:4])


def _stars_over(rows: tuple, flat0: list, w0: int, flat1: list, w1: int) -> int:
    """Stars in the star rows ``rows`` over the row of each flat position in
    ``flat0`` (width w0) by the distinct columns of ``flat1`` (width w1): at
    most len(flat0) * len(flat1), reached only when every such mirror of a
    reference w1 wide is a star."""
    mask = 0
    for pos in flat1:
        mask |= 1 << pos % w1
    stars = 0
    for pos in flat0:
        stars += (rows[pos // w0] & mask).bit_count()
    return stars


def _failing_pairs(ref: tuple, s: int, flat0, w0: int, flat1, w1: int, pair=None, both=False, swap=False):
    """The one walk over a failing label's cell pairs, for C3 and every
    compatibility check, on the flat positions ``_stars_over`` reads:
    ``(s, c0, c1, mirror, pair)`` for each c0 = (i0, j0) of ``flat0`` (width
    w0), then c1 = (i1, j1) of ``flat1`` (width w1), whose (i0, j1) mirror in
    ``ref``, w1 wide, is no star; with ``both``, then also its (i1, j0) one.
    With ``swap``, each record is ``(s, c1, c0, mirror, pair)`` in the same
    order: the left check's final cell order, built once.
    Each cell tuple is built once per call and shared by its witnesses."""
    cells1 = [divmod(pos, w1) for pos in flat1]
    for pos in flat0:
        c0 = i0, j0 = divmod(pos, w0)
        row0 = i0 * w1
        for c1 in cells1:
            i1, j1 = c1
            if ref[row0 + j1] is not None:
                yield (s, c1, c0, (i0, j1), pair) if swap else (s, c0, c1, (i0, j1), pair)
            if both and ref[i1 * w1 + j0] is not None:
                yield (s, c1, c0, (i1, j0), pair) if swap else (s, c0, c1, (i1, j0), pair)


class PdaParams(NamedTuple):
    """The (K, f, Z, S) tuple of a PDA plus derived exact ratios.

    ``g`` is the coding gain and is present only when every label occurs
    exactly g times.  ``memory_ratio`` is Z/f and ``rate`` is S/f, both kept
    as exact rationals, never floats.
    """

    k: int
    f: int
    z: int
    s: int
    g: "int | None"
    memory_ratio: Fraction
    rate: Fraction

    def notation(self) -> str:
        tag = f"{self.g}-" if self.g is not None else ""
        return f"{tag}({self.k},{self.f},{self.z},{self.s})"


_NOUNS = dict.fromkeys((Iterable, Sequence), "a sequence") | {
    Mapping: "a dict", int: "an int", (str, PathLike): "a str or an os.PathLike"}


def _check_kind(x, what: str, kind=Iterable):
    """``x`` when it is a ``kind`` (iterable unless given) and no bool, else
    ValueError: ``what`` must be a sequence, a dict, an int or a ``kind``."""
    if isinstance(x, bool) or not isinstance(x, kind):
        noun = _NOUNS.get(kind) or f"a {kind.__name__}"
        raise ValueError(f"{what} must be {noun}, got {type(x).__name__}")
    return x


def _check_cells(rows: int, cols: int) -> None:
    """ValueError when a rows x cols grid would exceed ``MAX_CELLS`` cells;
    the message leaves out the sizes, which may have thousands of digits."""
    if rows * cols > MAX_CELLS:
        raise ValueError(f"grid would exceed the limit of {MAX_CELLS} cells")


def _comb_capped(n: int, k: int) -> int:
    """C(n, k), or the first C(n, i) past ``MAX_CELLS`` (they grow up to i = n/2)."""
    c, i = int(0 <= k <= n), 0
    while i < min(k, n - k) and c <= MAX_CELLS:
        c, i = c * (n - i) // (i + 1), i + 1
    return c


def _check_pda(x, what: str) -> Pda:
    """``x`` when it is a :class:`Pda`, else ValueError naming ``what``."""
    return _check_kind(x, what, Pda)


def _check_members(xs, what: str = "members") -> list:
    """``xs`` as a non-empty list, else ValueError naming ``what``, a plural."""
    xs = list(_check_kind(xs, what))
    if not xs:
        raise ValueError(f"need at least one {what[:-1]}")
    return xs


def _write_text(text: str, path=None) -> None:
    """The one writer: ``text`` to ``path`` as UTF-8 with LF line endings, or stdout when None.
    Any other ``path`` than a str or an ``os.PathLike`` is a ValueError, never a file descriptor."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(_check_kind(path, "path", (str, PathLike)), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _valid(p, what: str, expected_labels: "int | None" = None) -> Pda:
    """``p`` when it is a valid PDA, else ValueError or InvalidPdaError naming ``what``."""
    report = validate(_check_pda(p, what), expected_labels)
    if not report.ok:
        raise InvalidPdaError(f"{what} is not a valid PDA: {report.violations}", report)
    return p


def _check_shape(p, rows: int, cols: int, what: str) -> None:
    if _check_pda(p, what).shape != (rows, cols):
        raise ValueError(f"{what} must be {rows}x{cols}, got {p.rows}x{p.cols}")


def params(p: Pda, expected_labels: "int | None" = None) -> PdaParams:
    """Extract (K, f, Z, S), regularity, memory ratio and rate.

    Raises :class:`InvalidPdaError` when validation fails.
    """
    z = _valid(p, "array", expected_labels)._star_counts[0]
    index = p._label_index
    occurrences = {len(v) for v in index.values()}
    g = occurrences.pop() if len(occurrences) == 1 else None
    return _params_of(p.cols, p.rows, z, len(index), g)


def _params_of(k: int, f: int, z: int, s: int, g: "int | None") -> PdaParams:
    """The one place a ``PdaParams`` is made: (K, f, Z, S) and g, with M/N = Z/f and R = S/f."""
    return PdaParams(k, f, z, s, g, Fraction(z, f), Fraction(s, f))


def relabel(p: Pda, mapping: Mapping[int, int]) -> Pda:
    """Replace every label through ``mapping``; star positions unchanged.

    The mapping must be a dict (any ``Mapping``) that covers every label of
    ``p``, is injective on them and sends none to None, else ValueError.
    """
    present = _check_pda(p, "array").labels()
    missing = present - _check_kind(mapping, "mapping", Mapping).keys()
    if missing:
        raise ValueError(f"mapping does not cover labels {sorted(missing)}")
    images = [mapping[s] for s in present]
    if len(set(images)) != len(images):
        raise ValueError("mapping is not injective on the present labels")
    starred = [s for s, i in zip(present, images) if i is None]
    if starred:
        raise ValueError(f"mapping sends label {starred[0]} to None, a star")
    cells = _gather(dict(zip(present, images)) | {None: None}, p.cells)
    # The cells take exactly the images checked here, so plain non-negative
    # ints need no second check per cell; any other image goes through
    # Pda(...), which names the first bad cell.
    if all(type(i) is int and i >= 0 for i in images):
        return Pda._of(p.rows, p.cols, cells)
    return Pda(p.rows, p.cols, cells)


def canonicalize(p: Pda) -> Pda:
    """Rename labels to 0..S-1 in order of first row-major appearance."""
    index = _check_pda(p, "array")._label_index
    return relabel(p, dict(zip(index, range(len(index)))))


def disjoint_copy(p: Pda, offset: int) -> Pda:
    """Shift canonical labels 0..S-1 by ``offset`` to get a label-disjoint
    copy: with canonical labels, ``range(offset, offset + S)`` is the shift."""
    if _check_kind(offset, "offset", int) < 0:
        raise ValueError("offset must be non-negative")
    present = _check_pda(p, "array").labels()
    if present != frozenset(range(len(present))):
        raise ValueError("disjoint_copy requires canonical labels 0..S-1")
    return _assemble_blocks([[(p, dict(enumerate(range(offset, offset + len(present)))) | {None: None})]])


def _assemble_blocks(
    blocks: Sequence[Sequence[tuple]], mismatch: str = "blocks do not tile"
) -> Pda:
    """The one block layout every composite grid is built with.

    ``blocks[r][c]`` is a ``(grid, labels)`` pair that lands at block row r
    and block column c.  Its cells are copied unchanged when ``labels`` is
    None, else mapped by one :func:`_gather` through ``labels``, a dict of
    None to None and of every label of the grid, which the blocks that use it
    share.  The blocks of a block row share its first block's row count and the
    blocks of a block column its top block's column count, else
    ValueError(mismatch), and the result may not exceed ``MAX_CELLS`` cells.
    Each block row's rows are copied as slices of its mapped blocks.

    Every block is a ``Pda`` and every label map is one of the package's
    own dicts onto non-negative ints, so the result's cells are not checked
    again.
    """
    widths = [q.cols for q, _ in blocks[0]]
    for block_row in blocks:
        height = block_row[0][0].rows
        if [q.shape for q, _ in block_row] != [(height, w) for w in widths]:
            raise ValueError(mismatch)
    _check_cells(rows := sum(r[0][0].rows for r in blocks), cols := sum(widths))
    cells = []
    for block_row in blocks:
        parts = [(q.cells if m is None else _gather(m, q.cells), q.cols) for q, m in block_row]
        for j in range(block_row[0][0].rows):
            for src, w in parts:
                cells += src[j * w : j * w + w]
    return Pda._of(rows, cols, tuple(cells))


def _gather(table, keys: Sequence) -> tuple:
    """``tuple(table[k] for k in keys)`` by one C-level ``itemgetter`` call; fewer than
    two keys take the plain path, as ``itemgetter`` gives one key's bare value and refuses none."""
    if len(keys) < 2:
        return tuple(table[k] for k in keys)
    return itemgetter(*keys)(table)


def hstack(parts: Sequence[Pda]) -> Pda:
    """Concatenate grids left to right; all parts need equal row counts."""
    parts = _check_members(parts, "parts")
    row = [(_check_pda(q, f"part {i}"), None) for i, q in enumerate(parts)]
    return _assemble_blocks([row], "hstack needs equal row counts")


def vstack(parts: Sequence[Pda]) -> Pda:
    """Concatenate grids top to bottom; all parts need equal column counts."""
    parts = _check_members(parts, "parts")
    column = [[(_check_pda(q, f"part {i}"), None)] for i, q in enumerate(parts)]
    return _assemble_blocks(column, "vstack needs equal column counts")

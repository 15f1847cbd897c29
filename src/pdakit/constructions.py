"""Deterministic generators for the concrete PDA families used by lifting.

Subset-indexed constructions follow one convention throughout: a t-subset of
[K] is a strictly increasing tuple, and "lexicographic order" compares those
tuples element-wise, so for K=4, t=2 the order is 01, 02, 03, 12, 13, 23.
Reverse lexicographic order is the exact reversal of that enumeration.
itertools.combinations(range(n), t) already enumerates lexicographically.

One subset construction serves five families and the identity arrays.
shangguan_direct holds the body, ranking subsets as bitmasks; identities
define the rest: mn(K, t) is shangguan_direct(K, t, 1), mn_reverse(K, t,
labels) is mn(K, t, labels reversed) with its rows reversed, h_array(n,
labels) is mn(n, 1, labels), g_array(n, labels) is mn_reverse(n, 1) with
its labels renamed to ``labels`` in order of first appearance, and
identity(n, s, anti) is mn_reverse(n, n-1, [s]), or mn(n, n-1, [s]) when
anti.  No construction builds a grid of more than ``MAX_CELLS`` cells.

Label arguments default to range(count); passing explicit labels supports
disjoint-copy composition in block constructions.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple, Sequence

from .core import Pda, _assemble_blocks, _check_cells, _check_kind, _comb_capped, hstack, relabel, vstack

__all__ = [
    "identity",
    "g_array",
    "h_array",
    "filled",
    "all_star",
    "mn",
    "mn_reverse",
    "shangguan_direct",
    "OddTilingFamily",
    "odd_tiling",
    "yan_half_memory",
]


def _check_labels(labels, count: int) -> "list | range":
    if labels is None:
        return range(count)
    labels = list(labels)
    if len(labels) != count:
        raise ValueError(f"expected {count} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    return labels


def _check_order(n) -> int:
    """``n``, the order of an identity, G or H array, when it is an int >= 1."""
    if _check_kind(n, "n", int) < 1:
        raise ValueError("n must be at least 1")
    return n


def identity(n: int, s: int = 0, anti: bool = False) -> Pda:
    """The (n, n, n-1, {s}) PDA with s on the main diagonal, stars elsewhere.

    With ``anti=True`` the label sits on the anti-diagonal instead: that is
    mn(n, n-1, [s]), and the main-diagonal form mn_reverse(n, n-1, [s]); each
    row of MN(n, n-1) misses one user, and that cell holds the one label.
    """
    _check_order(n)
    return (mn if anti else mn_reverse)(n, n - 1, [_check_kind(s, "s", int)])


def g_array(n: int, labels: "Sequence[int] | None" = None) -> Pda:
    """A 2-regular (n, n, 1, n(n-1)/2) PDA with stars on the anti-diagonal.

    This is mn_reverse(n, 1), labels renamed to ``labels`` in row-major
    order of first appearance: row i is user n-1-i, and a label sits at a
    cell and its anti-transpose (i, j) -> (n-1-j, n-1-i).
    """
    p = mn_reverse(_check_order(n), 1)
    return relabel(p, dict(zip(p._label_index, _check_labels(labels, comb(n, 2)))))


def h_array(n: int, labels: "Sequence[int] | None" = None) -> Pda:
    """A 2-regular (n, n, 1, n(n-1)/2) PDA with stars on the main diagonal.

    This is mn(n, 1, labels), cell for cell: the cell (i, j) off the
    diagonal carries the label ranked by {i, j} among 2-subsets.
    """
    return mn(_check_order(n), 1, labels)


def filled(rows: int, cols: int, labels: "Sequence[int] | None" = None) -> Pda:
    """The (cols, rows, 0, S) PDA filled row-wise with distinct labels."""
    _check_cells(_check_kind(rows, "rows", int), _check_kind(cols, "cols", int))
    return Pda(rows, cols, tuple(_check_labels(labels, rows * cols)))


def all_star(rows: int, cols: int) -> Pda:
    """The (cols, rows, rows, {}) PDA of stars only."""
    _check_cells(_check_kind(rows, "rows", int), _check_kind(cols, "cols", int))
    return Pda(rows, cols, (None,) * (rows * cols))


def _check_memory_point(k: int, t: int) -> None:
    if not 0 <= _check_kind(t, "t", int) <= _check_kind(k, "K", int):
        raise ValueError(f"need 0 <= t <= K, got t={t}, K={k}")


def mn(k: int, t: int, labels: "Sequence[int] | None" = None) -> Pda:
    """The Maddah-Ali-Niesen PDA for K users and memory point t/K.

    Rows are the t-subsets of [K] in lexicographic order; the cell at row T,
    column u is a star when u is in T and otherwise the label indexed by the
    lexicographic rank of T union {u} among (t+1)-subsets.  Edge cases:
    t=0 is a filled single row, t=K a single all-star row.
    """
    _check_memory_point(k, t)
    return shangguan_direct(k, t, 1, labels)


def mn_reverse(k: int, t: int, labels: "Sequence[int] | None" = None) -> Pda:
    """The MN PDA variant with rows and labels in reverse lexicographic order."""
    _check_memory_point(k, t)
    _check_subset_point(k, t, 1)  # refuses a huge order before comb(k, t + 1)
    p = mn(k, t, _check_labels(labels, comb(k, t + 1))[::-1])
    cells, w = [], p.cols
    for i in range(len(p.cells) - w, -1, -w):  # mn's checked rows, last first
        cells += p.cells[i : i + w]
    return Pda._of(p.rows, w, tuple(cells))


def _subset_masks(n: int, t: int) -> list:
    """The t-subsets of [n] in lexicographic order, as bitmasks."""
    return [sum(s) for s in combinations([1 << i for i in range(n)], t)]


def _check_subset_point(n: int, a: int, b: int) -> None:
    """The one domain of the subset construction, direct and recursive:
    ints with 0 <= a, b and a + b <= n + 1, and C(n,a) x C(n,b) cells at
    most ``MAX_CELLS``, checked before a subset or a huge count is built."""
    if min(_check_kind(a, "a", int), _check_kind(b, "b", int)) < 0 or a + b > _check_kind(n, "n", int) + 1:
        raise ValueError(f"need 0 <= a, b and a+b <= n+1, got a={a}, b={b}, n={n}")
    _check_cells(_comb_capped(n, a), _comb_capped(n, b))


def shangguan_direct(n: int, a: int, b: int, labels: "Sequence[int] | None" = None) -> Pda:
    """The C(a+b,a)-regular (C(n,b), C(n,a), C(n,a)-C(n-b,a), C(n,a+b)) PDA.

    Rows are a-subsets and columns b-subsets of [n], both lexicographic; a
    cell is a star when row and column subsets intersect, and otherwise the
    label ranked by their union among (a+b)-subsets, so it is all stars at
    a + b = n + 1.  mn(K, t) is the b=1 case, cell for cell.
    """
    _check_subset_point(n, a, b)
    label_of = dict(zip(_subset_masks(n, a + b), _check_labels(labels, comb(n, a + b))))
    rows, cols = _subset_masks(n, a), _subset_masks(n, b)
    cells = tuple([None if r & c else label_of[r | c] for r in rows for c in cols])
    return Pda._labelled(len(rows), len(cols), cells, label_of.values())


class OddTilingFamily(NamedTuple):
    """Two (g, g, g-2, [4]) PDAs that are Blackburn-compatible with respect
    to the diagonal identity PDA ``pstar``."""

    p0: Pda
    p1: Pda
    pstar: Pda


def odd_tiling(g: int) -> OddTilingFamily:
    """Build the odd-size compatible pair for any odd g >= 3.

    With n = g // 2, p0 tiles identity blocks

        [ I_n(0)  I_n(1)  *   ]
        [ 2       *...*   1   ]
        [ *       I_n(2)  I_n(3) ]

    and p1 is p0 with each row reversed and labels renamed {0: 1, 1: 3,
    2: 0, 3: 2}.  Their labels are exactly {0, 1, 2, 3} (relabel via
    disjoint_copy to compose); pstar carries the fresh label 4 on its diagonal.
    """
    if _check_kind(g, "g", int) < 3 or g % 2 == 0:
        raise ValueError(f"g must be odd and at least 3, got {g}")
    n = g // 2
    p0 = vstack(
        [
            hstack([identity(n, 0), identity(n, 1), all_star(n, 1)]),
            hstack([filled(1, 1, [2]), all_star(1, g - 2), filled(1, 1, [1])]),
            hstack([all_star(n, 1), identity(n, 2), identity(n, 3)]),
        ]
    )
    p1 = relabel(Pda(g, g, [c for j in range(g) for c in reversed(p0.row(j))]), {0: 1, 1: 3, 2: 0, 3: 2})
    return OddTilingFamily(p0=p0, p1=p1, pstar=identity(g, 4))


def yan_half_memory(g: int) -> Pda:
    """The g-regular (2g, 2^(g-1), 2^(g-2), 2^(g-1)) PDA of Yan et al.

    Stacks block rows [reverse-MN(g, 2i+1) | MN(g, g-2i-1)] for 2i+1 <= g,
    with contiguous disjoint label blocks S_i of size C(g, 2i); block row i
    shares S_i on the right and takes S_{i+1} on the left, which is what
    makes every label appear exactly g times across the two blocks.

    g=1 is rejected: the lone block row [* | 0] has unbalanced star counts,
    so no such PDA exists (2^(g-2) is not an integer).
    """
    if _check_kind(g, "g", int) < 2:
        raise ValueError(f"g must be at least 2, got {g}")
    blocks = []
    start = 0  # where S_i begins
    for t in range(1, g + 1, 2):
        shared = start + comb(g, t - 1)  # where S_{i+1} begins
        left = mn_reverse(g, t, range(shared, shared + comb(g, t + 1)))
        blocks.append([(left, None), (mn(g, g - t, range(start, shared)), None)])
        start = shared
    return _assemble_blocks(blocks)

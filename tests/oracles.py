"""Independent brute-force oracles for the production checks.

All scans iterate over every cell pair, quadratic in the cell count, and
never reuse the label-position indexes the production code builds.  The
subset constructions rank sets as sorted tuples, independently of the
bitmask construction the package uses.
"""

from itertools import combinations

from pdakit.core import Pda


def _coords(p: Pda):
    return [(j, k) for j in range(p.rows) for k in range(p.cols)]


def brute_force_star_counts(p: Pda) -> tuple:
    """Each column's star count, one cell at a time."""
    return tuple(sum(p.cell(j, k) is None for j in range(p.rows)) for k in range(p.cols))


def brute_force_star_rows(p: Pda) -> tuple:
    """One int per row, bit k set when column k is a star."""
    return tuple(sum(1 << k for k in range(p.cols) if p.cell(j, k) is None) for j in range(p.rows))


def brute_force_blackburn_ok(p: Pda) -> bool:
    """C3 by scanning all cell pairs of one array."""
    cells = _coords(p)
    for a in range(len(cells)):
        j1, k1 = cells[a]
        s = p.cell(j1, k1)
        if s is None:
            continue
        for b in range(a + 1, len(cells)):
            j2, k2 = cells[b]
            if p.cell(j2, k2) != s:
                continue
            if p.cell(j1, k2) is not None or p.cell(j2, k1) is not None:
                return False
    return True


def brute_force_right_ok(p0: Pda, p1: Pda, pstar: Pda) -> bool:
    """Right compatibility by scanning all cross pairs."""
    for i0, j0 in _coords(p0):
        s = p0.cell(i0, j0)
        if s is None:
            continue
        for i1, j1 in _coords(p1):
            if p1.cell(i1, j1) != s:
                continue
            if pstar.cell(i0, j1) is not None:
                return False
    return True


def brute_force_full_ok(p0: Pda, p1: Pda, pstar: Pda) -> bool:
    """Full compatibility by scanning all cross pairs, both mirrors."""
    for i0, j0 in _coords(p0):
        s = p0.cell(i0, j0)
        if s is None:
            continue
        for i1, j1 in _coords(p1):
            if p1.cell(i1, j1) != s:
                continue
            if pstar.cell(i0, j1) is not None or pstar.cell(i1, j0) is not None:
                return False
    return True


def brute_force_first_c3(p: Pda):
    """The C3 witness ((j1, k1), (j2, k2), mirror) a row-major scan meets
    first, or None: every later cell in row-major order, then every earlier
    cell with the same label, then the (j1, k2) mirror before (j2, k1)."""
    cells = _coords(p)
    for b in range(len(cells)):
        j2, k2 = cells[b]
        s = p.cell(j2, k2)
        if s is None:
            continue
        for a in range(b):
            j1, k1 = cells[a]
            if p.cell(j1, k1) != s:
                continue
            for mirror in ((j1, k2), (j2, k1)):
                if p.cell(*mirror) is not None:
                    return ((j1, k1), (j2, k2), mirror)
    return None


def brute_force_full_witnesses(p0: Pda, p1: Pda, pstar: Pda) -> list:
    """Every full-compatibility witness as (label, cell0, cell1, mirror):
    labels ascending, then p0 and p1 cells row-major, then the (i0, j1)
    mirror before (i1, j0)."""
    out = []
    for c0 in _coords(p0):
        s = p0.cell(*c0)
        if s is None:
            continue
        for c1 in _coords(p1):
            if p1.cell(*c1) != s:
                continue
            for mirror in ((c0[0], c1[1]), (c1[0], c0[1])):
                if pstar.cell(*mirror) is not None:
                    out.append((s, c0, c1, mirror))
    # A stable sort keeps the row-major order within each label.
    return sorted(out, key=lambda w: w[0])


def brute_force_right_witnesses(p0: Pda, p1: Pda, pstar: Pda) -> list:
    """Every right-compatibility witness as (label, cell0, cell1, mirror)
    with the mirror at (i0, j1): labels ascending, then p0 and p1 cells
    row-major."""
    out = []
    for c0 in _coords(p0):
        s = p0.cell(*c0)
        if s is None:
            continue
        for c1 in _coords(p1):
            mirror = (c0[0], c1[1])
            if p1.cell(*c1) == s and pstar.cell(*mirror) is not None:
                out.append((s, c0, c1, mirror))
    return sorted(out, key=lambda w: w[0])


def brute_force_left_witnesses(p0: Pda, p1: Pda, phash: Pda) -> list:
    """Every left-compatibility witness as (label, cell0, cell1, mirror)
    with the mirror at (i1, j0): labels ascending, then p1 and p0 cells
    row-major, the order of right compatibility of (p1, p0)."""
    out = []
    for c1 in _coords(p1):
        s = p1.cell(*c1)
        if s is None:
            continue
        for c0 in _coords(p0):
            mirror = (c1[0], c0[1])
            if p0.cell(*c0) == s and phash.cell(*mirror) is not None:
                out.append((s, c0, c1, mirror))
    return sorted(out, key=lambda w: w[0])


# Set-based subset constructions, written from their definitions: rows and
# columns are subsets in lexicographic (or reverse) order, a cell is a star
# when they intersect, else the label ranked by their union.


def _subset_grid(row_sets, col_sets, union_order, labels) -> Pda:
    rank = {u: i for i, u in enumerate(union_order)}
    labels = list(range(len(rank))) if labels is None else list(labels)
    grid = []
    for row_set in row_sets:
        members = set(row_set)
        grid.append(
            [
                None if members & set(col_set)
                else labels[rank[tuple(sorted(members | set(col_set)))]]
                for col_set in col_sets
            ]
        )
    return Pda.from_rows(grid)


def oracle_mn(k: int, t: int, labels=None) -> Pda:
    users = [(u,) for u in range(k)]
    return _subset_grid(
        combinations(range(k), t), users, combinations(range(k), t + 1), labels
    )


def oracle_mn_reverse(k: int, t: int, labels=None) -> Pda:
    users = [(u,) for u in range(k)]
    return _subset_grid(
        reversed(list(combinations(range(k), t))),
        users,
        reversed(list(combinations(range(k), t + 1))),
        labels,
    )


def oracle_shangguan(n: int, a: int, b: int, labels=None) -> Pda:
    return _subset_grid(
        combinations(range(n), a),
        list(combinations(range(n), b)),
        combinations(range(n), a + b),
        labels,
    )


def oracle_odd_tiling_p1(g: int) -> Pda:
    """P1 of the odd-tiling pair from its block picture, n = g // 2:

        [ *       I~_n(3) I~_n(1) ]
        [ 3       *...*   0       ]
        [ I~_n(2) I~_n(0) *       ]

    where I~_n(s) holds s on its anti-diagonal and stars elsewhere."""
    n = g // 2

    def anti(s):
        return [[s if i + j == n - 1 else None for j in range(n)] for i in range(n)]

    def side_by_side(*blocks):
        return [[c for block in blocks for c in block[i]] for i in range(n)]

    stars = [[None]] * n
    middle = [[3] + [None] * (g - 2) + [0]]
    return Pda.from_rows(
        side_by_side(stars, anti(3), anti(1)) + middle + side_by_side(anti(2), anti(0), stars)
    )


# The pairwise byte path the simulator used before it sliced each subfile
# once and folded each XOR into one integer: a fresh subfile copy per user
# and cell, and one bytes -> int -> bytes round trip per XOR-ed pair.


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def oracle_place(p: Pda, lib) -> tuple:
    caches = []
    for k in range(p.cols):
        star_rows = [j for j in range(p.rows) if p.cell(j, k) is None]
        caches.append(
            {(i, j): lib.subfile(i, j) for i in range(lib.n_files) for j in star_rows}
        )
    return tuple(caches)


def oracle_deliver(p: Pda, demands, lib) -> list:
    """(label, payload) pairs in ascending label order."""
    out = []
    for s, cells in sorted(p.label_positions().items()):
        payload = None
        for j, k in cells:
            sub = lib.subfile(demands[k], j)
            payload = sub if payload is None else _xor(payload, sub)
        out.append((s, payload))
    return out


def oracle_decode(p: Pda, user: int, demands, caches, transmissions) -> bytes:
    by_label = {t.label: t.payload for t in transmissions}
    own = caches[user]
    positions = p.label_positions()
    parts = []
    for j in range(p.rows):
        s = p.cell(j, user)
        if s is None:
            parts.append(own[(demands[user], j)])
            continue
        piece = by_label[s]
        for j2, k2 in positions[s]:
            if k2 != user:
                piece = _xor(piece, own[(demands[k2], j2)])
        parts.append(piece)
    return b"".join(parts)


# The per-block uniform lift the package used before its blocks carried
# label maps: one relabeled Pda per base cell, its rows then copied into the
# result, where the package copies each source's rows through a map onto its
# ledger range and builds no block.  Ranges are handed out as the package
# documents: one reference range per base star (row-major), then one shared
# member range per base label ascending.  No preconditions are checked and
# nothing is validated.


def _relabel_block(p: Pda, source_labels, start: int) -> Pda:
    mapping = {s: start + i for i, s in enumerate(source_labels)}
    return Pda(p.rows, p.cols, tuple(None if c is None else mapping[c] for c in p.cells))


def oracle_uniform_lift(base: Pda, members, pstar: Pda) -> tuple:
    """(lifted array, ledger dict shaped like LiftOutcome.label_ledger)."""
    member_labels = sorted(members[0].labels()) if members else []
    pstar_labels = sorted(pstar.labels())
    ledger = {"stars": {}, "labels": {}}
    nxt = 0
    star_index = {}
    for j in range(base.rows):
        for k in range(base.cols):
            if base.cell(j, k) is None:
                star_index[(j, k)] = len(star_index)
                ledger["stars"][str(len(star_index) - 1)] = [nxt, nxt + len(pstar_labels)]
                nxt += len(pstar_labels)
    for s in sorted(base.labels()):
        ledger["labels"][str(s)] = [nxt, nxt + len(member_labels)]
        nxt += len(member_labels)

    occurrence: dict = {}
    grid = []
    for j in range(base.rows):
        blocks = []
        for k in range(base.cols):
            s = base.cell(j, k)
            if s is None:
                start = ledger["stars"][str(star_index[(j, k)])][0]
                blocks.append(_relabel_block(pstar, pstar_labels, start))
            else:
                t = occurrence.get(s, 0)
                occurrence[s] = t + 1
                start = ledger["labels"][str(s)][0]
                blocks.append(_relabel_block(members[t], member_labels, start))
        for row in range(pstar.rows):
            grid.append([c for q in blocks for c in q.row(row)])
    return Pda.from_rows(grid), ledger


# --------------------------------------------------- block assembly and grid text
# The package maps each block and each row of grid text with one C-level
# gather; these place and write one cell at a time.


def brute_force_assemble(blocks) -> Pda:
    """``blocks[r][c] = (grid, labels)`` laid out cell by cell: cell (j, k) of
    a block lands below the block rows above it and right of the blocks to its
    left, a label c becoming ``labels[c]`` unless ``labels`` is None."""
    heights = [block_row[0][0].rows for block_row in blocks]
    widths = [q.cols for q, _ in blocks[0]]
    grid = [[None] * sum(widths) for _ in range(sum(heights))]
    top = 0
    for height, block_row in zip(heights, blocks):
        left = 0
        for q, labels in block_row:
            for j in range(q.rows):
                for k in range(q.cols):
                    c = q.cell(j, k)
                    grid[top + j][left + k] = c if c is None or labels is None else labels[c]
            left += q.cols
        top += height
    return Pda.from_rows(grid)


def brute_force_serialize(p: Pda, header: bool = False) -> str:
    """Grid text written one cell at a time: ``*`` or the label's digits."""
    lines = [f"# pda f={p.rows} K={p.cols}"] if header else []
    for j in range(p.rows):
        cells = [p.cell(j, k) for k in range(p.cols)]
        lines.append(" ".join("*" if c is None else "%d" % c for c in cells))
    return "".join(line + "\n" for line in lines)

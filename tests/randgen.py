"""Seeded random generators for valid PDAs, generalized families, lift inputs
and corrupted block plans."""

import random

from pdakit.compatibility import GenFamily
from pdakit.constructions import (
    all_star,
    filled,
    g_array,
    h_array,
    identity,
    mn,
    mn_reverse,
    odd_tiling,
    shangguan_direct,
    yan_half_memory,
)
from pdakit.core import Pda, relabel, validate
from pdakit.lifting import basic_lift


def _base_pda(rng: random.Random) -> Pda:
    kind = rng.randrange(10)
    if kind == 0:
        return identity(rng.randint(1, 6), rng.randint(0, 9), rng.random() < 0.5)
    if kind == 1:
        return g_array(rng.randint(2, 5))
    if kind == 2:
        return h_array(rng.randint(2, 5))
    if kind == 3:
        return filled(rng.randint(1, 3), rng.randint(1, 4))
    if kind == 4:
        return all_star(rng.randint(1, 3), rng.randint(1, 3))
    if kind == 5:
        k = rng.randint(2, 6)
        return mn(k, rng.randint(0, k))
    if kind == 6:
        k = rng.randint(2, 6)
        return mn_reverse(k, rng.randint(0, k))
    if kind == 7:
        n = rng.randint(2, 6)
        a = rng.randint(0, n)
        return shangguan_direct(n, a, rng.randint(0, n - a))
    if kind == 8:
        fam = odd_tiling(rng.choice([3, 5]))
        return rng.choice([fam.p0, fam.p1])
    if rng.random() < 0.5:
        return yan_half_memory(rng.randint(2, 4))
    return basic_lift(identity(rng.randint(2, 3), 0), h_array(rng.randint(2, 3))).result


def random_valid_pda(rng: random.Random, max_cells: int = 250) -> Pda:
    """A valid PDA from the construction menu, sometimes randomly relabeled."""
    while True:
        p = _base_pda(rng)
        if p.rows * p.cols > max_cells:
            continue
        if rng.random() < 0.5:
            labels = sorted(p.labels())
            images = rng.sample(range(100), len(labels))
            p = relabel(p, dict(zip(labels, images)))
        assert validate(p).ok
        return p


def random_full_triple(rng: random.Random, max_cells: int = 60) -> tuple:
    """(p0, p1, reference) of one shape for full compatibility: p0 a valid
    PDA; p1 p0 with its labels permuted or a random grid over p0's labels;
    the reference all stars (always compatible) or a random star mask on
    fresh labels (mostly not)."""
    p0 = random_valid_pda(rng, max_cells)
    labels = sorted(p0.labels())
    if labels and rng.random() < 0.5:
        p1 = relabel(p0, dict(zip(labels, rng.sample(labels, len(labels)))))
    else:
        pool = labels or [0]
        p1 = Pda(
            p0.rows,
            p0.cols,
            tuple(rng.choice(pool) if rng.random() < 0.4 else None for _ in p0.cells),
        )
    if rng.random() < 0.3:
        return p0, p1, all_star(p0.rows, p0.cols)
    density = rng.uniform(0.5, 1.0)
    mask = (None if rng.random() < density else 10_000 + i for i in range(len(p0.cells)))
    return p0, p1, Pda(p0.rows, p0.cols, tuple(mask))


# Column counts on both sides of the 8- and 64-bit boundaries of the
# star-row ints (``Pda._star_rows``).
WIDE_COLS = (1, 7, 8, 9, 31, 63, 64, 65, 66, 100, 127, 128, 129, 130)


def random_grid(rng: random.Random, max_side: int = 6, n_labels: int = 5, shape=None) -> Pda:
    """Any grid of stars and a few labels, mostly not a PDA: star columns
    unbalanced, labels repeated in a row or column, mirrors not stars.
    ``shape`` fixes (rows, cols), else each is drawn up to ``max_side``."""
    rows, cols = shape or (rng.randint(1, max_side), rng.randint(1, max_side))
    star = rng.random()
    return Pda(
        rows,
        cols,
        tuple(
            None if rng.random() < star else rng.randrange(n_labels)
            for _ in range(rows * cols)
        ),
    )


def _random_member(rng, rows, cols, pool, attempts=300):
    """Random valid PDA of the given shape over the label pool, or None."""
    for _ in range(attempts):
        z = rng.randint(max(0, rows - 3), rows - 1) if rows > 1 else rng.randint(0, 1)
        grid = []
        star_rows = [set(rng.sample(range(rows), z)) for _ in range(cols)]
        for j in range(rows):
            grid.append(
                [None if j in star_rows[k] else rng.choice(pool) for k in range(cols)]
            )
        p = Pda.from_rows(grid)
        if validate(p).ok:
            return p
    return None


def random_gen_family(rng: random.Random):
    """Members on possibly shared labels plus fresh-label references whose
    per-column-block star counts balance, so assembly validity reduces to
    the Blackburn condition."""
    while True:
        g = rng.randint(2, 3)
        shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(g)]
        if rng.random() < 0.3:
            pools = [list(range(100 * i, 100 * i + rng.randint(1, 3))) for i in range(g)]
        else:
            pool = list(range(rng.randint(1, 4)))
            pools = [pool] * g
        members = []
        for (rows, cols), pool in zip(shapes, pools):
            m = _random_member(rng, rows, cols, pool)
            if m is None:
                break
            members.append(m)
        if len(members) != g:
            continue

        zs = [m.column_star_count(0) for m in members]
        target = max(zs)
        fresh = 10_000
        refs = {}
        ok = True
        for j in range(g):
            need = target - zs[j]
            quota = {}
            for i in range(g):
                if i == j:
                    continue
                take = min(need, members[i].rows)
                quota[i] = take
                need -= take
            if need:
                ok = False
                break
            for i in range(g):
                if i == j:
                    continue
                rows, cols = members[i].rows, members[j].cols
                star_rows = [set(rng.sample(range(rows), quota[i])) for _ in range(cols)]
                grid = []
                for r in range(rows):
                    row = []
                    for c in range(cols):
                        if r in star_rows[c]:
                            row.append(None)
                        else:
                            row.append(fresh)
                            fresh += 1
                    grid.append(row)
                refs[(i, j)] = Pda.from_rows(grid)
        if not ok:
            continue
        return GenFamily.of(members, refs)


def random_lift_inputs(rng: random.Random, max_cells: int = 30) -> tuple:
    """(base, members, reference) for ``lifting._lift`` past the public checks.
    The base is a valid PDA or, a quarter of the time, a random grid.  The
    members share member 0's label set, as ``_lift`` maps them, and repeat as
    often as a base label occurs: label permutations of one valid PDA over an
    all-star reference and the odd-tiling pair (both compatible), or
    ``random_full_triple``'s pair and reference (mostly not)."""
    base = random_grid(rng, 4, 3) if rng.random() < 0.25 else random_valid_pda(rng, max_cells)
    kind = rng.randrange(3)
    if kind == 0:
        p = random_valid_pda(rng, max_cells)
        labels = sorted(p.labels())
        pair, ref = [p, relabel(p, dict(zip(labels, rng.sample(labels, len(labels)))))], all_star(*p.shape)
    elif kind == 1:
        fam = odd_tiling(3)
        pair, ref = [fam.p0, fam.p1], fam.pstar
    else:
        *pair, ref = random_full_triple(rng, max_cells)
    need = max(map(len, base.label_positions().values()), default=1)
    return base, pair * need, ref


def corrupt_plan(rng: random.Random, blocks) -> list:
    """A copy of the block plan ``blocks[r][c] = (grid, labels)`` with one block
    corrupted: its grid replaced by a random one of its shape, over its map's
    labels or, unmapped, over labels a lift's ranges also hold or fresh ones;
    its map replaced by another block's (the same dict) whose keys cover it, or
    by an equal copy of that dict, whose images collide with it; or its map
    made non-injective, two labels onto one image, or sending one label onto
    a fresh one.  Every map still sends None to None and labels to ints, as
    ``core._assemble_blocks`` requires."""
    plan = [list(row) for row in blocks]
    r = rng.randrange(len(plan))
    c = rng.randrange(len(plan[r]))
    q, m = plan[r][c]
    kind = rng.randrange(4)
    keys = sorted(k for k in m if k is not None) if m else []
    if kind in (1, 2):
        covering = [m2 for row in plan for _, m2 in row
                    if m2 is not None and m2 is not m and q.labels() <= m2.keys()]
        if covering:
            m2 = rng.choice(covering)
            plan[r][c] = (q, m2 if kind == 1 else dict(m2))
            return plan
    if kind == 3 and keys:
        m2 = dict(m)
        a, b = rng.sample(keys, 2) if len(keys) > 1 else (keys[0], None)
        m2[a] = m2[b] if b is not None and rng.random() < 0.8 else 10**6
        plan[r][c] = (q, m2)
        return plan
    pool = keys or (range(3) if rng.random() < 0.5 else range(10**6, 10**6 + 3))
    star = rng.random()
    grid = tuple(None if rng.random() < star else rng.choice(pool) for _ in q.cells)
    plan[r][c] = (Pda(q.rows, q.cols, grid), m)
    return plan

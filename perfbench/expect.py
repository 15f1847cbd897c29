"""Expected answers computed without pdakit, and the seeded input edits.

Every check in the benchmark compares pdakit's output with a value derived
here from the construction's closed form or by direct counting over the
cells, so a faster but wrong pdakit fails its ops instead of scoring.
Parameter tuples are (K, f, Z, S, g) with g None for irregular arrays.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb


def mn_params(k: int, t: int) -> tuple:
    return (k, comb(k, t), comb(k - 1, t - 1), comb(k, t + 1), t + 1)


def yan_params(g: int) -> tuple:
    return (2 * g, 2 ** (g - 1), 2 ** (g - 2), 2 ** (g - 1), g)


def odd_lift_params(g: int, n: int) -> tuple:
    return (g * n, g * n, n * (g - 2) + 1, n * (2 * n - 1), g)


def shangguan_params(n: int, a: int, b: int) -> tuple:
    return (comb(n, b), comb(n, a), comb(n, a) - comb(n - b, a), comb(n, a + b), comb(a + b, a))


def h_params(n: int) -> tuple:
    return (n, n, 1, n * (n - 1) // 2, 2)


def basic_lift_params(base: tuple, p: tuple) -> tuple:
    """Basic lift: stars become all-star blocks, labels a shared copy of p."""
    kb, fb, zb, sb, gb = base
    kp, fp, zp, sp, gp = p
    return (kb * kp, fb * fp, zb * fp + (fb - zb) * zp, sb * sp, gb * gp)


def family_lift_params(n: int, m: int) -> tuple:
    """Members and reference of lifting the n x n transpose family (diagonal
    stars, reference h_array(n)) by the m x m one (reference h_array(m)).

    Member-derived labels occur once and reference-copy labels twice, so the
    lifted members are irregular; the new reference is h_array(n) basic-lifted
    by an m x m member whose labels occur once, hence 2-regular.
    """
    member = (n * m, n * m, n, n * m * (m - 1) // 2 + n * (n - 1) * m * (m - 1), None)
    ref = (n * m, n * m, m + n - 1, n * (n - 1) // 2 * m * (m - 1), 2)
    return member, ref


def count_params(rows: int, cols: int, cells) -> tuple:
    """(K, f, Z, S, g) by counting; Z is None when column star counts differ."""
    stars = [0] * cols
    for pos, c in enumerate(cells):
        if c is None:
            stars[pos % cols] += 1
    occ = Counter(c for c in cells if c is not None)
    mult = set(occ.values())
    z = stars[0] if len(set(stars)) == 1 else None
    return (cols, rows, z, len(occ), mult.pop() if len(mult) == 1 else None)


def info_tuple(info) -> tuple:
    """pdakit's PdaParams as a (K, f, Z, S, g) tuple."""
    return (info.k, info.f, info.z, info.s, info.g)


def ratios_exact(info) -> bool:
    return info.memory_ratio == Fraction(info.z, info.f) and info.rate == Fraction(info.s, info.f)


def label_pairs(cells) -> int:
    """Equal-label cell pairs, sum of C(occ, 2): the work count of C3."""
    return sum(n * (n - 1) // 2 for n in Counter(c for c in cells if c is not None).values())


def cross_pairs(cells_a, cells_b) -> int:
    """Equal-label pairs across two arrays: what a compatibility check examines."""
    a = Counter(c for c in cells_a if c is not None)
    b = Counter(c for c in cells_b if c is not None)
    return sum(n * b[s] for s, n in a.items() if s in b)


def corrupt(rows: int, cols: int, cells: tuple, condition: str, rng) -> tuple:
    """Return cells with one cell in the last tenth of the rows changed so
    that ``condition`` fails.

    C1: a star becomes a fresh label, so its column has one star too few.
    C3: a label cell takes the label of a cell in another row and column
    whose mirror (row of that cell, column of this one) holds a label, so
    the pair breaks the Blackburn property; star counts stay unchanged.

    Keeping the changed cell near the end means the row-major C3 scan meets
    the violation late whatever the seed, so a corrupted op costs about the
    same on every seed.
    """
    cells = list(cells)
    tail = cols * (rows - max(1, rows // 10))
    if condition == "C1":
        stars = [i for i in range(tail, len(cells)) if cells[i] is None]
        pos = rng.choice(stars)
        cells[pos] = max(c for c in cells if c is not None) + 1
        return tuple(cells)
    labelled = [i for i, c in enumerate(cells) if c is not None]
    changeable = [i for i in labelled if i >= tail]
    for _ in range(10000):
        p2 = rng.choice(changeable)
        p1 = rng.choice(labelled)
        j1, k1 = divmod(p1, cols)
        j2, k2 = divmod(p2, cols)
        if j1 != j2 and k1 != k2 and cells[j1 * cols + k2] is not None:
            cells[p2] = cells[p1]
            return tuple(cells)
    raise ValueError("no cell pair breaks C3 in this array")

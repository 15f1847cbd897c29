"""Decision procedures for Blackburn-compatibility between PDAs.

Two arrays interact only through cells that carry the same label.  The
checks below read the flat label index: they clear a label of g0 and g1
cells in O(g0 + g1) with the star count ``core._stars_over``, and walk only a
failing label's positions pair by pair with ``core._failing_pairs``; C3 uses
both.  Witness order is deterministic: lowest label first, then row-major cell pairs.

Right compatibility of (p0, p1) with respect to a reference of shape
rows(p0) x cols(p1) demands a star at (i0, j1) for every equal-label pair
p0(i0, j0) = p1(i1, j1); left compatibility mirrors to (i1, j0).  Full
compatibility is both at once with a single same-shape reference.

Each failing pair is reported as a ``CompatWitness``, an immutable named
tuple: it iterates and unpacks as ``(label, cell0, cell1, mirror, pair)``,
compares equal to that plain 5-tuple and hashes like it.  Scans yield plain
5-tuples already in their final cell order (the left check's scan yields
each pair swapped), and ``CompatReport.from_witnesses`` gathers the records
in a list before the one tuple, so every check builds each witness once, and
all of them before it returns.
"""

from __future__ import annotations

from itertools import chain, permutations, repeat
from typing import Mapping, NamedTuple, Sequence

from .core import Pda, _check_kind, _check_members, _check_pda, _check_shape, _failing_pairs, _Frozen
from .core import _stars_over

__all__ = [
    "CompatWitness",
    "CompatReport",
    "is_right_compatible",
    "is_left_compatible",
    "is_blackburn_compatible",
    "GenFamily",
    "is_generalized_family",
    "check_condition_cstar",
]


class CompatWitness(NamedTuple):
    """Equal labels in two arrays whose mirrored reference cell is not a star.

    ``pair`` identifies the (i, j) member pair in family checks, None for
    two-array checks.
    """

    label: int
    cell0: tuple
    cell1: tuple
    mirror: tuple
    pair: "tuple | None" = None


class CompatReport(NamedTuple):
    ok: bool
    witnesses: tuple

    @staticmethod
    def from_witnesses(witnesses) -> "CompatReport":
        """Each ``(label, cell0, cell1, mirror, pair)`` becomes a ``CompatWitness`` at C level,
        gathered in a list first: a tuple grown from an iterator re-enters the youngest
        GC generation at every resize, so each collection rescans every record so far."""
        witnesses = tuple([*map(tuple.__new__, repeat(CompatWitness), witnesses)])
        return CompatReport(not witnesses, witnesses)


def _right_witnesses(p0: Pda, p1: Pda, pstar: Pda, pair=None, both=False, swap=False):
    """Witnesses per shared label in ascending order, each failing label's flat
    positions walked lazily by ``core._failing_pairs``; ``both`` adds the (i1, j0)
    mirror after (i0, j1): full compatibility; ``swap`` names the p1 cell first: left
    compatibility.  A label ``_stars_over`` clears is not walked."""
    ref, rows, w0, w1 = pstar.cells, pstar._star_rows, p0.cols, p1.cols

    def walks():
        for s in sorted(p0._label_index.keys() & p1._label_index.keys()):
            flat0, flat1 = p0._label_index[s], p1._label_index[s]
            g = len(flat0) * len(flat1)  # the reference is w1 wide, and w0 == w1 with both
            if _stars_over(rows, flat0, w0, flat1, w1) != g or (
                both and _stars_over(rows, flat1, w1, flat0, w0) != g
            ):
                yield _failing_pairs(ref, s, flat0, w0, flat1, w1, pair, both, swap)

    return chain.from_iterable(walks())


def is_right_compatible(p0: Pda, p1: Pda, pstar: Pda) -> CompatReport:
    _check_pda(p0, "first array")
    _check_shape(pstar, p0.rows, _check_pda(p1, "second array").cols, "right reference")
    return CompatReport.from_witnesses(_right_witnesses(p0, p1, pstar))


def is_left_compatible(p0: Pda, p1: Pda, phash: Pda) -> CompatReport:
    """Right compatibility of (p1, p0), each witness naming the p0 cell first."""
    _check_pda(p0, "first array")
    _check_shape(phash, _check_pda(p1, "second array").rows, p0.cols, "left reference")
    return CompatReport.from_witnesses(_right_witnesses(p1, p0, phash, swap=True))


def is_blackburn_compatible(p0: Pda, p1: Pda, pstar: Pda) -> CompatReport:
    """Full compatibility: both mirrored reference cells star for every pair."""
    _check_shape(p1, *_check_pda(p0, "first array").shape, "second array")
    _check_shape(pstar, *p0.shape, "reference")
    return CompatReport.from_witnesses(_right_witnesses(p0, p1, pstar, both=True))


class GenFamily(_Frozen):
    """Members plus one reference PDA per ordered pair (i, j), i != j.

    The reference for (i, j) has the row count of member i and the column
    count of member j.  ``is_generalized_family`` and the identity-base
    lift check this one contract alike: ValueError for ``members`` that is
    no sequence, then for a ``refs`` that is no mapping, then for a key
    that is no such pair, then for the first member that is not a ``Pda``,
    then for the first pair whose reference is missing (or None), not a
    ``Pda`` or misshaped.  Reference label sets must be pairwise disjoint
    and disjoint from all members' labels for the identity-lift
    equivalence to hold; ``nonuniform_lift`` checks that.
    ``of`` refuses members that are no sequence and ``refs`` that is no
    mapping.  The hash leaves ``refs`` out.
    """

    _fields = ("members", "refs")

    def __init__(self, members: tuple, refs: Mapping):
        self.__dict__.update(members=members, refs=refs)

    def __hash__(self):
        return hash(self.members)

    @staticmethod
    def of(members: Sequence[Pda], refs: Mapping) -> "GenFamily":
        members = tuple(_check_kind(members, "members"))
        return GenFamily(members, dict(_check_kind(refs, "refs", Mapping)))


def _check_pair_refs(members: Sequence[Pda], refs: Mapping) -> None:
    """Check that every member is a ``Pda`` and that ``refs`` maps every
    ordered pair (i, j) of distinct member indices, and nothing else, to a
    ``Pda`` of shape rows(i) x cols(j): that ``members`` is a sequence
    first, then that ``refs`` is a mapping, then all keys, then the
    members' types, and each value's type before any of its attributes."""
    g = len(_check_kind(members, "members", Sequence))
    pairs = list(permutations(range(g), 2))
    for key in _check_kind(refs, "refs", Mapping):
        if key not in pairs:
            raise ValueError(
                f"unexpected reference key {key!r}: keys are pairs (i,j) of distinct "
                f"member indices below {g}"
            )
    for i, m in enumerate(members):
        _check_pda(m, f"member {i}")
    for i, j in pairs:
        ref = refs.get((i, j))
        if ref is None:
            raise ValueError(f"missing reference for pair ({i},{j})")
        _check_shape(ref, members[i].rows, members[j].cols, f"reference ({i},{j})")


def is_generalized_family(fam: GenFamily) -> CompatReport:
    """Every ordered pair (i, j) must be right compatible w.r.t. refs[(i, j)]."""
    members, refs = _check_kind(fam, "family", GenFamily).members, fam.refs
    _check_pair_refs(members, refs)
    return CompatReport.from_witnesses(chain.from_iterable(
        _right_witnesses(members[i], members[j], refs[i, j], pair=(i, j))
        for i, j in permutations(range(len(members)), 2)
    ))


def check_condition_cstar(members: Sequence[Pda], pstar: Pda) -> CompatReport:
    """Check the reference-star condition for coordinated family lifting.

    Applies to the regime where all members share identical star positions
    (so reference copies share labels only at identical positions): the
    reference must carry a star wherever the members do.  ValueError names
    the first member, then the reference, that is not a ``Pda`` of member
    0's shape, and then the first member whose star positions differ from
    member 0's, since the coordinated-copy regime does not apply to it.
    """
    members = _check_members(members)
    shape = _check_pda(members[0], "member 0").shape
    for i, m in enumerate(members):
        _check_shape(m, *shape, f"member {i}")
    _check_shape(pstar, *shape, "reference")
    for i, m in enumerate(members[1:], start=1):
        if m._star_rows != members[0]._star_rows:
            raise ValueError(
                f"members 0 and {i} differ in star positions; "
                "coordinated family lifting does not apply"
            )
    witnesses, cells = [], members[0].cells
    for pos, s in enumerate(pstar.cells):
        if s is not None and cells[pos] is None:
            cell = divmod(pos, pstar.cols)
            witnesses.append((s, cell, cell, cell, None))
    return CompatReport.from_witnesses(witnesses)

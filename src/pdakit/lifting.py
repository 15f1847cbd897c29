"""Lifting constructions: build large PDAs from compatible small ones.

Uniform lifting replaces every cell of a base PDA by an equal-size block:
star cells get fresh label-disjoint copies of a reference PDA, and the t-th
occurrence of a base label s gets the t-th member of a compatible family,
relabeled onto a set S_s shared by all occurrences of s.  The shared set is
what lets two blocks interact, and their mirrored blocks are reference
copies whose stars are guaranteed exactly by Blackburn-compatibility of the
family, so the assembled array satisfies the Blackburn property again.

Star counts compose as Z' = Z_b * Z_ref + (f_b - Z_b) * Z_member, and with a
g_b-regular base the member-derived labels appear g_b * g_c times, where
g_c is the per-member label multiplicity.

Uniform, basic and family lifts are validated from their block plan, the
paper's partial compatibility of two PDAs with respect to a third
(``core._plan_star_counts``): checked sources, disjoint label ranges and the
right-compatibility walk per distinct (member, member, mirror) triple prove
C1 and C3 without reading the result's cells.  A plan that proves nothing falls
back to a full scan of the result.  The recursions and the non-uniform lift
scan their result.

A lifted family is each member's uniform lift by a second (q) family,
all members sharing one label allocation, plus the basic lift of the
reference; the lifted members stay compatible with respect to it.

Non-uniform lifting drops the equal-size requirement: members sit on the
(anti-)diagonal of a block matrix and per-pair references fill the rest;
validity of the assembly is equivalent to generalized compatibility of the
family.  The Shangguan construction is a recursive instance, and the MN
construction is its b = 1 case: mn_recursive(K, t) is shangguan_recursive(K,
t, 1).  Each step is the anti-diagonal lift laid out by ``_identity_plan``, as
the non-uniform lift is.  A call lists its distinct steps one level (one n)
at a time, refused if they would hold more than ``MAX_CELLS`` cells in all,
then builds them one level at a time, deepest first, holding at most two
levels, and validates only its result.

Fresh labels are handed out by a single monotone allocator in emission
order: reference copies first (star cells, row-major), then one shared set
per base label in ascending label order.  That ordering reproduces the
published example arrays digit for digit.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb
from typing import Mapping, NamedTuple, Sequence

from .compatibility import _check_pair_refs, check_condition_cstar, is_blackburn_compatible
from .constructions import _check_memory_point, _check_subset_point, all_star, filled, h_array, odd_tiling
from .core import MAX_CELLS, Pda, PdaParams, _assemble_blocks, _check_kind, _check_members, _check_pda
from .core import _check_shape, _params_of, _plan_star_counts, _valid, params, validate
from .errors import CompatibilityError, LiftError

__all__ = [
    "LiftOutcome",
    "uniform_lift",
    "basic_lift",
    "lift_family",
    "assemble_identity_lift",
    "nonuniform_lift",
    "mn_recursive",
    "shangguan_recursive",
    "odd_tiling_lift",
    "ParamTuple",
    "measure_family",
    "lifted_params",
    "lift_family_params",
]


class LiftOutcome(NamedTuple):
    """A lifted array and its label ledger, the dict the CLI saves: "stars"
    maps str(k) to the half-open range ``[start, stop]`` of the reference
    copy on base star k (row-major), and "labels" maps str(s) to the range
    shared by every occurrence of base label s.  Not hashable."""

    result: Pda
    label_ledger: dict


# The witness a LiftError carries as ``report`` when a precondition fails: too
# few members, the members whose label set is not member 0's, a reused label.
MemberCount = NamedTuple("MemberCount", [("needed", int), ("given", int)])
LabelSetMismatch = NamedTuple("LabelSetMismatch", [("members", tuple)])
RefOverlap = NamedTuple("RefOverlap", [("key", tuple), ("labels", tuple)])


def _max_occurrences(p: Pda) -> int:
    return max(map(len, p._label_index.values()), default=0)


def _check_member_count(bases, members, needs: str) -> None:
    """Each occurrence of a label in ``bases`` takes its own member of the family."""
    need = max(map(_max_occurrences, bases))
    if len(members) < need:
        raise LiftError(f"{needs.format(need)} (max label occurrences), got {len(members)}",
                        MemberCount(need, len(members)))


def _check_family(members, pstar, what="member"):
    """Check a family as lifting needs it; the reference is named after ``what``."""
    ref = what.replace("member", "reference")
    _valid(pstar, ref)
    for i, q in enumerate(members):
        _valid(q, f"{what} {i}")
        _check_shape(q, *members[0].shape, f"{what} {i}")
    if members:
        _check_shape(pstar, *members[0].shape, ref)
    label_sets = [q.labels() for q in members]
    differ = tuple(i for i, s in enumerate(label_sets) if s != label_sets[0])
    if differ:
        raise LiftError(f"{what}s must share one label set", LabelSetMismatch(differ))
    for i, j in combinations(range(len(members)), 2):
        report = is_blackburn_compatible(members[i], members[j], pstar)
        if not report.ok:
            raise CompatibilityError(
                f"{what}s {i} and {j} are not Blackburn-compatible with the "
                f"{ref}; first witness {report.witnesses[0]}",
                report,
            )


def _checked(result: Pda) -> Pda:
    """``result`` once it has passed validation (C1-C3), else LiftError: a full
    scan, unless ``_lift`` proved the result from its plan and cached the verdict."""
    report = validate(result)
    if not report.ok:
        raise LiftError(f"lifted array failed validation: {report.violations}", report)
    return result


def _lift(base, members, pstar) -> LiftOutcome:
    """Uniform lift of a checked base by a checked family, validated from its
    block plan when ``_plan_star_counts`` proves it, else by a full scan.

    One running counter hands out fresh labels, a reference range per base
    star (row-major) and then a shared range per base label ascending, and
    ``onto`` records each range in the ledger as it takes it.  Only the
    base's star count and sorted labels are read, so the members of a family
    lift share one allocation.  A block is its source itself with a dict of
    the source's sorted labels onto its range (one per base label for all
    its occurrences), or None for a source without labels.
    """
    ref_labels = sorted(pstar.labels())
    member_labels = sorted(members[0].labels()) if members else []
    ledger = {"stars": {}, "labels": {}}
    stop = 0

    def onto(kind: str, key: int, source_labels: list):
        nonlocal stop
        start, stop = stop, stop + len(source_labels)
        ledger[kind][str(key)] = [start, stop]
        return dict(zip(source_labels, range(start, stop))) | {None: None} if source_labels else None

    stars = iter([onto("stars", k, ref_labels) for k in range(sum(base._star_counts))])
    shared = {s: onto("labels", s, member_labels) for s in sorted(base.labels())}
    unused = {s: iter(members) for s in shared}  # each occurrence takes the next member
    blocks = [[(pstar, next(stars)) if s is None else (next(unused[s]), shared[s]) for s in base.row(j)]
              for j in range(base.rows)]
    result, counts = _assemble_blocks(blocks), _plan_star_counts(blocks)
    if counts is not None:  # proven: validate reads these caches and scans nothing
        result.__dict__.update(_star_counts=counts, _c3=None)
    return LiftOutcome(_checked(result), ledger)


def uniform_lift(base: Pda, members: Sequence[Pda], pstar: Pda) -> LiftOutcome:
    """Lift ``base`` by a Blackburn-compatible family, reference on stars.

    Needs at least max-occurrence-count members; all members share one
    label set and one shape with the reference, and are pairwise
    compatible with respect to it (checked, witnesses reported).
    """
    members = list(_check_kind(members, "members"))
    _check_member_count([_check_pda(base, "base")], members, "base needs {} family members")
    _valid(base, "base")
    _check_family(members, pstar)
    return _lift(base, members, pstar)


def basic_lift(base: Pda, p: Pda) -> LiftOutcome:
    """Lift with one PDA: all star cells become all-star blocks and every
    occurrence of a base label gets the same shared relabeled copy of p.
    Copies of one array are compatible with respect to an all-star
    reference, so no compatibility check runs."""
    _valid(base, "base")
    _valid(p, "member")
    return _lift(base, [p] * _max_occurrences(base), all_star(*p.shape))


def lift_family(
    members: Sequence[Pda],
    pstar: Pda,
    q_members: Sequence[Pda],
    qstar: Pda,
) -> tuple:
    """Lift a whole compatible family, preserving compatibility.

    Each member's lift is its uniform lift by the q family, and the new
    reference is the basic lift of ``pstar`` by ``q_members[0]``.  The
    members share one label allocation: the copy for base label s uses the
    same fresh set in every member, and the reference copy at star
    position (r, c) likewise.  This requires identical star positions
    across members and the reference-star condition on ``pstar``, both
    checked by ``check_condition_cstar``, whose ValueError names the first
    member that differs from member 0.

    Returns (lifted members, lifted reference); ``_check_family`` checks
    the result family as it checks the inputs, so a lifted pair that is
    not compatible raises ``CompatibilityError`` carrying its report.
    """
    members = _check_members(members)
    cstar = check_condition_cstar(members, pstar)
    if not cstar.ok:
        raise LiftError(
            f"reference carries a label at a member star position: "
            f"{cstar.witnesses[0].mirror}", cstar
        )
    _check_family(members, pstar)

    q_members = _check_members(q_members, "q-members")
    _check_member_count(members, q_members, "family members need {} q-members")
    _check_family(q_members, qstar, what="q-member")

    lifted = [_lift(m, q_members, qstar).result for m in members]
    rstar = basic_lift(pstar, q_members[0]).result
    _check_family(lifted, rstar, "lifted member")
    return tuple(lifted), rstar


def assemble_identity_lift(
    members: Sequence[Pda], refs: Mapping, orientation: str = "main"
) -> Pda:
    """Assemble the block matrix of an identity-base lift without validating.

    Members go on the main diagonal ("main") or the anti-diagonal ("anti");
    the reference for ordered pair (i, j) fills the mirrored block between
    member i's rows and member j's columns.  ``refs`` is checked against
    the ``GenFamily`` reference-map contract before any block is placed,
    so a key that is no such pair, a member that is not a ``Pda``, or a
    missing (or None), non-``Pda`` or misshaped reference, is the
    ValueError ``is_generalized_family`` raises; an empty member list is
    ``need at least one member``.  One member takes no reference, so every
    key is refused, and assembles to an array equal to it.
    """
    if orientation not in ("main", "anti"):
        raise ValueError(f"orientation must be 'main' or 'anti', got {orientation!r}")
    members = _check_members(members)
    _check_pair_refs(members, refs)
    return _assemble_blocks(_identity_plan(members, {k: (q, None) for k, q in refs.items()}, orientation))


def _identity_plan(members: Sequence[Pda], refs: Mapping, orientation: str) -> list:
    """The one block plan of an identity-base lift: each member unmapped on the diagonal
    ``orientation`` names, and the ``(grid, labels)`` block ``refs[i, j]`` at its (i, j) place."""
    g = len(members)
    rows = range(g) if orientation == "main" else range(g - 1, -1, -1)
    return [[(members[i], None) if i == j else refs[i, j] for j in range(g)] for i in rows]


def nonuniform_lift(
    members: Sequence[Pda], refs: Mapping, orientation: str = "main"
) -> Pda:
    """Lift an identity base by members of possibly different sizes.

    Assembles first, so a malformed reference map is assembly's
    ValueError before anything else is checked.  Then checks the members
    valid and the references, in pair order, valid and label-disjoint from
    the members and the references before them, and validates the result
    once.  Every block is a valid PDA, so a C1 failure is reported as the
    column blocks' star counts, read off the result.  By the equivalence
    between assembly validity and generalized compatibility, a Blackburn
    failure pins down the offending member pair, which is reported.
    Valid, label-disjoint references put both cells of that failure in
    member blocks, so each cell's block column names its member.
    """
    members = _check_members(members)
    result = assemble_identity_lift(members, refs, orientation)
    for i, m in enumerate(members):
        _valid(m, f"member {i}")
    taken = set().union(*(m.labels() for m in members))
    for key in permutations(range(len(members)), 2):
        ref_labels = _valid(refs[key], f"reference {key}").labels()
        overlap = ref_labels & taken
        if overlap:
            raise LiftError(
                f"reference {key} reuses labels {sorted(overlap)}; reference "
                "label sets must be disjoint from each other and from members",
                RefOverlap(key, tuple(sorted(overlap))),
            )
        taken |= ref_labels
    report = validate(result)
    if report.ok:
        return result
    owner = [i for i, m in enumerate(members) for _ in range(m.cols)]  # each column's member
    if not report.c1_ok:
        counts = [result._star_counts[owner.index(i)] for i in range(len(members))]
        raise LiftError(f"per-column-block star counts differ: {counts}; C1 would fail", report)
    # C2 is not checked without an expected label count, so this is C3.
    a, b, mirror = report.violations[0].witness
    raise LiftError(
        f"assembly violates the Blackburn property between members "
        f"{owner[a[1]]} and {owner[b[1]]}: "
        f"cells {a} and {b} share a label but {mirror} is not a star", report
    )


def mn_recursive(k: int, t: int) -> Pda:
    """Build the MN PDA by anti-diagonal identity lifting.

    This is the Shangguan recursion at b = 1: members are the label column
    J and the (K-1, t-1) array sharing label set [C(K-1, t)]; references
    are the (K-1, t) array on fresh labels and an all-star column.
    Reproduces mn(K, t) cell for cell.
    """
    _check_memory_point(k, t)
    return shangguan_recursive(k, t, 1)


def shangguan_recursive(n: int, a: int, b: int) -> Pda:
    """Build the subset-indexed Shangguan PDA by anti-diagonal lifting.

    Base cases: a filled array when min(a, b) = 0, an all-star array when
    a + b = n + 1.  Otherwise each step is the anti-diagonal identity lift by
    ``_identity_plan`` of members U(n-1, a, b-1), U(n-1, a-1, b) on a shared
    label set, with U(n-1, a, b) on fresh labels and an all-star array as
    references (0, 1) and (1, 0).  Reproduces shangguan_direct(n, a, b) cell
    for cell, under the same argument rule and messages.  The steps are built
    one level (one n) at a time, deepest first, so at most two levels are
    alive, and only the result is validated: the label maps are injective,
    so no step's C3 failure hides.
    """
    _check_subset_point(n, a, b)
    built = {}
    for m, level in reversed(_recursion_levels(n, a, b)):
        built = {(x, y): _recursion_step(m, x, y, built) for x, y in level}
    return _checked(built[a, b])


def _recursion_levels(n: int, a: int, b: int) -> list:
    """The distinct steps (a, b) of ``shangguan_recursive(n, a, b)``, base cases included, as one
    ``(n, steps)`` pair per level from n down; ValueError once they pass ``MAX_CELLS`` cells in all."""
    levels, level, cells = [], {(a, b)}, 0
    while level:
        cells += sum(comb(n, x) * comb(n, y) for x, y in level)
        if cells > MAX_CELLS:
            raise ValueError(f"recursion steps would exceed the limit of {MAX_CELLS} cells in all")
        levels.append((n, level))
        level = {s for x, y in level if min(x, y) and x + y != n + 1 for s in ((x, y - 1), (x - 1, y), (x, y))}
        n -= 1
    return levels


def _recursion_step(n: int, a: int, b: int, below: Mapping) -> Pda:
    """U(n, a, b), its sub-arrays read from ``below``, the steps at n - 1."""
    if min(a, b) == 0:
        return filled(comb(n, a), comb(n, b))
    if a + b == n + 1:
        return all_star(comb(n, a), comb(n, b))
    fresh = dict(enumerate(range(comb(n - 1, a + b - 1), comb(n, a + b)))) | {None: None}
    refs = {(0, 1): (below[a, b], fresh), (1, 0): (all_star(comb(n - 1, a - 1), comb(n - 1, b - 1)), None)}
    return _assemble_blocks(_identity_plan([below[a, b - 1], below[a - 1, b]], refs, "anti"))


def odd_tiling_lift(g: int, n: int) -> Pda:
    """The g-regular (gn, gn, n(g-2)+1, n(2n-1)) PDA for odd g.

    Uniform lift of the star-diagonal 2-regular n x n base by the odd
    tiling pair with the diagonal identity reference.
    """
    if _check_kind(n, "n", int) < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    fam = odd_tiling(g)
    return uniform_lift(h_array(n), [fam.p0, fam.p1], fam.pstar).result


class ParamTuple(NamedTuple):
    """Shorthand for a compatible family when arrays are unavailable:
    (K, f)_{Z_member, Z_ref}^{family_size, ref_regularity}.

    ``member_labels`` and ``ref_labels`` carry the label-set sizes the
    parameter calculus needs; they are optional because the bare notation
    omits them.
    """

    k: int
    f: int
    z_member: int
    z_ref: int
    family_size: int
    ref_regularity: int
    member_labels: "int | None" = None
    ref_labels: "int | None" = None

    def notation(self) -> str:
        return (
            f"({self.k},{self.f})_{{{self.z_member},{self.z_ref}}}"
            f"^{{{self.family_size},{self.ref_regularity}}}"
        )


def measure_family(members: Sequence[Pda], pstar: Pda) -> ParamTuple:
    """Read the family tuple off actual arrays: valid members, then a valid reference."""
    members = _check_members(members)
    zs = {_valid(m, f"member {i}")._star_counts[0] for i, m in enumerate(members)}
    if len(zs) != 1:
        raise ValueError(f"members have differing star counts {sorted(zs)}")
    ref = params(_valid(pstar, "reference"))
    return ParamTuple(
        k=pstar.cols,
        f=pstar.rows,
        z_member=zs.pop(),
        z_ref=ref.z,
        family_size=len(members),
        ref_regularity=ref.g if ref.g is not None else 0,
        member_labels=len(members[0].labels()),
        ref_labels=ref.s,
    )


def _exact_div(num: int, den: int, what: str) -> int:
    if den == 0 or num % den:
        raise ValueError(f"inconsistent tuple: {what} ({num} not divisible by {den})")
    return num // den


def _check_base(k: int, f: int, z: int, s: int, g: int) -> None:
    """ValueError unless a (K, f, Z, S) base of regularity g is in the calculus's domain."""
    if not (min(k, f, g) >= 1 and 0 <= z <= f and s >= 0):
        raise ValueError(f"base needs K, f, g >= 1, 0 <= Z <= f and S >= 0, got ({k},{f},{z},{s}) g={g}")


def _label_counts(fam: ParamTuple, what: str = "family") -> tuple:
    lm, lr = _check_kind(fam, what, ParamTuple).member_labels, fam.ref_labels
    if lm is None or lr is None:
        raise ValueError("member and reference label counts are required")
    if not (min(fam.k, fam.f, fam.family_size) >= 1 and min(lm, lr) >= 0
            and all(0 <= z <= fam.f for z in (fam.z_member, fam.z_ref))):
        raise ValueError(f"{what} needs K, f, family_size >= 1, 0 <= Z_member, Z_ref <= f and label counts "
                         f">= 0, got {fam.notation()} member_labels={lm} ref_labels={lr}")
    ref_cells = fam.k * (fam.f - fam.z_ref)
    if lr == 0:
        if ref_cells != 0:
            raise ValueError("inconsistent tuple: reference has cells but no labels")
    elif fam.ref_regularity * lr != ref_cells:
        raise ValueError(
            f"inconsistent tuple: {lr} reference labels at regularity "
            f"{fam.ref_regularity} do not cover {ref_cells} cells"
        )
    return lm, lr


def _lift_counts(k: int, f: int, z: int, s: int, fam: ParamTuple) -> tuple:
    """(K, f, Z, S) of the uniform lift of a (k, f, z, s) array by ``fam``:
    each star takes a reference copy on fresh labels, and each label cell a
    member on the label's shared set."""
    return (k * fam.k, f * fam.f, z * fam.z_ref + (f - z) * fam.z_member,
            k * z * fam.ref_labels + s * fam.member_labels)


def lifted_params(base: PdaParams, fam: ParamTuple) -> PdaParams:
    """Parameters of the uniform lift of a regular base by a family tuple.

    Pure arithmetic, no arrays needed, so prior published family tuples can
    be consumed as opaque inputs.  (K, f, Z, S) are the uniform-lift
    counts, the ones ``lift_family_params`` gives each member, with the
    member and reference label counts the tuple's ``member_labels`` and
    ``ref_labels``.  Member-derived labels appear base.g * (family total
    multiplicity per label) times, computed as base.g * K(f - Z_member) /
    member_labels, which stays exact even for families whose individual
    members are not regular.
    """
    lm, lr = _label_counts(fam)
    if _check_kind(base, "base", PdaParams).g is None:
        raise ValueError("base must be regular for the lifted-parameter calculus")
    _check_base(*base[:5])
    if base.g > fam.family_size:
        raise ValueError(
            f"base regularity {base.g} exceeds family size {fam.family_size}"
        )
    # Regular when the member-derived and the reference-derived labels that
    # occur share one multiplicity.
    regularities = set()
    if base.s > 0 and lm > 0:
        regularities.add(
            _exact_div(base.g * fam.k * (fam.f - fam.z_member), lm, "member regularity")
        )
    if base.z > 0 and lr > 0:
        regularities.add(fam.ref_regularity)
    g = regularities.pop() if len(regularities) == 1 else None
    return _params_of(*_lift_counts(*base[:4], fam), g)


def lift_family_params(p: ParamTuple, q: ParamTuple) -> ParamTuple:
    """Family tuple of lifting family p by family q, label counts included.

    As ``lift_family`` builds the arrays: the members' counts are their
    uniform-lift counts by q (reference q-star on their stars), and the
    reference's are its basic-lift counts, the uniform lift by q's basic
    family (all-star reference, no reference labels).  The new reference
    regularity multiplies by the q-member regularity.
    """
    lm_p, lr_p = _label_counts(p, "p")
    lm_q = _label_counts(q, "q")[0]
    gc_p = _exact_div(p.k * (p.f - p.z_member), lm_p, "p member regularity")
    if gc_p > q.family_size:
        raise ValueError(
            f"p members are {gc_p}-regular but q has only {q.family_size} members"
        )
    gc_q = _exact_div(q.k * (q.f - q.z_member), lm_q, "q member regularity")
    k, f, z_member, member_labels = _lift_counts(p.k, p.f, p.z_member, lm_p, q)
    *_, z_ref, ref_labels = _lift_counts(p.k, p.f, p.z_ref, lr_p, q._replace(z_ref=q.f, ref_labels=0))
    return ParamTuple(k, f, z_member, z_ref, p.family_size, p.ref_regularity * gc_q,
                      member_labels, ref_labels)

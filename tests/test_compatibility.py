import random
from itertools import permutations, product
from math import comb

import pytest

from pdakit.compatibility import (
    CompatWitness,
    GenFamily,
    check_condition_cstar,
    is_blackburn_compatible,
    is_generalized_family,
    is_left_compatible,
    is_right_compatible,
)
from pdakit.constructions import (
    all_star,
    filled,
    h_array,
    identity,
    mn,
    mn_reverse,
    odd_tiling,
    shangguan_direct,
)
from pdakit.core import Pda, hstack, vstack
from pdakit.errors import CompatibilityError
from pdakit.lifting import uniform_lift

from oracles import (
    brute_force_full_ok,
    brute_force_full_witnesses,
    brute_force_left_witnesses,
    brute_force_right_ok,
    brute_force_right_witnesses,
)
from randgen import WIDE_COLS, random_full_triple, random_grid, random_valid_pda


def test_odd_pair_compatible_with_identity():
    fam = odd_tiling(5)
    assert is_blackburn_compatible(fam.p0, fam.p1, fam.pstar).ok


def test_any_pda_self_compatible_wrt_all_star():
    rng = random.Random(3)
    for _ in range(20):
        p = random_valid_pda(rng)
        assert is_blackburn_compatible(p, p, all_star(p.rows, p.cols)).ok


def test_flipped_reference_star_produces_witness():
    fam = odd_tiling(5)
    cells = list(fam.pstar.cells)
    cells[0 * 5 + 3] = 9  # off-diagonal star at (0,3) becomes a label
    broken = Pda(5, 5, tuple(cells))
    report = is_blackburn_compatible(fam.p0, fam.p1, broken)
    assert not report.ok
    w = report.witnesses[0]
    assert w.mirror == (0, 3)
    assert fam.p0.cell(*w.cell0) == fam.p1.cell(*w.cell1) == w.label
    # replaying the witness shows a non-star mirrored cell in the reference
    assert broken.cell(*w.mirror) is not None


def test_full_equals_right_and_left_on_random_triples():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 5)
        p0 = _random_labeled(rng, n, n, pool=range(3))
        p1 = _random_labeled(rng, n, n, pool=range(3))
        q = _random_starmask(rng, n, n)
        full = is_blackburn_compatible(p0, p1, q)
        assert full.ok == (
            is_right_compatible(p0, p1, q).ok and is_left_compatible(p0, p1, q).ok
        )
        assert full.ok == brute_force_full_ok(p0, p1, q)


def test_full_witness_sequence_matches_oracle_on_randgen_triples():
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        p0, p1, pstar = random_full_triple(rng)
        report = is_blackburn_compatible(p0, p1, pstar)
        expected = brute_force_full_witnesses(p0, p1, pstar)
        assert report.witnesses == tuple(CompatWitness(*w) for w in expected)
        assert report.ok == (not expected)
        verdicts[report.ok] += 1
    assert min(verdicts.values()) >= 20


def test_right_and_left_witness_sequences_match_oracle_on_randgen_triples():
    rng = random.Random(43)
    verdicts = {(side, ok): 0 for side in ("right", "left") for ok in (True, False)}
    for _ in range(150):
        p0, p1, ref = random_full_triple(rng)
        for side, check, oracle in (
            ("right", is_right_compatible, brute_force_right_witnesses),
            ("left", is_left_compatible, brute_force_left_witnesses),
        ):
            report = check(p0, p1, ref)
            expected = oracle(p0, p1, ref)
            assert report.witnesses == tuple(CompatWitness(*w) for w in expected)
            assert report.ok == (not expected)
            verdicts[(side, report.ok)] += 1
    assert min(verdicts.values()) >= 20


def test_witness_sequences_match_oracles_on_wide_grids():
    """Shapes up to 130 columns, across the 8- and 64-bit boundaries of the
    reference's star rows; labels repeat in rows and columns."""
    rng = random.Random(22)
    verdicts = {}

    def grid(rows, cols, n_labels):
        return random_grid(rng, n_labels=n_labels, shape=(rows, cols))

    def reference(rows, cols):
        return all_star(rows, cols) if rng.random() < 0.3 else grid(rows, cols, 5)

    for _ in range(25):
        (r0, c0), (r1, c1) = [(rng.randint(1, 2), rng.choice(WIDE_COLS)) for _ in "01"]
        pool = rng.randint(1, 60)
        p0, p1, q1 = grid(r0, c0, pool), grid(r1, c1, pool), grid(r0, c0, pool)
        for side, check, oracle, args in (
            ("right", is_right_compatible, brute_force_right_witnesses, (p0, p1, reference(r0, c1))),
            ("left", is_left_compatible, brute_force_left_witnesses, (p0, p1, reference(r1, c0))),
            ("full", is_blackburn_compatible, brute_force_full_witnesses, (p0, q1, reference(r0, c0))),
        ):
            report, expected = check(*args), oracle(*args)
            assert report.witnesses == tuple(CompatWitness(*w) for w in expected)
            verdicts[side, report.ok] = verdicts.get((side, report.ok), 0) + 1
    assert len(verdicts) == 6 and min(verdicts.values()) >= 5


def test_every_2x2_member_pair_matches_the_oracles_record_for_record():
    """All 6,561 pairs of 2x2 grids over {*, 0, 1} against references with
    all, no and diagonal stars: the exact witness tuple of right, left and
    full compatibility, a tuple of ``CompatWitness`` records."""
    grids = [Pda(2, 2, cells) for cells in product((None, 0, 1), repeat=4)]
    refs = [Pda(2, 2, cells) for cells in ((None,) * 4, (9,) * 4, (None, 9, 9, None))]
    checks = (
        (is_right_compatible, brute_force_right_witnesses),
        (is_left_compatible, brute_force_left_witnesses),
        (is_blackburn_compatible, brute_force_full_witnesses),
    )
    failing = 0
    for p0, p1, ref in product(grids, grids, refs):
        for check, oracle in checks:
            report = check(p0, p1, ref)
            assert report.witnesses == tuple(CompatWitness(*w) for w in oracle(p0, p1, ref))
            assert type(report.witnesses) is tuple
            assert all(type(w) is CompatWitness for w in report.witnesses)
            assert report.ok is not report.witnesses
            failing += not report.ok
    assert 0 < failing < 3 * len(checks) * len(grids) ** 2


def _random_labeled(rng, rows, cols, pool):
    return Pda.from_rows(
        [
            [rng.choice(list(pool)) if rng.random() < 0.4 else None for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def _random_starmask(rng, rows, cols, density=0.6):
    fresh = iter(range(1000, 9999))
    return Pda.from_rows(
        [
            [None if rng.random() < density else next(fresh) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_left_is_right_with_swapped_arguments():
    rng = random.Random(5)
    for _ in range(40):
        m0, n0, m1, n1 = (rng.randint(1, 4) for _ in range(4))
        p0 = _random_labeled(rng, m0, n0, pool=range(2))
        p1 = _random_labeled(rng, m1, n1, pool=range(2))
        q = _random_starmask(rng, m1, n0)
        left = is_left_compatible(p0, p1, q)
        right = is_right_compatible(p1, p0, q)
        assert left.ok == right.ok == brute_force_right_ok(p1, p0, q)
        assert len(left.witnesses) == len(right.witnesses)
        assert left.witnesses == tuple(
            CompatWitness(w.label, w.cell1, w.cell0, w.mirror) for w in right.witnesses
        )


def test_full_shape_checks_name_the_misshaped_array():
    p = mn(4, 2)
    for args, message in [
        ((p, mn(4, 1), p), "second array must be 6x4, got 4x4"),
        ((p, p, all_star(6, 5)), "reference must be 6x4, got 6x5"),
        ((p, mn(4, 1), all_star(6, 5)), "second array must be 6x4, got 4x4"),
    ]:
        with pytest.raises(ValueError) as err:
            is_blackburn_compatible(*args)
        assert str(err.value) == message


def test_left_trivial_wrt_all_star():
    assert is_left_compatible(
        filled(comb(4, 3), 1), mn(4, 2), all_star(comb(4, 2), 1)
    ).ok


def test_shape_checks_raise():
    with pytest.raises(ValueError):
        is_right_compatible(mn(4, 2), mn(4, 2), all_star(2, 2))
    with pytest.raises(ValueError):
        is_blackburn_compatible(identity(3, 0), identity(3, 0), all_star(2, 2))


@pytest.mark.parametrize("k", range(2, 7))
def test_column_and_mn_right_compatible(k):
    for t in range(k):
        j = filled(comb(k, t + 1), 1)
        assert is_right_compatible(j, mn(k, t), mn(k, t + 1)).ok


@pytest.mark.parametrize("n", range(2, 6))
def test_shangguan_right_compatible(n):
    for a in range(1, n):
        for b in range(1, n - a + 1):
            ref = shangguan_direct(n, a, b)
            assert is_right_compatible(
                shangguan_direct(n, a, b - 1), shangguan_direct(n, a - 1, b), ref
            ).ok


@pytest.mark.parametrize("k", range(2, 7))
def test_mn_reverse_and_mn_right_compatible(k):
    for t in range(k - 1):
        assert is_right_compatible(
            mn_reverse(k, t), mn(k, k - t - 2), mn(k, k - t)
        ).ok


def test_worked_generalized_family():
    p0 = vstack([identity(2, 0), identity(2, 1)])
    p1 = hstack([identity(2, 1), identity(2, 0)])
    fam = GenFamily.of([p0, p1], {(0, 1): identity(4, 2), (1, 0): all_star(2, 2)})
    assert is_generalized_family(fam).ok


def test_generalized_family_with_disjoint_labels_and_star_refs():
    members = [filled(2, 2, [0, 1, 2, 3]), filled(3, 1, [4, 5, 6])]
    fam = GenFamily.of(
        members, {(0, 1): all_star(2, 1), (1, 0): all_star(3, 2)}
    )
    assert is_generalized_family(fam).ok


def test_generalized_family_flipped_star_is_witnessed():
    p0 = vstack([identity(2, 0), identity(2, 1)])
    p1 = hstack([identity(2, 1), identity(2, 0)])
    cells = list(identity(4, 2).cells)
    cells[0 * 4 + 2] = 7  # a mirrored star for label 0 becomes a label
    broken = Pda(4, 4, tuple(cells))
    fam = GenFamily.of([p0, p1], {(0, 1): broken, (1, 0): all_star(2, 2)})
    report = is_generalized_family(fam)
    assert not report.ok
    assert report.witnesses[0].pair == (0, 1)
    assert report.witnesses[0].mirror == (0, 2)


def test_generalized_family_witnesses_match_oracle_on_random_3_member_families():
    rng = random.Random(47)
    verdicts = {True: 0, False: 0}
    for _ in range(120):
        shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(3)]
        members = [_random_labeled(rng, rows, cols, pool=range(3)) for rows, cols in shapes]
        density = rng.uniform(0.7, 1.0)
        refs = {
            (i, j): _random_starmask(rng, shapes[i][0], shapes[j][1], density)
            for i, j in permutations(range(3), 2)
        }
        report = is_generalized_family(GenFamily.of(members, refs))
        expected = tuple(
            (*w, (i, j))
            for i, j in permutations(range(3), 2)
            for w in brute_force_right_witnesses(members[i], members[j], refs[(i, j)])
        )
        assert report.witnesses == expected
        assert all(type(w) is CompatWitness for w in report.witnesses)
        assert report.ok == (not expected)
        verdicts[report.ok] += 1
    assert min(verdicts.values()) >= 20


def test_generalized_family_missing_ref():
    fam = GenFamily.of([identity(2, 0), identity(2, 1)], {(0, 1): all_star(2, 2)})
    with pytest.raises(ValueError):
        is_generalized_family(fam)


_WORKED_P1 = hstack([identity(2, 1), identity(2, 0)])


@pytest.mark.parametrize(
    "p1, key, ref, message",
    [
        (_WORKED_P1, "x", identity(2, 9), "unexpected reference key 'x': keys are pairs (i,j) "
         "of distinct member indices below 2"),
        (_WORKED_P1, (1, 0), None, "missing reference for pair (1,0)"),
        (_WORKED_P1, (1, 0), [[None]], "reference (1,0) must be a Pda, got list"),
        (None, (1, 0), all_star(2, 2), "member 1 must be a Pda, got NoneType"),
        ([[None]], (1, 0), all_star(2, 2), "member 1 must be a Pda, got list"),
    ],
    ids=["mixed-key", "none-ref", "list-ref", "none-member", "list-member"],
)
def test_generalized_family_malformed_refs_are_value_errors(p1, key, ref, message):
    """A malformed reference map, or a second member that is not a Pda."""
    p0 = vstack([identity(2, 0), identity(2, 1)])
    refs = {(0, 1): identity(4, 2), (1, 0): all_star(2, 2), key: ref}
    fam = GenFamily.of([p0, p1], refs)
    with pytest.raises(ValueError) as err:
        is_generalized_family(fam)
    assert (type(err.value), str(err.value)) == (ValueError, message)


def test_cstar_diagonal_star_reference_passes():
    members = [h_array(3, [0, 1, 2]), h_array(3, [2, 0, 1])]
    assert check_condition_cstar(members, h_array(3, [7, 8, 9])).ok
    assert check_condition_cstar(members, all_star(3, 3)).ok


def test_cstar_label_on_member_star_position_fails():
    members = [h_array(3, [0, 1, 2])]
    report = check_condition_cstar(members, identity(3, 9))
    assert not report.ok
    assert report.witnesses[0].mirror == (0, 0)


def test_cstar_vacuous_without_stars():
    assert check_condition_cstar([filled(2, 2)], filled(2, 2, range(4, 8))).ok


def test_cstar_rejects_differing_star_positions():
    fam = odd_tiling(3)
    with pytest.raises(ValueError) as err:
        check_condition_cstar([fam.p0, fam.p1], fam.pstar)
    assert str(err.value) == (
        "members 0 and 1 differ in star positions; coordinated family lifting does not apply"
    )


def test_witness_is_an_immutable_named_tuple():
    bare = CompatWitness(3, (0, 1), (1, 0), (0, 0))
    paired = CompatWitness(3, (0, 1), (1, 0), (0, 0), (0, 2))
    assert repr(bare) == (
        "CompatWitness(label=3, cell0=(0, 1), cell1=(1, 0), mirror=(0, 0), pair=None)"
    )
    assert repr(paired) == (
        "CompatWitness(label=3, cell0=(0, 1), cell1=(1, 0), mirror=(0, 0), pair=(0, 2))"
    )
    for w in (bare, paired):
        assert hash(w) == hash((w.label, w.cell0, w.cell1, w.mirror, w.pair))
        label, cell0, cell1, mirror, pair = w
        assert w == (label, cell0, cell1, mirror, pair)
        with pytest.raises(AttributeError):
            w.label = 4
        with pytest.raises(AttributeError):
            w.pair = (1, 0)


def test_lift_error_quotes_the_first_witness():
    fam = odd_tiling(5)
    with pytest.raises(CompatibilityError) as err:
        uniform_lift(h_array(2), [fam.p0, fam.p1], filled(5, 5, range(100, 125)))
    assert str(err.value) == (
        "members 0 and 1 are not Blackburn-compatible with the reference; first witness "
        "CompatWitness(label=0, cell0=(0, 0), cell1=(2, 4), mirror=(0, 4), pair=None)"
    )

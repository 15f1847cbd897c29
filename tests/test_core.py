import random
import tracemalloc
from enum import IntEnum
from itertools import product

import pytest

from pdakit.compatibility import check_condition_cstar
from pdakit.constructions import (
    all_star,
    filled,
    g_array,
    identity,
    mn,
    mn_reverse,
    shangguan_direct,
    yan_half_memory,
)
import pdakit.core
from pdakit.core import (
    Pda,
    Violation,
    canonicalize,
    disjoint_copy,
    hstack,
    params,
    relabel,
    validate,
    vstack,
)
from pdakit.errors import GridParseError, InvalidPdaError
from pdakit.gridio import parse_grid, serialize_grid
from pdakit.lifting import assemble_identity_lift, odd_tiling_lift, shangguan_recursive

import printed
from oracles import brute_force_assemble, brute_force_first_c3, brute_force_star_counts, brute_force_star_rows
from randgen import WIDE_COLS, random_full_triple, random_gen_family, random_grid, random_valid_pda
from test_gridio import _loop_outcome, _mutate, _outcome


def test_grid_must_be_rectangular():
    with pytest.raises(ValueError):
        Pda(2, 2, (None, 0, 1))
    with pytest.raises(ValueError):
        Pda.from_rows([[0, 1], [2]])
    with pytest.raises(ValueError):
        Pda(1, 1, (-3,))


def test_validate_identity_passes():
    report = validate(identity(3, 1))
    assert report.ok
    assert identity(3, 1).column_star_count(0) == 2


@pytest.mark.parametrize(
    "method, args, message",
    [
        ("cell", (0, 4), "column 4 is out of range for a 6x4 grid"),
        ("cell", (6, 0), "row 6 is out of range for a 6x4 grid"),
        ("cell", (-1, 0), "row -1 is out of range for a 6x4 grid"),
        ("cell", (0, -1), "column -1 is out of range for a 6x4 grid"),
        ("row", (6,), "row 6 is out of range for a 6x4 grid"),
        ("row", (-1,), "row -1 is out of range for a 6x4 grid"),
        ("column", (4,), "column 4 is out of range for a 6x4 grid"),
        ("column", (-1,), "column -1 is out of range for a 6x4 grid"),
        ("column_star_count", (-1,), "column -1 is out of range for a 6x4 grid"),
        ("column_star_count", (5,), "column 5 is out of range for a 6x4 grid"),
    ],
)
def test_accessors_reject_out_of_range_indices(method, args, message):
    p = mn(4, 2)
    with pytest.raises(ValueError) as info:
        getattr(p, method)(*args)
    assert str(info.value) == message


def test_accessors_in_range():
    p = mn(4, 2)
    assert [p.column_star_count(k) for k in range(4)] == [3, 3, 3, 3]
    assert p.cell(5, 3) == p.cells[-1] and p.cell(1, 0) == p.cells[4]
    assert p.row(5) == p.cells[20:] and p.column(3) == p.cells[3::4]


def test_validate_all_star_passes_with_no_labels():
    p = all_star(2, 3)
    assert validate(p).ok
    assert p.labels() == frozenset()


def test_validate_catches_blackburn_violation_with_witness():
    # filled 2x3 with cell (1,0) changed from 3 to 0: two 0s share a column
    p = Pda.from_rows([[0, 1, 2], [0, 4, 5]])
    report = validate(p)
    assert not report.c3_ok and report.c1_ok
    (violation,) = [v for v in report.violations if v.condition == "C3"]
    assert violation.witness[0] == (0, 0)
    assert violation.witness[1] == (1, 0)
    assert p.cell(*violation.witness[2]) is not None


def test_validate_catches_unbalanced_columns():
    p = Pda.from_rows([[None, 0], [1, 2]])
    report = validate(p)
    assert not report.c1_ok
    (violation,) = [v for v in report.violations if v.condition == "C1"]
    assert violation.witness == (1, 0, 1)


def test_validate_declared_label_count():
    p = identity(3, 0)
    assert validate(p, expected_labels=1).ok
    report = validate(p, expected_labels=2)
    assert not report.c2_ok
    assert report.violations[0].witness == (1,)


def test_report_flags_read_off_its_violations():
    # Valid arrays and their one-cell corruptions; a declared label count of
    # S, S + 1 or S + 2 puts C2 in play.
    rng = random.Random(2026)
    failed = {"C1": 0, "C2": 0, "C3": 0}
    for _ in range(400):
        p = random_valid_pda(rng, max_cells=120)
        if rng.random() < 0.8:
            cells = list(p.cells)
            cells[rng.randrange(len(cells))] = rng.choice([None, 0, 1, 99, *sorted(p.labels())])
            p = Pda(p.rows, p.cols, tuple(cells))
        report = validate(p, len(p.labels()) + rng.randrange(3))
        conditions = [v.condition for v in report.violations]
        assert conditions == sorted(set(conditions))  # at most one each, in order
        flags = (report.c1_ok, report.c2_ok, report.c3_ok)
        assert flags == tuple(c not in conditions for c in ("C1", "C2", "C3"))
        assert report.ok == (not report.violations)
        for c in conditions:
            failed[c] += 1
    assert min(failed.values()) > 20, failed


def test_params_mn_4_2():
    info = params(mn(4, 2))
    assert (info.k, info.f, info.z, info.s, info.g) == (4, 6, 3, 4, 3)
    assert info.memory_ratio == 0.5 and info.memory_ratio.denominator == 2
    assert info.rate.numerator == 2 and info.rate.denominator == 3


def test_params_all_star():
    info = params(all_star(2, 3))
    assert (info.k, info.f, info.z, info.s) == (3, 2, 2, 0)
    assert info.memory_ratio == 1 and info.rate == 0


def test_params_ten_by_ten_example():
    info = params(parse_grid(printed.ODD_LIFT_10X10_G5_N2))
    assert (info.k, info.f, info.z, info.s, info.g) == (10, 10, 7, 6, 5)
    assert info.memory_ratio.numerator == 7 and info.memory_ratio.denominator == 10
    assert info.rate.numerator == 3 and info.rate.denominator == 5


def test_params_rejects_invalid():
    with pytest.raises(InvalidPdaError):
        params(Pda.from_rows([[0, 1, 2], [0, 4, 5]]))


def test_relabel_identity_and_shift():
    assert relabel(identity(3, 1), {1: 7}) == identity(3, 7)
    shifted = relabel(filled(2, 3), {i: i + 10 for i in range(6)})
    assert shifted == filled(2, 3, range(10, 16))


def test_relabel_rejects_bad_mappings():
    p = filled(1, 3)
    with pytest.raises(ValueError):
        relabel(p, {0: 5, 1: 6})
    with pytest.raises(ValueError):
        relabel(p, {0: 5, 1: 5, 2: 6})


def test_relabel_refuses_a_label_sent_to_a_star():
    for p, mapping, message in [
        (identity(3), {0: None}, "mapping sends label 0 to None, a star"),
        (mn(3, 1), {0: None, 1: 5, 2: 6}, "mapping sends label 0 to None, a star"),
        (mn(3, 1), {0: 4, 1: 5, 2: None}, "mapping sends label 2 to None, a star"),
        (mn(3, 1), {0: None}, "mapping does not cover labels [1, 2]"),  # cover first,
        (mn(3, 1), {0: None, 1: None, 2: 6}, "mapping is not injective on the present labels"),
    ]:
        with pytest.raises(ValueError) as err:
            relabel(p, mapping)
        assert (type(err.value), str(err.value)) == (ValueError, message)


def test_relabel_round_trip_on_random_pdas():
    rng = random.Random(20240)
    for _ in range(100):
        p = random_valid_pda(rng)
        labels = sorted(p.labels())
        images = rng.sample(range(200), len(labels))
        fwd = dict(zip(labels, images))
        back = {v: k for k, v in fwd.items()}
        q = relabel(p, fwd)
        assert relabel(q, back) == p
        assert params(q) == params(p)


def test_canonicalize_first_appearance_and_idempotence():
    p = Pda.from_rows([[None, 5], [5, None]])
    assert canonicalize(p) == Pda.from_rows([[None, 0], [0, None]])
    q = canonicalize(mn(4, 2, labels=[30, 10, 20, 40]))
    assert canonicalize(q) == q
    assert len(q.labels()) == 4


def test_canonical_forms_agree_across_relabelings():
    rng = random.Random(7)
    for _ in range(50):
        p = random_valid_pda(rng)
        labels = sorted(p.labels())
        m1 = dict(zip(labels, rng.sample(range(300), len(labels))))
        m2 = dict(zip(labels, rng.sample(range(300), len(labels))))
        assert canonicalize(relabel(p, m1)) == canonicalize(relabel(p, m2))


def test_canonicalize_is_idempotent_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.randoms(use_true_random=False), st.booleans())
    def check(rng, valid):
        p = random_valid_pda(rng) if valid else random_grid(rng, n_labels=rng.randint(1, 12))
        once = canonicalize(p)
        assert canonicalize(once) == once
        assert once.labels() == frozenset(range(len(p.labels())))

    check()


def test_disjoint_copy():
    assert disjoint_copy(identity(3, 0), 4) == identity(3, 4)
    p = mn(4, 2)
    assert disjoint_copy(p, 0) == p
    other = disjoint_copy(p, len(p.labels()))
    assert not (p.labels() & other.labels())
    assert params(other) == params(p)
    with pytest.raises(ValueError):
        disjoint_copy(identity(3, 5), 1)
    rng = random.Random(13)
    for _ in range(40):
        p = canonicalize(random_valid_pda(rng))
        for k in (0, 1, 37):
            assert disjoint_copy(p, k) == relabel(p, {s: s + k for s in p.labels()})


def _random_block_grid(rng) -> list:
    """Block rows of random heights and block columns of random widths from
    1 (1x1, 1-row and 1-column blocks), each block copied unchanged or mapped
    through a label map, some of them shared between blocks."""
    heights = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    widths = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    shared = dict(enumerate(rng.sample(range(1000), 6))) | {None: None}
    blocks = []
    for h in heights:
        block_row = []
        for w in widths:
            q = random_grid(rng, n_labels=6, shape=(h, w))
            labels = rng.choice((None, shared, "own"))
            if labels == "own":
                labels = dict(zip(q.labels(), rng.sample(range(1000), len(q.labels())))) | {None: None}
            block_row.append((q, labels))
        blocks.append(block_row)
    return blocks


def test_assemble_blocks_places_every_cell_as_the_oracle_does():
    rng = random.Random(33_2026)
    for _ in range(600):
        blocks = _random_block_grid(rng)
        assert pdakit.core._assemble_blocks(blocks) == brute_force_assemble(blocks)
    one = [[(Pda(1, 1, (3,)), {3: 8, None: None})]]
    assert pdakit.core._assemble_blocks(one) == Pda(1, 1, (8,))


def test_gather_of_fewer_than_two_keys_is_still_a_tuple():
    gather = pdakit.core._gather
    assert (gather({}, ()), gather({0: "17"}, (0,))) == ((), ("17",))
    assert gather({0: "a", 1: "b"}, (1, 0)) == ("b", "a")


def test_stacking_shape_checks():
    with pytest.raises(ValueError) as err:
        hstack([identity(2, 0), identity(3, 0)])
    assert (type(err.value), str(err.value)) == (ValueError, "hstack needs equal row counts")
    with pytest.raises(ValueError) as err:
        vstack([all_star(2, 2), all_star(2, 3)])
    assert (type(err.value), str(err.value)) == (ValueError, "vstack needs equal column counts")
    assert hstack([identity(2, 0)]) == identity(2, 0)


def test_list_cells_are_coerced_to_a_tuple():
    cells = [0, 1]
    p = Pda(1, 2, cells)
    assert isinstance(p.cells, tuple)
    assert p == Pda(1, 2, (0, 1))
    assert hash(p) == hash(Pda(1, 2, (0, 1)))
    cells[1] = 0  # would repeat label 0 in one row if the grid shared the list
    assert validate(p).ok
    assert params(p).s == 2


def test_rows_and_cols_must_be_plain_ints():
    for rows, cols in ((1.5, 2), (2, 1.5), (1.0, 3), (3, 1.0), (True, 3), (3, True), ("3", 1)):
        with pytest.raises(ValueError, match="rows and cols must be int"):
            Pda(rows, cols, (None, 0, 0))


def test_cell_type_check_keeps_its_message():
    for bad in (True, -1, 1.0, "1"):
        with pytest.raises(ValueError, match="cells must be None or non-negative int"):
            Pda(1, 2, (0, bad))


def _c3_violation(report):
    return next((v for v in report.violations if v.condition == "C3"), None)


def _oracle_violation(p):
    witness = brute_force_first_c3(p)
    return None if witness is None else Violation("C3", witness)


def _criterion_8_mutations():
    """The one-cell mutations of test_criterion_8_oracle_equivalence."""
    rng = random.Random(8_2025)
    for _ in range(40):
        p = random_valid_pda(rng, max_cells=120)
        index = p.label_positions()
        if not index:
            continue
        cells = list(p.cells)
        pos = rng.randrange(len(cells))
        cells[pos] = rng.choice(sorted(index))
        yield Pda(p.rows, p.cols, tuple(cells))


def test_c3_witness_matches_row_major_oracle():
    failing = 0
    for q in _criterion_8_mutations():
        want = _oracle_violation(q)
        assert _c3_violation(validate(q)) == want
        failing += want is not None
    rng = random.Random(31)
    for _ in range(300):
        q = random_grid(rng)
        want = _oracle_violation(q)
        assert _c3_violation(validate(q)) == want
        failing += want is not None
    assert failing > 100


def test_c3_witness_matches_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.randoms(use_true_random=False), st.integers(0, 3))
    def check(rng, mutations):
        if mutations:
            p = random_valid_pda(rng, max_cells=120)
            cells = list(p.cells)
            for _ in range(mutations):
                cells[rng.randrange(len(cells))] = rng.choice([None, 0, 1, 2, 99])
            p = Pda(p.rows, p.cols, tuple(cells))
        else:
            p = random_grid(rng)
        assert _c3_violation(validate(p)) == _oracle_violation(p)
        positions: dict = {}
        for j in range(p.rows):
            for k in range(p.cols):
                if p.cell(j, k) is not None:
                    positions.setdefault(p.cell(j, k), []).append((j, k))
        assert p.label_positions() == positions
        assert list(p.label_positions()) == list(positions)
        assert p.labels() == frozenset(positions)

    check()


def test_c3_and_star_rows_match_oracles_on_wide_grids():
    rng = random.Random(22)
    verdicts = {True: 0, False: 0}
    grids = [random_grid(rng, n_labels=rng.randint(1, 150), shape=(rng.randint(1, 3), rng.choice(WIDE_COLS)))
             for _ in range(70)]
    for n in (3, 22, 43):  # valid 3 x 3n arrays whose labels pass by the count alone
        p = hstack([identity(3, s) for s in range(n)])
        cells = list(p.cells)
        cells[3 * n - 1] = rng.randrange(n)  # a second copy of one label at the last column
        grids += [p, Pda(3, 3 * n, tuple(cells))]
    for p in grids:
        assert p._star_rows == tuple(
            sum(1 << k for k in range(p.cols) if p.cell(j, k) is None) for j in range(p.rows)
        )
        want = _oracle_violation(p)
        assert _c3_violation(validate(p)) == want
        verdicts[want is None] += 1
    assert min(verdicts.values()) >= 15


@pytest.mark.parametrize(
    "shape, witness",
    [((1, 50_000), ((0, 0), (0, 1), (0, 1))), ((50_000, 1), ((0, 0), (1, 0), (0, 0)))],
    ids=["row", "column"],
)
def test_c3_stops_at_the_first_failing_pair_of_one_long_label(shape, witness):
    # Walking every pair of the one label would take about 10^9 steps.
    p = Pda(*shape, (0,) * 50_000)
    assert _c3_violation(validate(p)) == Violation("C3", witness)


@pytest.mark.parametrize("shape", [(1, 50_000), (50_000, 1)], ids=["row", "column"])
def test_c3_on_one_long_label_builds_cells_only_for_the_pairs_it_walks(shape):
    # Converting the label's whole position list to (row, col) pairs peaks near 4.8 MB.
    p = Pda(*shape, (0,) * 50_000)
    p._label_index, p._star_rows  # cached first, so only the scan is traced
    tracemalloc.start()
    try:
        pdakit.core._first_blackburn_violation(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_params_after_validate_does_not_rescan(monkeypatch):
    calls = []
    scan = pdakit.core._first_blackburn_violation

    def counted(p):
        calls.append(p)
        return scan(p)

    monkeypatch.setattr(pdakit.core, "_first_blackburn_violation", counted)
    p = mn(5, 2)
    assert validate(p).ok
    assert params(p) == params(mn(5, 2))
    validate(p, expected_labels=10)
    assert len(calls) == 2  # p once, the fresh mn(5, 2) once


def test_star_counts_and_labels_do_not_build_the_index():
    p = mn(5, 2)
    assert p.column_star_count(0) == 4
    assert len(p.labels()) == 10
    assert "_label_index" not in vars(p)


def test_column_star_count_builds_the_star_flags_but_not_the_index():
    p = Pda(2, 3, (None, 0, 1, 2, None, None))
    assert p.column_star_count(2) == 1
    assert p._star_flags == bytearray((1, 0, 0, 0, 1, 1))
    assert "_label_index" not in vars(p)


def test_every_3x3_grid_over_two_labels_matches_the_oracles():
    failing = 0
    for cells in product((None, 0, 1), repeat=9):
        p = Pda(3, 3, cells)
        assert p._star_counts == brute_force_star_counts(p)
        assert p._star_rows == brute_force_star_rows(p)
        report, want = validate(p), _oracle_violation(p)
        assert report.c3_ok is (want is None)
        assert _c3_violation(report) == want
        failing += want is not None
    assert 0 < failing < 3 ** 9


# ------------------------------------------ grids built without a cell check

def _recording_unchecked(monkeypatch) -> list:
    """A list that gains every grid built through ``Pda._of`` from now on."""
    made, of = [], Pda._of.__func__

    def recording(cls, *args):
        made.append(of(cls, *args))
        return made[-1]

    monkeypatch.setattr(Pda, "_of", classmethod(recording))
    return made


def _assert_checked_rebuild_agrees(grids) -> None:
    for q in grids:
        assert type(q.cells) is tuple
        assert Pda(q.rows, q.cols, q.cells) == q


def test_unchecked_grids_pass_the_full_cell_check(monkeypatch):
    made = _recording_unchecked(monkeypatch)
    rng = random.Random(31_2026)
    by_loop = 0
    for _ in range(2_000):  # both readers on the mutated grid-text corpus
        p = random_grid(rng, n_labels=rng.choice((3, 150, 20_000)))
        text = serialize_grid(p, header=rng.random() < 0.5)
        for _ in range(rng.randrange(4)):
            text = _mutate(text, p.rows, p.cols, rng)
        read, before = _outcome(text), len(made)
        assert _loop_outcome(text) == read
        by_loop += len(made) - before
    assert min(by_loop, len(made) - by_loop) > 900
    _assert_checked_rebuild_agrees(made)

    made.clear()  # assembled lifts and stacks, and relabels
    for _ in range(150):
        random_valid_pda(rng)
        random_full_triple(rng)
        fam = random_gen_family(rng)
        for orientation in ("main", "anti"):
            assemble_identity_lift(fam.members, fam.refs, orientation)
        q = random_grid(rng, n_labels=rng.randint(1, 12))
        labels = sorted(q.labels())
        relabel(q, dict(zip(labels, rng.sample(range(1 << 40), len(labels)))))
        disjoint_copy(canonicalize(q), rng.randrange(100))
        hstack([q, q])
        vstack([q, q])
    made += [odd_tiling_lift(5, 3), shangguan_recursive(6, 2, 2)]
    assert len(made) > 1_000
    _assert_checked_rebuild_agrees(made)

    made.clear()  # the constructions that build their own cells
    built = [mn_reverse(7, 3), mn_reverse(5, 2, range(40, 50)), shangguan_direct(6, 2, 2),
             shangguan_direct(5, 1, 2, range(19, -1, -2)), g_array(6), g_array(4, [9, 7, 5, 3, 1, 0]),
             yan_half_memory(5)]
    assert all(any(q is r for r in made) for q in built)
    _assert_checked_rebuild_agrees(made)


class _Label(IntEnum):
    THREE = 3


@pytest.mark.parametrize(
    "mapping, message",
    [
        ({0: 2, 1: -1}, "got -1"),
        ({0: True, 1: 2}, "got True"),
        ({0: 2, 1: 1.5}, "got 1.5"),
        ({0: -1, 1: 1.5}, "got 1.5"),  # label 1 comes first in row-major order
        ({0: 1.5, 1: True}, "got True"),
    ],
)
def test_relabel_names_the_first_bad_image_in_row_major_order(mapping, message):
    with pytest.raises(ValueError) as err:
        relabel(Pda(1, 3, (None, 1, 0)), mapping)
    assert str(err.value) == "cells must be None or non-negative int, " + message


def test_relabel_accepts_an_int_enum_image():
    q = relabel(Pda(1, 3, (None, 1, 0)), {0: _Label.THREE, 1: 4})
    assert q == Pda(1, 3, (None, 4, 3))
    assert type(q.cell(0, 2)) is _Label


@pytest.mark.parametrize(
    "build",
    [lambda labels: relabel(Pda(1, 3, (None, 1, 0)), dict(enumerate(labels))),
     lambda labels: shangguan_direct(2, 1, 0, labels)],
    ids=["relabel", "shangguan_direct"],
)
def test_relabel_and_shangguan_direct_share_one_rule_for_proven_labels(monkeypatch, build):
    made = _recording_unchecked(monkeypatch)
    q = build([4, 3])  # plain non-negative ints: no check per cell
    assert len(made) == 1 and made[0] is q
    made.clear()
    q = build([4, _Label.THREE])  # any other label goes through Pda(...)
    assert made == [] and _Label in map(type, q.cells)
    with pytest.raises(ValueError) as err:
        build([4, -1])
    assert str(err.value) == "cells must be None or non-negative int, got -1"


def test_unreached_error_paths_keep_type_and_message():
    p = mn(4, 2)
    for call, kind, message in [
        (lambda: check_condition_cstar([], p), ValueError, "need at least one member"),
        (
            lambda: check_condition_cstar([p, mn(4, 1)], p),
            ValueError,
            "member 1 must be 6x4, got 4x4",
        ),
        (lambda: identity(0), ValueError, "n must be at least 1"),
        (lambda: Pda(0, 1, ()), ValueError, "grid must be at least 1x1, got 0x1"),
        (lambda: Pda.from_rows([]), ValueError, "grid must have at least one row"),
        (lambda: disjoint_copy(p, -1), ValueError, "offset must be non-negative"),
        (lambda: hstack([]), ValueError, "need at least one part"),
        (lambda: vstack([]), ValueError, "need at least one part"),
        (
            lambda: parse_grid("0 *\n# pda f=1 K=2\n"),
            GridParseError,
            "unexpected comment line at (2,1)",
        ),
    ]:
        with pytest.raises(kind) as err:
            call()
        assert (type(err.value), str(err.value)) == (kind, message)

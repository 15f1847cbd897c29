import random
from math import comb

import pytest

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
import pdakit.core
from pdakit.core import Pda, hstack, params, relabel, validate, vstack
from pdakit.gridio import parse_grid
from pdakit.lifting import basic_lift, mn_recursive, shangguan_recursive

import printed
from oracles import (
    brute_force_full_ok,
    oracle_mn,
    oracle_mn_reverse,
    oracle_odd_tiling_p1,
    oracle_shangguan,
)


def test_identity_printed_forms():
    assert identity(3, 1) == parse_grid(printed.IDENTITY_3_1)
    assert identity(3, 0, anti=True) == parse_grid(printed.ANTI_IDENTITY_3_0)
    assert identity(1, 5) == Pda.from_rows([[5]])
    assert params(identity(1, 5)).z == 0


@pytest.mark.parametrize("n", range(1, 33))
@pytest.mark.parametrize("anti", [False, True])
def test_identity_sweep(n, anti):
    info = params(identity(n, 3, anti))
    assert (info.k, info.f, info.z, info.s) == (n, n, n - 1, 1)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("s", [0, 7, None])
def test_identity_is_mn_at_t_k_minus_one(n, s):
    assert identity(n, s, anti=True) == mn(n, n - 1, [s])
    assert identity(n, s) == mn_reverse(n, n - 1, [s])
    for anti in (False, True):
        p = identity(n, s, anti)
        assert [(j, k) for j in range(n) for k in range(n) if p.cell(j, k) is not None] == (
            [] if s is None else [(j, n - 1 - j if anti else j) for j in range(n)]
        )


def test_h_array_printed_form():
    assert h_array(3, [0, 1, 2]) == Pda.from_rows(
        [[None, 0, 1], [0, None, 2], [1, 2, None]]
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_h_array_is_mn_with_one_star_per_row(n):
    assert h_array(n) == oracle_mn(n, 1)
    labels = list(range(50, 50 + n * (n - 1) // 2))
    random.Random(n).shuffle(labels)
    assert h_array(n, labels) == oracle_mn(n, 1, labels)


def test_g_array_two_by_two():
    assert g_array(2, [0]) == Pda.from_rows([[0, None], [None, 0]])


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("maker", [g_array, h_array])
def test_g_h_sweep_two_regular(n, maker):
    info = params(maker(n))
    assert (info.k, info.f, info.z, info.s, info.g) == (n, n, 1, n * (n - 1) // 2, 2)


def test_g_array_matches_pictured_corners():
    # first row holds the first n-1 labels, last row reverses them
    p = g_array(4)
    assert p.row(0) == (0, 1, 2, None)
    assert p.row(3) == (None, 5, 3, 0)


@pytest.mark.parametrize("explicit", [False, True], ids=["default", "reversed"])
def test_g_array_mirrors_each_label_across_the_star_anti_diagonal(explicit):
    for n in range(1, 31):
        want = list(range(n * (n - 1) // 2))
        if explicit:
            want = [100 + s for s in reversed(want)]
        p = g_array(n, want if explicit else None)
        for i in range(n):
            for j in range(n):
                assert (p.cell(i, j) is None) == (i + j == n - 1), (n, i, j)
                assert p.cell(i, j) == p.cell(n - 1 - j, n - 1 - i), (n, i, j)
        positions = p.label_positions()
        assert list(positions) == want  # row-major order of first appearance
        assert {len(cells) for cells in positions.values()} <= {2}


def test_filled_printed_and_errors():
    assert filled(2, 3) == parse_grid(printed.FILLED_2X3)
    assert filled(1, 1, [7]) == Pda.from_rows([[7]])
    with pytest.raises(ValueError):
        filled(2, 2, [0, 1, 2])
    with pytest.raises(ValueError):
        filled(2, 2, [0, 1, 1, 2])


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("n", range(1, 9))
def test_filled_sweep(m, n):
    info = params(filled(m, n))
    assert (info.z, info.g) == (0, 1)


def test_all_star_params():
    info = params(all_star(2, 3))
    assert (info.k, info.f, info.z, info.s) == (3, 2, 2, 0)


def test_mn_printed_forms():
    assert mn(4, 2) == parse_grid(printed.MN_4_2)
    assert mn_reverse(4, 2) == parse_grid(printed.MN_REVERSE_4_2)
    assert mn(2, 1) == parse_grid(printed.MN_2_1)


def test_mn_edge_cases():
    assert mn(4, 0) == filled(1, 4)
    assert mn(4, 4) == all_star(1, 4)
    assert mn_reverse(4, 4) == all_star(1, 4)


@pytest.mark.parametrize("k", range(1, 11))
def test_mn_sweep(k):
    for t in range(k + 1):
        for maker in (mn, mn_reverse):
            info = params(maker(k, t))
            assert (info.k, info.f, info.z, info.s) == (
                k,
                comb(k, t),
                comb(k - 1, t - 1) if t else 0,
                comb(k, t + 1),
            )
            if t < k:
                assert info.g == t + 1


def test_shangguan_printed_forms():
    assert shangguan_direct(4, 2, 1) == parse_grid(printed.SHANGGUAN_4_2_1)
    assert shangguan_direct(4, 1, 2) == parse_grid(printed.SHANGGUAN_4_1_2)
    assert shangguan_direct(4, 2, 2) == parse_grid(printed.SHANGGUAN_4_2_2)


@pytest.mark.parametrize("n", range(1, 9))
def test_shangguan_sweep_parameters(n):
    for a in range(n + 1):
        for b in range(n - a + 1):
            info = params(shangguan_direct(n, a, b))
            assert (info.k, info.f, info.z, info.s) == (
                comb(n, b),
                comb(n, a),
                comb(n, a) - comb(n - b, a),
                comb(n, a + b),
            )
            if info.s:
                assert info.g == comb(a + b, a)


def test_shangguan_b1_equals_mn():
    for n in range(1, 9):
        for a in range(n):
            assert shangguan_direct(n, a, 1) == mn(n, a)


def test_shangguan_rejects_overfull():
    with pytest.raises(ValueError):
        shangguan_direct(4, 3, 3)


def _default_and_reversed_labels(count):
    return (None, [100 + s for s in reversed(range(count))])


@pytest.mark.parametrize("k", range(1, 9))
def test_subset_constructions_match_set_based_oracle(k):
    for t in range(k + 1):
        for labels in _default_and_reversed_labels(comb(k, t + 1)):
            assert mn(k, t, labels) == oracle_mn(k, t, labels)
            assert mn_reverse(k, t, labels) == oracle_mn_reverse(k, t, labels)
    for a in range(k + 1):
        for b in range(k - a + 1):
            for labels in _default_and_reversed_labels(comb(k, a + b)):
                assert shangguan_direct(k, a, b, labels) == oracle_shangguan(k, a, b, labels)


def test_no_construction_builds_more_than_max_cells(monkeypatch):
    monkeypatch.setattr(pdakit.core, "MAX_CELLS", 11)
    # At the limit, and every part of the arrays refused below, builds.
    assert filled(1, 11).shape == (1, 11) and all_star(11, 1).shape == (11, 1)
    assert mn(3, 1) == mn_recursive(3, 1) and params(yan_half_memory(2)).k == 4
    for call in (
        lambda: mn(4, 2),
        lambda: mn_reverse(4, 2),
        lambda: h_array(4),
        lambda: g_array(4),
        lambda: identity(4),
        lambda: shangguan_direct(4, 1, 2),
        lambda: filled(3, 4),
        lambda: all_star(4, 3),
        lambda: mn_recursive(4, 2),
        lambda: shangguan_recursive(4, 1, 2),
        lambda: hstack([all_star(2, 3)] * 2),
        lambda: vstack([filled(1, 3)] * 4),
        lambda: yan_half_memory(3),
        lambda: basic_lift(h_array(2), h_array(3)),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "grid would exceed the limit of 11 cells"


def test_huge_orders_are_refused_before_their_counts_are_computed(monkeypatch):
    # C(10^7, 5 * 10^6) has millions of digits; each call must be refused
    # by its size alone, long before such a count could be computed.
    for call in (
        lambda: mn(10**7, 5 * 10**6),
        lambda: mn_reverse(10**7, 5 * 10**6),
        lambda: mn_reverse(10**7, 5 * 10**6, [0]),
        lambda: shangguan_direct(10**7, 25 * 10**5, 25 * 10**5),
        lambda: mn_recursive(10**7, 5 * 10**6),
        lambda: shangguan_recursive(10**7, 25 * 10**5, 25 * 10**5),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "grid would exceed the limit of 16777216 cells"
    # The capped count is exact up to the limit and past it beyond.
    for limit in (11, 1 << 24):
        monkeypatch.setattr(pdakit.core, "MAX_CELLS", limit)
        for n in range(40):
            for k in range(n + 2):
                capped = pdakit.core._comb_capped(n, k)
                assert capped == comb(n, k) if comb(n, k) <= limit else capped > limit


def test_subset_constructions_keep_their_error_messages():
    for call, message in (
        (lambda: mn(4, 5), "need 0 <= t <= K, got t=5, K=4"),
        (lambda: mn(4, -1), "need 0 <= t <= K, got t=-1, K=4"),
        (lambda: mn_reverse(3, 4), "need 0 <= t <= K, got t=4, K=3"),
        (lambda: mn_reverse(3, -2), "need 0 <= t <= K, got t=-2, K=3"),
        (lambda: shangguan_direct(4, 3, 3), "need 0 <= a, b and a+b <= n+1, got a=3, b=3, n=4"),
        (lambda: shangguan_direct(4, -1, 2), "need 0 <= a, b and a+b <= n+1, got a=-1, b=2, n=4"),
        (lambda: shangguan_direct(4, 1, -1), "need 0 <= a, b and a+b <= n+1, got a=1, b=-1, n=4"),
        (lambda: mn(4, 2, [0, 1]), "expected 4 labels, got 2"),
        (lambda: mn(4, 4, [0]), "expected 0 labels, got 1"),
        (lambda: mn_reverse(4, 1, [0] * 6), "labels must be distinct"),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_odd_tiling_matches_ten_by_ten_blocks():
    fam = odd_tiling(5)
    big = parse_grid(printed.ODD_LIFT_10X10_G5_N2)
    top_right = Pda.from_rows([list(big.row(j))[5:] for j in range(5)])
    bottom_left = Pda.from_rows([list(big.row(j))[:5] for j in range(5, 10)])
    shift = {0: 2, 1: 3, 2: 4, 3: 5}
    assert relabel(fam.p0, shift) == top_right
    assert relabel(fam.p1, shift) == bottom_left


@pytest.mark.parametrize("g", [3, 5, 7, 9, 11, 13, 15])
def test_odd_tiling_sweep(g):
    fam = odd_tiling(g)
    n = g // 2
    for p in (fam.p0, fam.p1):
        info = params(p, expected_labels=4)
        assert (info.k, info.f, info.z, info.s) == (g, g, g - 2, 4)
    assert len(fam.p0.label_positions()[2]) == n + 1
    assert params(fam.pstar).notation() == f"{g}-({g},{g},{g - 1},1)"
    assert brute_force_full_ok(fam.p0, fam.p1, fam.pstar)


@pytest.mark.parametrize("g", range(3, 26, 2))
def test_odd_tiling_p1_matches_its_block_picture(g):
    assert odd_tiling(g).p1 == oracle_odd_tiling_p1(g)


def test_odd_tiling_rejects_even_or_small():
    with pytest.raises(ValueError):
        odd_tiling(4)
    with pytest.raises(ValueError):
        odd_tiling(1)


def test_yan_half_memory_printed_form():
    assert yan_half_memory(5) == parse_grid(printed.HALF_MEMORY_16X10_G5)


def test_yan_half_memory_small():
    info = params(yan_half_memory(2))
    assert (info.k, info.f, info.z, info.s, info.g) == (4, 2, 1, 2, 2)


@pytest.mark.parametrize("g", range(2, 9))
def test_yan_half_memory_sweep(g):
    info = params(yan_half_memory(g))
    assert (info.k, info.f, info.z, info.s, info.g) == (
        2 * g,
        2 ** (g - 1),
        2 ** (g - 2),
        2 ** (g - 1),
        g,
    )


def test_yan_half_memory_rejects_g1():
    # the lone block row would be [* | 0], whose star counts cannot balance
    with pytest.raises(ValueError):
        yan_half_memory(1)

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are exact: integer equality for array cells and parameters,
string equality at four decimals for the tradeoff ratios.

The 240- and 256-user rows are accepted through the parameter calculus
(criterion 3) only; the prior-work constituent arrays those lifts consume
are not constructible from their parameter tuples.
"""

import random
from math import comb

from pdakit.compatibility import (
    is_blackburn_compatible,
    is_generalized_family,
    is_right_compatible,
)
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
from pdakit.core import Pda, canonicalize, hstack, params, validate, vstack
from pdakit.gridio import parse_grid
from pdakit.lifting import (
    assemble_identity_lift,
    lift_family_params,
    mn_recursive,
    nonuniform_lift,
    odd_tiling_lift,
    shangguan_recursive,
    uniform_lift,
)
from pdakit.simulate import decode, deliver, make_library, place
from pdakit.tables import PRIOR_FAMILIES, format_decimal4, new_scheme_rows

import printed
from oracles import brute_force_blackburn_ok, brute_force_full_ok, brute_force_right_ok
from randgen import random_gen_family, random_valid_pda


def _passed(n, text):
    print(f"PASS criterion {n}: {text}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_printed_array_reproduction():
    fam5 = odd_tiling(5)
    produced = {
        "identity": (identity(3, 1), printed.IDENTITY_3_1),
        "anti-identity": (identity(3, 0, anti=True), printed.ANTI_IDENTITY_3_0),
        "filled": (filled(2, 3), printed.FILLED_2X3),
        "mn": (mn(4, 2), printed.MN_4_2),
        "mn-reverse": (mn_reverse(4, 2), printed.MN_REVERSE_4_2),
        "odd-lift-10x10": (
            uniform_lift(h_array(2), [fam5.p0, fam5.p1], fam5.pstar).result,
            printed.ODD_LIFT_10X10_G5_N2,
        ),
        "identity-lift-6x6": (
            nonuniform_lift(
                [
                    vstack([identity(2, 0), identity(2, 1)]),
                    hstack([identity(2, 1), identity(2, 0)]),
                ],
                {(0, 1): identity(4, 2), (1, 0): all_star(2, 2)},
                "main",
            ),
            printed.IDENTITY_LIFT_6X6,
        ),
        "mn-rec-2-1": (mn_recursive(2, 1), printed.MN_2_1),
        "mn-rec-3-1": (mn_recursive(3, 1), printed.MN_3_1),
        "mn-rec-3-2": (mn_recursive(3, 2), printed.MN_3_2),
        "mn-rec-4-2": (mn_recursive(4, 2), printed.MN_4_2),
        "shangguan-4-2-1": (shangguan_recursive(4, 2, 1), printed.SHANGGUAN_4_2_1),
        "shangguan-4-1-2": (shangguan_recursive(4, 1, 2), printed.SHANGGUAN_4_1_2),
        "shangguan-4-2-2": (shangguan_recursive(4, 2, 2), printed.SHANGGUAN_4_2_2),
        "shangguan-5-2-2": (shangguan_recursive(5, 2, 2), printed.SHANGGUAN_5_2_2),
        "half-memory-16x10": (yan_half_memory(5), printed.HALF_MEMORY_16X10_G5),
    }
    for name, (array, text) in produced.items():
        assert canonicalize(array) == canonicalize(parse_grid(text)), name
    _passed(1, f"{len(produced)} published arrays reproduced bit-exactly")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_parameter_formulas():
    for g in (3, 5, 7, 9, 11):
        for n in (2, 3, 4):
            info = params(odd_tiling_lift(g, n))
            assert (info.k, info.f, info.z, info.s, info.g) == (
                g * n,
                g * n,
                n * (g - 2) + 1,
                n * (2 * n - 1),
                g,
            ), (g, n)
    eleven = params(odd_tiling_lift(11, 2))
    assert (eleven.k, eleven.f, eleven.z, eleven.s) == (22, 22, 19, 6)
    assert format_decimal4(eleven.memory_ratio) == "0.8636"
    assert format_decimal4(eleven.rate) == "0.2727"
    for g in range(2, 9):
        info = params(yan_half_memory(g))
        assert (info.k, info.f, info.z, info.s, info.g) == (
            2 * g,
            2 ** (g - 1),
            2 ** (g - 2),
            2 ** (g - 1),
            g,
        ), g
    _passed(2, "odd-lift sweep g<=11, n<=4 and half-memory sweep g<=8 measured")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_tradeoff_table_arithmetic():
    pf = PRIOR_FAMILIES
    eq6 = lift_family_params(pf["b6_3"], pf["b10_2"])
    assert eq6.notation() == "(60,60)_{11,51}^{3,12}"
    intermediates = {
        lift_family_params(pf["b6_3"], pf["b8_2"]).notation(): "(48,48)_{10,41}^{3,12}",
        lift_family_params(pf["b6_2"], pf["b8_2"]).notation(): "(48,48)_{10,34}^{2,8}",
        lift_family_params(pf["c3"], pf["t16"]).notation(): "(48,48)_{25,48}^{3,24}",
        lift_family_params(pf["f4"], pf["t16"]).notation(): "(64,64)_{31,54}^{2,16}",
    }
    for got, expected in intermediates.items():
        assert got == expected

    expected_rows = {
        (11, 22, 22): (19, 6, "0.8636", "0.2727"),
        (12, 240, 360): (186, 3480, "0.5167", "9.6667"),
        (12, 240, 480): (224, 5120, "0.4667", "10.6667"),
        (8, 240, 240): (74, 4980, "0.3083", "20.7500"),
        (8, 256, 256): (79, 5664, "0.3086", "22.1250"),
        (16, 256, 256): (147, 1744, "0.5742", "6.8125"),
    }
    rows = {(r.g, r.k, r.f): r for r in new_scheme_rows()}
    assert set(rows) == set(expected_rows)
    for key, (z, s, mn_text, r_text) in expected_rows.items():
        row = rows[key]
        assert (row.z, row.s) == (z, s), key
        assert format_decimal4(row.memory_ratio) == mn_text, key
        assert format_decimal4(row.rate) == r_text, key
    _passed(3, "six new-scheme rows and five chain intermediates exact")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_compatibility_sweeps():
    checks = 0
    for g in (3, 5, 7, 9, 11, 13, 15):
        fam = odd_tiling(g)
        report = is_blackburn_compatible(fam.p0, fam.p1, fam.pstar)
        assert report.ok and not report.witnesses, g
        checks += 1
    for k in range(1, 9):
        for t in range(k):
            report = is_right_compatible(
                filled(comb(k, t + 1), 1), mn(k, t), mn(k, t + 1)
            )
            assert report.ok and not report.witnesses, (k, t)
            checks += 1
    for n in range(2, 8):
        for a in range(1, n + 1):
            for b in range(1, n + 2 - a):
                ref = (
                    all_star(comb(n, a), comb(n, b))
                    if a + b == n + 1
                    else shangguan_direct(n, a, b)
                )
                report = is_right_compatible(
                    shangguan_direct(n, a, b - 1), shangguan_direct(n, a - 1, b), ref
                )
                assert report.ok and not report.witnesses, (n, a, b)
                checks += 1
    for k in range(2, 9):
        for t in range(k - 1):
            report = is_right_compatible(
                mn_reverse(k, t), mn(k, k - t - 2), mn(k, k - t)
            )
            assert report.ok and not report.witnesses, (k, t)
            swapped = is_right_compatible(
                mn_reverse(k, k - t - 2), mn(k, t), mn(k, t + 2)
            )
            assert swapped.ok and not swapped.witnesses, (k, t)
            checks += 2
    _passed(4, f"{checks} compatibility sweeps, zero witnesses")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_iff_characterization():
    rng = random.Random(52_2025)
    valid = invalid = 0
    for _ in range(200):
        fam = random_gen_family(rng)
        assembly = assemble_identity_lift(list(fam.members), fam.refs, "main")
        assembled_ok = validate(assembly).ok
        family_ok = is_generalized_family(fam).ok
        assert assembled_ok == family_ok
        valid += family_ok
        invalid += not family_ok
    assert valid > 0 and invalid > 0
    _passed(5, f"200 random families: assembly validity <=> compatibility "
               f"({valid} compatible, {invalid} not)")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_recursive_equals_direct():
    count = 0
    for k in range(1, 10):
        for t in range(k + 1):
            assert mn_recursive(k, t) == mn(k, t), (k, t)
            count += 1
    for n in range(1, 8):
        for a in range(n + 1):
            for b in range(n - a + 1 + (a > 0)):  # a + b = n + 1 is all stars
                assert shangguan_recursive(n, a, b) == shangguan_direct(n, a, b), (n, a, b)
                count += 1
    for n in range(1, 9):
        for a in range(n + 1):
            assert shangguan_direct(n, a, 1) == mn(n, a), (n, a)
            count += 1
    _passed(6, f"{count} recursive-vs-direct identities, all cell-exact")


# ---------------------------------------------------------------- criterion 7

def _criteria_arrays():
    arrays = [
        identity(3, 1),
        identity(3, 0, anti=True),
        filled(2, 3),
        mn(4, 2),
        mn_reverse(4, 2),
        parse_grid(printed.ODD_LIFT_10X10_G5_N2),
        parse_grid(printed.IDENTITY_LIFT_6X6),
        mn_recursive(3, 1),
        mn_recursive(3, 2),
        shangguan_recursive(4, 2, 1),
        shangguan_recursive(4, 1, 2),
        shangguan_recursive(4, 2, 2),
        shangguan_recursive(5, 2, 2),
        yan_half_memory(5),
    ]
    arrays.extend(odd_tiling_lift(g, n) for g in (3, 5, 7, 9, 11) for n in (2, 3, 4))
    arrays.extend(yan_half_memory(g) for g in range(2, 9))
    return arrays


def test_criterion_7_end_to_end_caching():
    rng = random.Random(7_2025)
    arrays = _criteria_arrays()
    arrays.extend(random_valid_pda(rng, max_cells=160) for _ in range(100))
    file_size = 256
    rounds = 0
    for p in arrays:
        n_files = p.cols
        subfile = -(-file_size // p.rows)
        lib = make_library(n_files, file_size, p.rows, seed=rng.randrange(2**32))
        caches = place(p, lib)
        index = p.label_positions()
        n_labels = len(index)
        for _ in range(50):
            demands = [rng.randrange(n_files) for _ in range(p.cols)]
            tx = deliver(p, demands, lib)
            assert len(tx) == n_labels
            assert sum(len(t.payload) for t in tx) == n_labels * subfile
            for k in range(p.cols):
                got = decode(p, k, demands, caches, tx)
                assert got[:file_size] == lib.files[demands[k]], (p.shape, k)
            rounds += 1
    _passed(7, f"{len(arrays)} arrays x 50 demand vectors, {rounds} rounds, "
               "100% decode")


# ---------------------------------------------------------------- criterion 8

def _suite_arrays_small():
    arrays = [p for p in _criteria_arrays() if p.rows <= 40 and p.cols <= 40]
    arrays.extend([identity(8, 2), g_array(6), h_array(6), all_star(3, 4)])
    arrays.extend(mn(k, t) for k in range(2, 7) for t in range(k + 1) if comb(k, t) <= 40)
    arrays.extend(
        shangguan_direct(n, a, b)
        for n in range(2, 7)
        for a in range(n + 1)
        for b in range(n - a + 1)
        if comb(n, a) <= 40 and comb(n, b) <= 40
    )
    for g in (3, 5, 7, 9):
        fam = odd_tiling(g)
        arrays.extend([fam.p0, fam.p1])
    return arrays


def test_criterion_8_oracle_equivalence():
    arrays = _suite_arrays_small()
    rng = random.Random(8_2025)
    checked = 0
    for p in arrays:
        assert validate(p).c3_ok == brute_force_blackburn_ok(p) == True  # noqa: E712
        checked += 1
    # mutated grids must agree on the failing side too
    for _ in range(40):
        p = random_valid_pda(rng, max_cells=120)
        index = p.label_positions()
        if not index:
            continue
        cells = list(p.cells)
        pos = rng.randrange(len(cells))
        cells[pos] = rng.choice(sorted(index))
        q = Pda(p.rows, p.cols, tuple(cells))
        assert validate(q).c3_ok == brute_force_blackburn_ok(q)
        checked += 1
    # cross-array checks against the quadratic scans
    fam = odd_tiling(7)
    pairs = [
        (fam.p0, fam.p1, fam.pstar),
        (fam.p0, fam.p1, all_star(7, 7)),
        (fam.p0, fam.p1, fam.p0),
    ]
    for p0, p1, ref in pairs:
        assert is_blackburn_compatible(p0, p1, ref).ok == brute_force_full_ok(p0, p1, ref)
        checked += 1
    for k in range(2, 7):
        for t in range(k - 1):
            p0, p1, ref = mn_reverse(k, t), mn(k, k - t - 2), mn(k, k - t)
            assert is_right_compatible(p0, p1, ref).ok == brute_force_right_ok(p0, p1, ref)
            bad = Pda(ref.rows, ref.cols, tuple(99 if c is None else c for c in ref.cells))
            assert is_right_compatible(p0, p1, bad).ok == brute_force_right_ok(p0, p1, bad)
            checked += 2
    _passed(8, f"{checked} production-vs-brute-force agreements")

from fractions import Fraction

from pdakit.tables import (
    PRIOR_FAMILIES,
    fig2_rows,
    format_decimal4,
    new_scheme_rows,
    render_fig2_csv,
    render_table1_csv,
    table1_rows,
)


def test_format_decimal4_round_half_even():
    assert format_decimal4(Fraction(19, 22)) == "0.8636"
    assert format_decimal4(Fraction(2, 3)) == "0.6667"
    assert format_decimal4(Fraction(1, 20000)) == "0.0000"
    assert format_decimal4(Fraction(3, 20000)) == "0.0002"
    assert format_decimal4(Fraction(83, 4)) == "20.7500"
    # Rounded from the exact rational, not from a 60-digit quotient.
    assert format_decimal4(Fraction(3, 20000) - Fraction(1, 10**70)) == "0.0001"
    assert format_decimal4(Fraction(1, 20000) + Fraction(1, 10**70)) == "0.0001"
    assert format_decimal4(-Fraction(1, 30000)) == "-0.0000"
    assert format_decimal4(-Fraction(5, 20000)) == "-0.0002"


def test_new_scheme_rows_match_published_values():
    rows = {(r.g, r.k, r.f): r for r in new_scheme_rows()}
    expected = {
        (11, 22, 22): (19, 6, "0.8636", "0.2727"),
        (12, 240, 360): (186, 3480, "0.5167", "9.6667"),
        (12, 240, 480): (224, 5120, "0.4667", "10.6667"),
        (8, 240, 240): (74, 4980, "0.3083", "20.7500"),
        (8, 256, 256): (79, 5664, "0.3086", "22.1250"),
        (16, 256, 256): (147, 1744, "0.5742", "6.8125"),
    }
    assert set(rows) == set(expected)
    for key, (z, s, mn_text, r_text) in expected.items():
        row = rows[key]
        assert (row.z, row.s) == (z, s)
        assert format_decimal4(row.memory_ratio) == mn_text
        assert format_decimal4(row.rate) == r_text


def test_table_csv_layout():
    csv = render_table1_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "scheme,g,K,f,Z,S,MN,R"
    assert lines[1] == "odd-tiling-lift,11,22,22,19,6,0.8636,0.2727"
    assert len(lines) == 1 + len(table1_rows())
    assert "\r" not in csv
    assert csv == render_table1_csv()  # deterministic


def test_reference_rows_as_printed():
    rows = [r for r in table1_rows() if r.scheme == "prior-lifting"]
    assert [(r.g, r.f, r.z, r.s) for r in rows] == [
        (11, 22, 20, 4),
        (12, 960, 588, 7440),
        (8, 240, 78, 4860),
        (8, 256, 80, 5632),
        (16, 256, 160, 1536),
    ]
    cheng = next(r for r in table1_rows() if r.scheme == "cheng2020")
    assert format_decimal4(cheng.rate) == "1.0000"  # stored as printed
    huang = next(r for r in table1_rows() if r.scheme == "huang2021")
    assert (huang.g, huang.z, huang.s) == (10, 48, 384)


def test_fig2_curve_and_points():
    rows = fig2_rows()
    curve = [r for r in rows if r[0] == "mn"]
    assert len(curve) == 241
    assert curve[0] == ("mn", "0.0000", "240.0000")
    assert curve[48] == ("mn", "0.2000", format_decimal4(Fraction(192, 49)))
    assert curve[-1] == ("mn", "1.0000", "0.0000")
    family_points = [r for r in rows if r[0] == "family-lift"]
    assert ("family-lift", "0.4667", "10.6667") in family_points
    assert len(family_points) == 4
    assert sum(1 for r in rows if r[0] == "prior-lifting") == 17
    csv = render_fig2_csv()
    assert csv.startswith("series,MN,R\n")


def test_prior_family_tuples_are_self_consistent():
    for name, fam in PRIOR_FAMILIES.items():
        member_cells = fam.k * (fam.f - fam.z_member)
        assert member_cells % fam.member_labels == 0 or fam.member_labels == 0, name
        ref_cells = fam.k * (fam.f - fam.z_ref)
        if fam.ref_labels:
            assert fam.ref_regularity * fam.ref_labels == ref_cells, name
        else:
            assert ref_cells == 0, name

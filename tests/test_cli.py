import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdakit.core
from pdakit.cli import _GENERATORS, main
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
from pdakit.core import hstack, vstack
from pdakit.gridio import load_pda, parse_grid, save_pda, serialize_grid
from pdakit.lifting import mn_recursive, odd_tiling_lift, shangguan_recursive

import printed


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_mn_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "mn", "4", "2")
    assert code == 0
    assert parse_grid(out) == mn(4, 2)


def test_gen_into_a_closed_stdout_is_one_error_line_and_exit_one():
    src = Path(pdakit.core.__file__).parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "pdakit.cli", "gen", "mn", "12", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (1, b"error: [Errno 32] Broken pipe\n")


def test_gen_corollary_odd_matches_printed(capsys):
    code, out, _ = run_cli(capsys, "gen", "corollary-odd", "5", "2")
    assert code == 0
    assert out == printed.ODD_LIFT_10X10_G5_N2


def test_gen_unknown_name_and_bad_arity(capsys):
    assert run_cli(capsys, "gen", "nope", "3")[0] == 2
    assert run_cli(capsys, "gen", "mn", "4")[0] == 2
    assert run_cli(capsys, "gen", "mn", "4", "9")[0] == 2


def test_gen_bad_labels_and_odd_tiling_g_are_usage_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, message in (
        (["mn", "4", "2", "--labels", "1,x"], "invalid literal"),
        (["odd-tiling", "4"], "g must be odd"),
        (["h", "0"], "n must be at least 1"),
        (["g", "0"], "n must be at least 1"),
    ):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("bad parameters: ") and message in err
    assert list(tmp_path.iterdir()) == []


def test_gen_shangguan_at_a_plus_b_equal_to_n_plus_one_is_all_stars(capsys):
    want = (0, "* * * * * *\n" * 4, "")
    assert run_cli(capsys, "gen", "shangguan", "4", "3", "2") == want
    assert run_cli(capsys, "gen", "shangguan-recursive", "4", "3", "2") == want


def test_gen_past_the_cell_limit_is_refused_before_any_subset_is_built(capsys):
    # C(100000, 50000) has about 30,000 digits, so neither it nor its
    # subsets may be formatted or enumerated; C(10^7, 5 * 10^6) may not
    # even be computed.
    message = "bad parameters: grid would exceed the limit of 16777216 cells\n"
    for argv in (
        ["mn", "100000", "50000"], ["mnrev", "100000", "50000"], ["g", "100000"],
        ["mn", "10000000", "5000000"], ["mnrev", "10000000", "5000000"],
        ["shangguan", "10000000", "2500000", "2500000"],
    ):
        assert run_cli(capsys, "gen", *argv) == (2, "", message)


def test_gen_option_the_generator_does_not_take_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, params, option in (
        ("star", ["2", "2"], ["--labels", "5"]),
        ("mn", ["3", "1"], ["--anti"]),
        ("yan-half", ["3"], ["--labels", "1"]),
        ("identity", ["3", "0"], ["--labels", "1"]),
        ("odd-tiling", ["3"], ["--anti"]),
    ):
        code, out, err = run_cli(capsys, "gen", name, *params, *option)
        assert (code, out, err) == (2, "", f"gen {name} takes no {option[0]}\n")
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run_cli(capsys, "gen", "mn", "4", "2", "--labels", "3,2,1,0")
    assert (code, parse_grid(out)) == (0, mn(4, 2, [3, 2, 1, 0]))


def test_gen_odd_tiling_writes_three_files(tmp_path, capsys):
    prefix = str(tmp_path / "odd")
    code, _, err = run_cli(capsys, "gen", "odd-tiling", "5", "-o", prefix)
    assert code == 0
    fam = odd_tiling(5)
    assert load_pda(f"{prefix}.p0.grid") == fam.p0
    assert load_pda(f"{prefix}.p1.grid") == fam.p1
    assert load_pda(f"{prefix}.pstar.grid") == fam.pstar


# Each generator's builder, imported from its defining module, and small
# parameters for it.
_BUILDERS = {
    "identity": (identity, [3, 1]),
    "g": (g_array, [4]),
    "h": (h_array, [3]),
    "j": (filled, [2, 3]),
    "star": (all_star, [2, 3]),
    "mn": (mn, [4, 2]),
    "mnrev": (mn_reverse, [4, 2]),
    "shangguan": (shangguan_direct, [5, 2, 1]),
    "yan-half": (yan_half_memory, [3]),
    "mn-recursive": (mn_recursive, [5, 2]),
    "shangguan-recursive": (shangguan_recursive, [5, 1, 2]),
    "corollary-odd": (odd_tiling_lift, [5, 2]),
    "odd-tiling": (odd_tiling, [5]),
}


@pytest.mark.parametrize("name", sorted(_GENERATORS))
def test_gen_runs_every_generator_through_the_package(name, tmp_path, capsys):
    builder, params = _BUILDERS[name]
    built = builder(*params)
    argv = ["gen", name, *map(str, params)]
    if name != "odd-tiling":
        assert run_cli(capsys, *argv) == (0, serialize_grid(built), "")
        return
    prefix = tmp_path / "odd"
    code, out, _ = run_cli(capsys, *argv, "-o", str(prefix))
    assert (code, out) == (0, "")
    for tag in ("p0", "p1", "pstar"):
        text = (tmp_path / f"odd.{tag}.grid").read_text()
        assert text == serialize_grid(getattr(built, tag)), tag


def test_gen_json_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "identity", "3", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == obj["cols"] == 3


def test_gen_output_path_ending_in_json_writes_json_verify_reads(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "gen", "mn", "4", "2", "-o", "m.json") == (0, "", "")
    assert (tmp_path / "m.json").read_text() == json.dumps(
        {"rows": 6, "cols": 4, "cells": list(mn(4, 2).cells)}
    ) + "\n"
    assert run_cli(capsys, "verify", "m.json") == (0, "valid (4,6,3,4) g=3 M/N=1/2 R=2/3\n", "")
    # An explicit --format wins over the name.
    assert run_cli(capsys, "gen", "mn", "4", "2", "--format", "grid", "-o", "g.json")[0] == 0
    assert (tmp_path / "g.json").read_text() == serialize_grid(mn(4, 2))


def test_verify_valid(tmp_path, capsys):
    path = tmp_path / "m42.grid"
    save_pda(mn(4, 2), path)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert out.strip() == "valid (4,6,3,4) g=3 M/N=1/2 R=2/3"


def test_verify_broken_exits_one_with_witness(tmp_path, capsys):
    path = tmp_path / "broken.grid"
    path.write_text("0 1 2\n0 4 5\n")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out.splitlines()[0].startswith("C3 0 (0,0) (1,0)")


@pytest.mark.parametrize(
    "text, exit_code, first_line",
    [
        (serialize_grid(mn(4, 2)), 0, "valid (4,6,3,4) g=3 M/N=1/2 R=2/3"),
        ("0 1 2\n0 4 5\n", 1, "C3 0 (0,0) (1,0) mirror=(0,0)"),
    ],
    ids=["valid", "c3-corrupt"],
)
def test_verify_validates_once(tmp_path, capsys, text, exit_code, first_line):
    path = tmp_path / "a.grid"
    path.write_text(text)
    calls = []
    validate = pdakit.core.validate.__code__

    def count(frame, event, arg):
        # Counts calls of validate's code under whatever name it is bound to.
        if event == "call" and frame.f_code is validate:
            calls.append(frame)

    sys.setprofile(count)
    try:
        code, out, _ = run_cli(capsys, "verify", str(path))
    finally:
        sys.setprofile(None)
    assert (code, out.splitlines()[0]) == (exit_code, first_line)
    assert len(calls) == 1


def test_compat_right_mode(tmp_path, capsys):
    u421 = tmp_path / "u421.grid"
    u412 = tmp_path / "u412.grid"
    u422 = tmp_path / "u422.grid"
    save_pda(shangguan_direct(4, 2, 1), u421)
    save_pda(shangguan_direct(4, 1, 2), u412)
    save_pda(shangguan_direct(4, 2, 2), u422)
    code, out, _ = run_cli(
        capsys, "compat", "--mode", "right", str(u421), str(u412), "--ref", str(u422)
    )
    assert code == 0 and out == ""


def test_compat_full_failure_prints_witnesses(tmp_path, capsys):
    fam = odd_tiling(3)
    p0, p1 = tmp_path / "p0.grid", tmp_path / "p1.grid"
    ref = tmp_path / "ref.grid"
    save_pda(fam.p0, p0)
    save_pda(fam.p1, p1)
    save_pda(fam.p0, ref)  # wrong reference: labels everywhere
    code, out, _ = run_cli(
        capsys, "compat", "--mode", "full", str(p0), str(p1), "--ref", str(ref)
    )
    assert code == 1
    assert "mirror=(" in out.splitlines()[0]


def test_compat_family_mode(tmp_path, capsys):
    m0 = tmp_path / "m0.grid"
    m1 = tmp_path / "m1.grid"
    r01 = tmp_path / "r01.grid"
    r10 = tmp_path / "r10.grid"
    save_pda(vstack([identity(2, 0), identity(2, 1)]), m0)
    save_pda(hstack([identity(2, 1), identity(2, 0)]), m1)
    save_pda(identity(4, 2), r01)
    save_pda(all_star(2, 2), r10)
    code, out, _ = run_cli(
        capsys, "compat", "--mode", "family",
        str(m0), str(m1), "--ref", str(r01), "--ref", str(r10),
    )
    assert code == 0


def test_compat_family_failure_lines_name_their_pair(tmp_path, capsys):
    """Pairs (0,1) and (1,0) fail alike; each line ends with its member pair."""
    paths = [tmp_path / name for name in ("m0.grid", "m1.grid", "r01.grid", "r10.grid")]
    for path, p in zip(paths, (
        vstack([identity(2, 0), identity(2, 1)]),
        hstack([identity(2, 1), identity(2, 0)]),
        filled(4, 4, range(10, 26)),
        filled(2, 2, range(30, 34)),
    )):
        save_pda(p, path)
    m0, m1, r01, r10 = map(str, paths)
    code, out, err = run_cli(capsys, "compat", "--mode", "family", m0, m1, "--ref", r01, "--ref", r10)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "0 (0,0) (0,2) mirror=(0,2) pair=(0,1)",
        "0 (0,0) (1,3) mirror=(0,3) pair=(0,1)",
        "0 (1,1) (0,2) mirror=(1,2) pair=(0,1)",
        "0 (1,1) (1,3) mirror=(1,3) pair=(0,1)",
        "1 (2,0) (0,0) mirror=(2,0) pair=(0,1)",
        "1 (2,0) (1,1) mirror=(2,1) pair=(0,1)",
        "1 (3,1) (0,0) mirror=(3,0) pair=(0,1)",
        "1 (3,1) (1,1) mirror=(3,1) pair=(0,1)",
        "0 (0,2) (0,0) mirror=(0,0) pair=(1,0)",
        "0 (0,2) (1,1) mirror=(0,1) pair=(1,0)",
        "0 (1,3) (0,0) mirror=(1,0) pair=(1,0)",
        "0 (1,3) (1,1) mirror=(1,1) pair=(1,0)",
        "1 (0,0) (2,0) mirror=(0,0) pair=(1,0)",
        "1 (0,0) (3,1) mirror=(0,1) pair=(1,0)",
        "1 (1,1) (2,0) mirror=(1,0) pair=(1,0)",
        "1 (1,1) (3,1) mirror=(1,1) pair=(1,0)",
    ]


def test_lift_uniform_writes_result_and_ledger(tmp_path, capsys):
    fam = odd_tiling(5)
    base = tmp_path / "base.grid"
    p0, p1, ref = tmp_path / "p0.grid", tmp_path / "p1.grid", tmp_path / "ref.grid"
    from pdakit.constructions import h_array

    save_pda(h_array(2), base)
    save_pda(fam.p0, p0)
    save_pda(fam.p1, p1)
    save_pda(fam.pstar, ref)
    out_path = tmp_path / "lifted.grid"
    code, _, _ = run_cli(
        capsys, "lift", "--mode", "uniform", str(base),
        "--member", str(p0), "--member", str(p1), "--ref", str(ref),
        "-o", str(out_path),
    )
    assert code == 0
    assert load_pda(out_path) == odd_tiling_lift(5, 2)
    ledger = json.loads((tmp_path / "lifted.grid.ledger.json").read_text())
    assert ledger["labels"]["0"] == [2, 6]


def test_lift_uniform_output_path_ending_in_json_writes_json(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fam = odd_tiling(5)
    for name, p in (("h2.grid", h_array(2)), ("p0.grid", fam.p0), ("p1.grid", fam.p1),
                    ("ref.grid", fam.pstar)):
        save_pda(p, name)
    code, _, _ = run_cli(
        capsys, "lift", "--mode", "uniform", "h2.grid", "--member", "p0.grid",
        "--member", "p1.grid", "--ref", "ref.grid", "-o", "out.json",
    )
    assert code == 0
    assert json.loads((tmp_path / "out.json").read_text())["cells"] == list(
        odd_tiling_lift(5, 2).cells
    )
    assert json.loads((tmp_path / "out.json.ledger.json").read_text())["labels"]["0"] == [2, 6]


def test_lift_nonuniform_matches_printed(tmp_path, capsys):
    from pdakit.constructions import all_star, identity
    from pdakit.core import hstack, vstack

    m0, m1 = tmp_path / "m0.grid", tmp_path / "m1.grid"
    r01, r10 = tmp_path / "r01.grid", tmp_path / "r10.grid"
    save_pda(vstack([identity(2, 0), identity(2, 1)]), m0)
    save_pda(hstack([identity(2, 1), identity(2, 0)]), m1)
    save_pda(identity(4, 2), r01)
    save_pda(all_star(2, 2), r10)
    code, out, _ = run_cli(
        capsys, "lift", "--mode", "nonuniform",
        "--member", str(m0), "--member", str(m1),
        "--ref", str(r01), "--ref", str(r10),
    )
    assert code == 0
    assert out == printed.IDENTITY_LIFT_6X6


def test_params_chain_and_base(capsys):
    code, out, _ = run_cli(
        capsys, "params",
        "--family", "6,6,1,5,3,6,15,1",
        "--family", "10,10,1,6,2,4,45,10",
        "--base", "4,6,3,4,3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("(60,60)_{11,51}^{3,12}")
    assert lines[-1] == "valid (240,360,186,3480) g=12 M/N=31/60 R=29/3"


def test_params_single_family_with_label_flags(capsys):
    code, out, _ = run_cli(
        capsys, "params",
        "--family", "11,11,9,10,2,11",
        "--member-labels", "4", "--ref-labels", "1",
        "--base", "2,2,1,1,2",
    )
    assert code == 0
    assert "valid (22,22,19,6) g=11" in out


def test_params_label_flag_replaces_only_the_count_given(capsys):
    family = ["--family", "6,6,1,5,3,6,15,1"]
    assert run_cli(capsys, "params", *family, "--member-labels", "15") == (
        0, "(6,6)_{1,5}^{3,6} member_labels=15 ref_labels=1\n", ""
    )
    assert run_cli(capsys, "params", *family, "--ref-labels", "1", "--base", "4,6,3,4,3") == (
        0, "valid (24,36,18,72) g=6 M/N=1/2 R=2\n", ""
    )


def test_params_missing_label_count_is_a_usage_error(capsys):
    need = ": --base and chaining need both label counts (,Lm,Lr or --member-labels/--ref-labels)\n"
    for argv, named in (
        (["--family", "6,6,1,5,3,6", "--member-labels", "15", "--base", "4,6,3,4,3"], "6,6,1,5,3,6"),
        (["--family", "11,11,9,10,2,11", "--base", "2,2,1,1,2"], "11,11,9,10,2,11"),
        (["--family", "6,6,1,5,3,6,15,1", "--family", "10,10,1,6,2,4"], "10,10,1,6,2,4"),
    ):
        assert run_cli(capsys, "params", *argv) == (2, "", f"--family {named}{need}"), argv


def test_params_chain_checks_every_tuple(capsys):
    # The first tuple's 2 reference labels at regularity 6 cover 12 cells,
    # not its 6 (= 6 x (6 - 5)): chaining refuses it as --base does.
    argv = ["--family", "6,6,1,5,3,6,15,2", "--family", "10,10,1,6,2,4,45,10"]
    err = "error: inconsistent tuple: 2 reference labels at regularity 6 do not cover 6 cells\n"
    assert run_cli(capsys, "params", *argv) == (1, "", err)
    assert run_cli(capsys, "params", *argv[:2], "--base", "4,6,3,4,3") == (1, "", err)


def test_params_malformed_tuples_are_usage_errors(capsys):
    family = ["--family", "11,11,9,10,2,11"]
    for argv in (
        [*family, "--base", "4,6,3"],
        [*family, "--base", "4,6,3,4,x"],
        [*family, "--base", "4,0,3,4,3"],
        ["--family", "11,11,9,10,2"],
        ["--family", "11,11,9,ten,2,11"],
    ):
        code, out, err = run_cli(capsys, "params", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("bad parameters: ")


def test_table_commands(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "table", "table1")
    assert code == 0
    assert out.startswith("scheme,g,K,f,Z,S,MN,R\n")
    dest = tmp_path / "fig2.csv"
    code, _, _ = run_cli(capsys, "table", "fig2", "-o", str(dest))
    assert code == 0
    assert dest.read_text().startswith("series,MN,R\n")


def test_sim_reports_json(tmp_path, capsys):
    path = tmp_path / "m42.grid"
    save_pda(mn(4, 2), path)
    code, out, _ = run_cli(
        capsys, "sim", "--pda", str(path), "--files", "4", "--size", "64",
        "--demands", "0,1,2,3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["decode_ok"] == [True] * 4
    assert report["rate"] == "2/3"
    assert report["subpacketization"] == 6
    assert report["transmissions"] == 4
    assert report["bytes_sent"] == 4 * 11


def test_sim_seeded_is_deterministic(tmp_path, capsys):
    path = tmp_path / "m42.grid"
    save_pda(mn(4, 2), path)
    _, out1, _ = run_cli(capsys, "sim", "--pda", str(path), "--files", "4", "--size", "32", "--seed", "9")
    _, out2, _ = run_cli(capsys, "sim", "--pda", str(path), "--files", "4", "--size", "32", "--seed", "9")
    assert out1 == out2


def test_sim_bad_parameters_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "m42.grid"
    save_pda(mn(4, 2), path)
    sim = ["sim", "--pda", str(path)]
    for argv, message in (
        (["--files", "4", "--size", "64", "--demands", "1,x"], "invalid literal"),
        (["--files", "4", "--size", "64", "--demands", "0,1"], "need 4 demands, got 2"),
        (["--files", "4", "--size", "64", "--demands", "0,1,2,4"], "demand 4 out of range"),
        (["--files", "4", "--size", "64", "--demands", "0,-1,2,3"], "demand -1 out of range"),
        (["--files", "0", "--size", "64"], "need at least one file, got 0"),
        (["--files", "0", "--size", "64", "--demands", "0,0,0,0"], "need at least one file"),
        (["--files", "4", "--size", "-5"], "file size must be non-negative, got -5"),
    ):
        code, out, err = run_cli(capsys, *sim, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("bad parameters: ") and message in err
    code, out, _ = run_cli(capsys, *sim, "--files", "2", "--size", "0")
    assert code == 0
    assert json.loads(out)["bytes_sent"] == 0


def test_verify_non_integer_json_shape_is_an_error(tmp_path, capsys):
    for shape in ('"rows": 1.5, "cols": 2', '"rows": 2, "cols": 1.5'):
        path = tmp_path / "shape.json"
        path.write_text("{" + shape + ', "cells": [null, 0, 0]}')
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err


def test_verify_grid_over_the_cell_limit_is_an_error(tmp_path, capsys):
    for name, text, shape in (
        ("big.grid", "# pda f=100000 K=1000\n0\n", "100000x1000"),
        ("big.json", '{"rows": 1000, "cols": 100000, "cells": [0]}', "1000x100000"),
    ):
        path = tmp_path / name
        path.write_text(text)
        assert run_cli(capsys, "verify", str(path)) == (
            1, "", f"error: grid of {shape} cells exceeds the limit of 16777216 at (1,1)\n"
        )


def test_missing_file_is_an_error(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/x.grid")
    assert code == 1
    assert "error:" in err


def test_gen_with_explicit_labels(capsys):
    code, out, _ = run_cli(capsys, "gen", "j", "2", "2", "--labels", "7,5,3,1")
    assert code == 0
    assert out == "7 5\n3 1\n"


def test_gen_identity_anti_flag(capsys):
    code, out, _ = run_cli(capsys, "gen", "identity", "3", "0", "--anti")
    assert code == 0
    assert out == printed.ANTI_IDENTITY_3_0


def test_lift_basic_mode(tmp_path, capsys):
    from pdakit.constructions import h_array, identity
    from pdakit.lifting import basic_lift

    base, member = tmp_path / "base.grid", tmp_path / "m.grid"
    save_pda(identity(3, 0), base)
    save_pda(h_array(4), member)
    code, out, _ = run_cli(
        capsys, "lift", "--mode", "basic", str(base), "--member", str(member)
    )
    assert code == 0
    assert parse_grid(out) == basic_lift(identity(3, 0), h_array(4)).result


def test_lift_basic_writes_empty_reference_ranges_in_its_ledger(tmp_path, capsys, monkeypatch):
    # The all-star reference copies take no labels, so each star's range is empty.
    monkeypatch.chdir(tmp_path)
    save_pda(h_array(2), "h2.grid")
    save_pda(h_array(3), "h3.grid")
    code, _, _ = run_cli(capsys, "lift", "--mode", "basic", "h2.grid", "--member", "h3.grid",
                         "-o", "b.grid")
    assert code == 0
    assert (tmp_path / "b.grid.ledger.json").read_text() == (
        '{\n  "stars": {\n    "0": [\n      0,\n      0\n    ],\n    "1": [\n      0,\n      0\n'
        '    ]\n  },\n  "labels": {\n    "0": [\n      0,\n      3\n    ]\n  }\n}\n'
    )
    assert run_cli(capsys, "verify", "b.grid")[:2] == (0, "valid (6,6,4,3) g=4 M/N=2/3 R=1/2\n")


@pytest.mark.parametrize("fmt", ["grid", "json"])
def test_lift_family_mode(tmp_path, capsys, fmt):
    from pdakit.constructions import h_array
    from pdakit.core import Pda

    fresh = iter(range(100))
    grid = [[None if i == j else next(fresh) for j in range(3)] for i in range(3)]
    p0 = Pda.from_rows(grid)
    p1 = Pda.from_rows([[grid[j][i] for j in range(3)] for i in range(3)])
    paths = {}
    for name, p in [("p0", p0), ("p1", p1), ("pstar", h_array(3))]:
        paths[name] = tmp_path / f"{name}.grid"
        save_pda(p, paths[name])
    prefix = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "lift", "--mode", "family",
        "--member", str(paths["p0"]), "--member", str(paths["p1"]),
        "--ref", str(paths["pstar"]),
        "--q-member", str(paths["p0"]), "--q-ref", str(paths["pstar"]),
        "-o", str(prefix), "--format", fmt,
    )
    assert code == 0
    assert load_pda(f"{prefix}.r0.{fmt}").shape == (9, 9)
    assert load_pda(f"{prefix}.rstar.{fmt}").shape == (9, 9)
    ledger = json.loads((tmp_path / "out.ledger.json").read_text())
    assert ledger["reference"] == f"{prefix}.rstar.{fmt}"


def test_compat_cstar_mode(tmp_path, capsys):
    from pdakit.constructions import h_array

    m0, m1, ref = tmp_path / "m0.grid", tmp_path / "m1.grid", tmp_path / "ref.grid"
    save_pda(h_array(3, [0, 1, 2]), m0)
    save_pda(h_array(3, [2, 0, 1]), m1)
    save_pda(h_array(3, [7, 8, 9]), ref)
    code, out, _ = run_cli(
        capsys, "compat", "--mode", "cstar", str(m0), str(m1), "--ref", str(ref)
    )
    assert code == 0 and out == ""


_PAIRS = "(ordered pairs (0,1),(0,2),...,(1,0),...)"

# (argv, exit code, stdout, stderr) over the files written in the test below.
_CLI_BRANCHES = [
    (["verify", "c1.grid"], 1, "C1 column=1 stars=0 expected=1\n", ""),
    (["verify", "h2.grid", "--labels", "3"], 1, "C2 missing=1\n", ""),
    (["compat", "--mode", "full", "h2.grid"], 2, "", "--mode full takes two arrays and one --ref\n"),
    (["compat", "--mode", "right", "h2.grid", "h2.grid"], 2, "",
     "--mode right takes two arrays and one --ref\n"),
    (["compat", "--mode", "left", "h2.grid", "h2.grid", "--ref", "h2.grid", "--ref", "h2.grid"], 2, "",
     "--mode left takes two arrays and one --ref\n"),
    (["compat", "--mode", "cstar", "h2.grid"], 2, "", "--mode cstar takes one --ref\n"),
    (["compat", "--mode", "family", "i2.grid", "i2.grid", "--ref", "s2.grid"], 2, "",
     f"--mode family with 2 members takes 2 --ref {_PAIRS}\n"),
    (["lift", "--mode", "uniform", "--member", "odd5.p0.grid"], 2, "",
     "--mode uniform takes a base file and at most one --ref\n"),
    (["lift", "--mode", "basic", "h2.grid", "--member", "h2.grid", "--ref", "s2.grid", "--ref", "s2.grid"], 2, "",
     "--mode basic takes a base file and at most one --ref\n"),
    (["lift", "--mode", "basic", "h2.grid"], 2, "", "--mode basic takes exactly one --member\n"),
    (["lift", "--mode", "uniform", "h2.grid", "--member", "odd5.p0.grid"], 2, "",
     "--mode uniform needs --ref\n"),
    (["lift", "--mode", "family", "--member", "h2.grid", "--ref", "h2.grid", "--q-member", "h2.grid"], 2, "",
     "--mode family takes --member..., one --ref, --q-member... and --q-ref\n"),
    (["lift", "--mode", "nonuniform", "--member", "i2.grid", "--ref", "s2.grid"], 2, "",
     f"--mode nonuniform with 1 members takes 0 --ref {_PAIRS}\n"),
    (["lift", "--mode", "nonuniform", "--member", "i2.grid", "--member", "i2.grid",
      "--ref", "s2.grid", "--ref", "s2.grid", "-o", "nu.grid"], 0, "", ""),
    (["params", "--family", "6,6,1,5,3,6", "--family", "8,8,1,5,2,4", "--member-labels", "15"], 2, "",
     "--member-labels/--ref-labels apply to a single --family\n"),
    # An input the mode does not read is refused once the mode's own checks pass.
    (["lift", "--mode", "uniform", "h2.grid", "--member", "odd5.p0.grid", "--member", "odd5.p1.grid",
      "--ref", "odd5.pstar.grid", "--orientation", "anti", "--q-member", "nope.grid",
      "--q-ref", "nonexist.grid", "-o", "refused.grid"], 2, "",
     "lift --mode uniform takes no --q-member\n"),
    (["lift", "--mode", "uniform", "h2.grid", "--member", "odd5.p0.grid", "--member", "odd5.p1.grid",
      "--ref", "odd5.pstar.grid", "--orientation", "main"], 2, "",
     "lift --mode uniform takes no --orientation\n"),
    (["lift", "--mode", "basic", "h2.grid", "--member", "h2.grid", "--ref", "s2.grid"], 2, "",
     "lift --mode basic takes no --ref\n"),
    (["lift", "--mode", "basic", "h2.grid", "--member", "h2.grid", "--q-ref", "s2.grid"], 2, "",
     "lift --mode basic takes no --q-ref\n"),
    (["lift", "--mode", "family", "h2.grid", "--member", "h2.grid", "--ref", "s2.grid",
      "--q-member", "h2.grid", "--q-ref", "s2.grid"], 2, "",
     "lift --mode family takes no base file\n"),
    (["lift", "--mode", "family", "--member", "h2.grid", "--ref", "s2.grid", "--q-member", "h2.grid",
      "--q-ref", "s2.grid", "--orientation", "anti"], 2, "",
     "lift --mode family takes no --orientation\n"),
    (["lift", "--mode", "nonuniform", "h2.grid", "--member", "i2.grid"], 2, "",
     "lift --mode nonuniform takes no base file\n"),
    (["lift", "--mode", "nonuniform", "--member", "i2.grid", "--q-member", "i2.grid"], 2, "",
     "lift --mode nonuniform takes no --q-member\n"),
    # A usage error is reported before any named file is read.
    (["lift", "--mode", "family", "--member", "nope.grid"], 2, "",
     "--mode family takes --member..., one --ref, --q-member... and --q-ref\n"),
    (["compat", "--mode", "full", "nope.grid"], 2, "", "--mode full takes two arrays and one --ref\n"),
    (["compat", "--mode", "family", "nope.grid", "nope.grid"], 2, "",
     f"--mode family with 2 members takes 2 --ref {_PAIRS}\n"),
    (["lift", "--mode", "basic", "nope.grid", "--member", "nope.grid", "--member", "nope.grid"], 2, "",
     "--mode basic takes exactly one --member\n"),
    (["lift", "--mode", "nonuniform", "--member", "nope.grid", "--ref", "nope.grid"], 2, "",
     f"--mode nonuniform with 1 members takes 0 --ref {_PAIRS}\n"),
    (["lift", "--mode", "uniform", "h2.grid", "--member", "nope.grid", "--ref", "nope.grid",
      "--q-ref", "nope.grid"], 2, "", "lift --mode uniform takes no --q-ref\n"),
    (["lift", "--mode", "uniform", "h2.grid", "--member", "nope.grid", "--ref", "odd5.pstar.grid"], 1, "",
     "error: [Errno 2] No such file or directory: 'nope.grid'\n"),
    # A missing --member is a usage error where the mode's member count needs no file;
    # a uniform lift needs as many as its base's labels occur, none for an all-star base.
    (["lift", "--mode", "nonuniform", "-o", "x.grid"], 2, "", "--mode nonuniform takes at least one --member\n"),
    (["lift", "--mode", "family", "--ref", "s2.grid", "--q-member", "h2.grid", "--q-ref", "s2.grid"], 2, "",
     "--mode family takes --member..., one --ref, --q-member... and --q-ref\n"),
    (["lift", "--mode", "uniform", "s2.grid", "--ref", "s2.grid", "-o", "u.grid"], 0, "", ""),
]


def test_cli_branches_exact_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (["h", "2", "-o", "h2.grid"], ["odd-tiling", "5", "-o", "odd5"],
                 ["identity", "2", "0", "-o", "i2.grid"], ["star", "2", "2", "-o", "s2.grid"]):
        assert run_cli(capsys, "gen", *argv)[0] == 0
    (tmp_path / "c1.grid").write_text("* 0\n1 2\n")
    for argv, code, out, err in _CLI_BRANCHES:
        assert run_cli(capsys, *argv) == (code, out, err), argv
    assert (tmp_path / "nu.grid").read_text() == "0 * * *\n* 0 * *\n* * 0 *\n* * * 0\n"
    assert (tmp_path / "nu.grid.ledger.json").read_text() == '{"orientation": "main", "members": 2}\n'
    assert not (tmp_path / "refused.grid").exists()
    assert not (tmp_path / "x.grid").exists()
    assert (tmp_path / "u.grid").read_text() == "* * * *\n" * 4

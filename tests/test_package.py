"""The package surface: value semantics of the records, the names
``pdakit`` exports, and which modules a command-line run imports."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pdakit
from pdakit import errors
from pdakit.compatibility import GenFamily
from pdakit.constructions import identity, mn
from pdakit.core import Pda, PdaParams, Violation, params
from pdakit.gridio import serialize_grid
from pdakit.lifting import ParamTuple
from pdakit.simulate import Library

SRC = Path(__file__).resolve().parents[1] / "src"


def _records():
    """(record, an equal record, a different record, its repr, a field)."""
    pair = Pda(1, 2, (0, 1))
    return [
        (Pda(1, 2, (0, 1)), Pda(1, 2, [0, 1]), Pda(1, 2, (1, 0)),
         "Pda(rows=1, cols=2, cells=(0, 1))", "rows"),
        (Library((b"ab",), 2, 1), Library(files=(b"ab",), file_size=2, f=1),
         Library((b"ab",), 2, 2), "Library(files=(b'ab',), file_size=2, f=1)", "f"),
        (GenFamily((pair,), {}), GenFamily.of([pair], {}), GenFamily((pair, pair), {}),
         "GenFamily(members=(Pda(rows=1, cols=2, cells=(0, 1)),), refs={})", "members"),
        (Violation("C1", (1, 2, 3)), Violation("C1", (1, 2, 3)), Violation("C3", (1, 2, 3)),
         "Violation(condition='C1', witness=(1, 2, 3))", "witness"),
        (params(mn(4, 2)), PdaParams(4, 6, 3, 4, 3, Fraction(1, 2), Fraction(2, 3)),
         PdaParams(4, 6, 3, 4, None, Fraction(1, 2), Fraction(2, 3)),
         "PdaParams(k=4, f=6, z=3, s=4, g=3, memory_ratio=Fraction(1, 2), "
         "rate=Fraction(2, 3))", "g"),
        (ParamTuple(6, 6, 1, 5, 3, 6), ParamTuple(6, 6, 1, 5, 3, 6, None, None),
         ParamTuple(6, 6, 1, 5, 3, 6, 15, 1),
         "ParamTuple(k=6, f=6, z_member=1, z_ref=5, family_size=3, ref_regularity=6, "
         "member_labels=None, ref_labels=None)", "member_labels"),
    ]


RECORD_IDS = ["Pda", "Library", "GenFamily", "Violation", "PdaParams", "ParamTuple"]


@pytest.mark.parametrize("record, equal, other, text, field", _records(), ids=RECORD_IDS)
def test_record_repr_equality_and_hash(record, equal, other, text, field):
    assert repr(record) == text
    assert record == equal and not record != equal
    assert hash(record) == hash(equal)
    assert record != other and not record == other


@pytest.mark.parametrize("record, equal, other, text, field", _records(), ids=RECORD_IDS)
def test_record_attributes_cannot_be_set_or_deleted(record, equal, other, text, field):
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


def test_plain_records_differ_from_tuples():
    assert Pda(1, 2, (0, 1)) != (1, 2, (0, 1))
    assert Library((b"ab",), 2, 1) != ((b"ab",), 2, 1)
    assert Pda(1, 2, (0, 1)).__eq__((1, 2, (0, 1))) is NotImplemented


def test_gen_family_hash_ignores_refs():
    p = identity(2, 0)
    bare = GenFamily((p, p), {})
    with_refs = GenFamily((p, p), {(0, 1): identity(2, 1), (1, 0): identity(2, 2)})
    assert bare != with_refs
    assert hash(bare) == hash(with_refs)


def test_pda_caches_in_its_instance_dict():
    p = mn(4, 2)
    params(p)
    assert {"_label_index", "_star_counts", "_c3"} <= vars(p).keys()
    assert p == mn(4, 2) and hash(p) == hash(mn(4, 2))


def _run(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def _cli_modules(*argv: str) -> list:
    """[the pdakit modules, dataclasses and json loaded after ``import
    pdakit.cli``, the same after ``main(argv)``, its exit code, its stdout]."""
    code = (
        "import contextlib, io, sys\n"
        "import pdakit.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules\n"
        "                        if m.startswith('pdakit') or m in ('dataclasses', 'json'))\n"
        "after_import = loaded()\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = pdakit.cli.main(sys.argv[1:])\n"
        "print(repr([after_import, loaded(), code, out.getvalue()]))\n"
    )
    return ast.literal_eval(_run(code, *argv))


CLI_MODULES = ["pdakit", "pdakit.cli", "pdakit.core", "pdakit.errors"]


def test_cli_imports_only_what_verify_uses(tmp_path):
    grid = tmp_path / "m42.grid"
    grid.write_text(serialize_grid(mn(4, 2)))
    after_import, after_verify, exit_code, stdout = _cli_modules("verify", str(grid))
    assert after_import == CLI_MODULES
    assert after_verify == sorted([*CLI_MODULES, "json", "pdakit.gridio"])
    assert (exit_code, stdout) == (0, "valid (4,6,3,4) g=3 M/N=1/2 R=2/3\n")


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["table", "table1"], "scheme,g,K,f,Z,S,MN,R"),
        (
            ["params", "--family", "6,6,1,5,3,6,15,1", "--family", "10,10,1,6,2,4,45,10",
             "--base", "4,6,3,4,3"],
            "(60,60)_{11,51}^{3,12} member_labels=735 ref_labels=45",
        ),
    ],
    ids=["table1", "readme-params"],
)
def test_commands_without_array_files_load_no_gridio_or_json(argv, first_line):
    after_import, after_run, exit_code, stdout = _cli_modules(*argv)
    assert after_import == CLI_MODULES
    assert not {"json", "pdakit.gridio"} & set(after_run)
    assert (exit_code, stdout.splitlines()[0]) == (0, first_line)


SUBMODULES = {"compatibility", "constructions", "core", "errors", "gridio", "lifting", "simulate"}
PUBLIC = {
    "CompatReport", "CompatWitness", "GenFamily", "check_condition_cstar",
    "is_blackburn_compatible", "is_generalized_family", "is_left_compatible",
    "is_right_compatible", "OddTilingFamily", "all_star", "filled", "g_array", "h_array",
    "identity", "mn", "mn_reverse", "odd_tiling", "shangguan_direct", "yan_half_memory",
    "Pda", "PdaParams", "ValidationReport", "Violation", "canonicalize", "disjoint_copy",
    "hstack", "params", "relabel", "validate", "vstack", "CompatibilityError", "DecodeError",
    "GridParseError", "InvalidPdaError", "LiftError", "PdaError", "parse_grid",
    "pda_from_json", "pda_to_json", "serialize_grid", "LiftOutcome", "ParamTuple",
    "assemble_identity_lift", "basic_lift", "lift_family", "lift_family_params",
    "lifted_params", "measure_family", "mn_recursive", "nonuniform_lift", "odd_tiling_lift",
    "shangguan_recursive", "uniform_lift", "Library", "RunReport", "Transmission", "decode",
    "deliver", "make_library", "place", "run",
}


def test_public_surface():
    assert len(PUBLIC) == 61
    code = (
        "from pdakit import *\n"
        "star = sorted(k for k in globals() if not k.startswith('_'))\n"
        "import json, pdakit\n"
        "print(json.dumps([star, dir(pdakit)]))\n"
    )
    star, listed = json.loads(_run(code))
    assert set(star) == PUBLIC | SUBMODULES
    assert PUBLIC | SUBMODULES <= set(listed)
    assert pdakit.mn is mn and pdakit.lifting.ParamTuple is ParamTuple
    with pytest.raises(AttributeError):
        pdakit.no_such_name


def test_dir_lists_every_export_sorted_without_importing():
    listed = dir(pdakit)
    assert listed == sorted(listed)
    assert set(pdakit.__all__) <= set(listed)
    code = (
        "import sys, pdakit\n"
        "before = sorted(sys.modules)\n"
        "listed = dir(pdakit)\n"
        "print(sorted(set(sys.modules) - set(before)), sorted(set(pdakit.__all__) - set(listed)))\n"
    )
    assert _run(code) == "[] []\n"


def test_every_package_error_carries_a_report():
    kinds = [
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.PdaError)
    ]
    assert len(kinds) == 6
    for cls in kinds:
        exc = cls("m", 1, 2) if cls is errors.GridParseError else cls("m")
        assert exc.report is None
        assert "__init__" not in vars(cls) or cls in (errors.PdaError, errors.GridParseError)
    assert errors.CompatibilityError("m", "r").report == "r"
    assert errors.InvalidPdaError("m", report="r").report == "r"

import os
import random
import sys
from enum import IntEnum

import pytest

from pdakit import gridio
import pdakit.core
from pdakit.core import Pda, relabel
from pdakit.errors import GridParseError
from pdakit.gridio import MAX_CELLS, parse_grid, pda_from_json, pda_to_json, serialize_grid

from oracles import brute_force_serialize
from randgen import random_grid, random_valid_pda


def test_parse_two_by_two():
    assert parse_grid("* 0\n0 *") == Pda.from_rows([[None, 0], [0, None]])


def test_round_trip_is_exact_on_canonical_text():
    text = "* 0\n0 *\n"
    assert serialize_grid(parse_grid(text)) == text
    messy = "  *   0 \n\n0    *\n\n"
    assert serialize_grid(parse_grid(messy)) == text


def test_serialize_writes_what_the_per_cell_writer_writes():
    rng = random.Random(33_1)
    shapes = [(1, 1), (1, 5), (7, 1), None]
    for i in range(800):
        p = random_grid(rng, max_side=9, n_labels=rng.choice((1, 12, 10**6)), shape=shapes[i % 4])
        if i % 10 == 0:
            p = Pda(p.rows, p.cols, (None,) * (p.rows * p.cols))  # all stars
        for header in (False, True):
            assert serialize_grid(p, header) == brute_force_serialize(p, header)


class _Label(IntEnum):
    THREE = 3


def test_int_enum_labels_are_written_as_their_digits_and_read_back():
    q = relabel(Pda(1, 3, (None, 1, 0)), {0: _Label.THREE, 1: 4})
    for header in (False, True):
        assert serialize_grid(q, header).endswith("* 4 3\n")
        assert parse_grid(serialize_grid(q, header)) == q


def test_round_trip_on_random_pdas():
    rng = random.Random(11)
    for _ in range(50):
        p = random_valid_pda(rng)
        assert parse_grid(serialize_grid(p)) == p
        assert pda_from_json(pda_to_json(p)) == p


def test_grid_and_json_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
    def check(rng, valid, header):
        p = random_valid_pda(rng) if valid else random_grid(rng, n_labels=rng.randint(1, 12))
        assert parse_grid(serialize_grid(p, header=header)) == p
        assert pda_from_json(pda_to_json(p)) == p

    check()


def test_header_accepted_and_checked():
    p = parse_grid("# pda f=2 K=3\n0 1 2\n3 4 5")
    assert p.shape == (2, 3)
    assert serialize_grid(p, header=True).startswith("# pda f=2 K=3\n")
    with pytest.raises(GridParseError):
        parse_grid("# pda f=3 K=3\n0 1 2\n3 4 5")
    with pytest.raises(GridParseError):
        parse_grid("# not a header\n0 1")


def test_invalid_token_reports_position():
    with pytest.raises(GridParseError) as err:
        parse_grid("* x")
    assert (err.value.line, err.value.column) == (1, 2)
    for bad in ("* -1", "1.5", "∗"):
        with pytest.raises(GridParseError):
            parse_grid(bad)


def test_only_ascii_digits_are_labels():
    for text, where in (
        ("* \u0663", (1, 2)),
        ("0 1\n1 \uff11", (2, 2)),
        ("0 1\n* **", (2, 2)),
        ("0 1*\n* 0", (1, 2)),
        ("# pda f=\u0661 K=2\n* 0", (1, 1)),
    ):
        with pytest.raises(GridParseError) as err:
            parse_grid(text)
        assert (err.value.line, err.value.column) == where


def test_ragged_rows_rejected():
    with pytest.raises(GridParseError) as err:
        parse_grid("0 1 2\n3 4")
    assert err.value.line == 2


def test_empty_input_rejected():
    with pytest.raises(GridParseError):
        parse_grid("\n  \n")


def test_json_star_encoding_and_errors():
    p = Pda.from_rows([[None, 0], [0, None]])
    assert '"cells": [null, 0, 0, null]' in pda_to_json(p)
    with pytest.raises(GridParseError):
        pda_from_json('{"rows": 2, "cols": 2}')
    with pytest.raises(GridParseError):
        pda_from_json('{"rows": 2, "cols": 2, "cells": [null, 0, 0]}')


def test_json_non_integer_shape_rejected():
    for shape in ('"rows": 1.5, "cols": 2', '"rows": 2, "cols": 1.5', '"rows": true, "cols": 3'):
        with pytest.raises(GridParseError, match="rows and cols must be int"):
            pda_from_json("{" + shape + ', "cells": [null, 0, 0]}')


def test_overlong_label_reports_its_position():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() has no digit limit here")
    long = "1" * (limit + 700)
    for text, where in (
        (long, (1, 1)),
        ("* 0\n0 " + long, (2, 2)),
        ("3 * " + long + "\n* 0 1", (1, 3)),
        ("# pda f=" + long + " K=1\n*", (1, 1)),
    ):
        with pytest.raises(GridParseError) as err:
            parse_grid(text)
        assert (err.value.line, err.value.column) == where
    with pytest.raises(GridParseError):
        pda_from_json('{"rows": 1, "cols": 1, "cells": [' + long + "]}")


def test_grid_over_the_cell_limit_is_refused_before_its_cells():
    assert MAX_CELLS == 4096 * 4096 and MAX_CELLS is pdakit.core.MAX_CELLS
    # The body's bad token is never reached: the header alone is refused.
    with pytest.raises(GridParseError, match=r"grid of 4097x4096 cells exceeds the limit of 16777216 at \(2,1\)"):
        parse_grid("\n# pda f=4097 K=4096\nx y\n")
    # At the limit the header passes and is then checked against the body.
    with pytest.raises(GridParseError, match="header says f=4096 K=4096 but body is 1x1"):
        parse_grid("# pda f=4096 K=4096\n0\n")


def test_headerless_body_over_the_cell_limit_is_refused(monkeypatch):
    monkeypatch.setattr(gridio, "MAX_CELLS", 5)
    assert parse_grid("0 *\n* 0\n") == Pda(2, 2, (0, None, None, 0))
    with pytest.raises(GridParseError, match=r"grid of 3x2 cells exceeds the limit of 5 at \(2,1\)"):
        parse_grid("\n0 *\n* 0\n1 x y\n")


def test_json_shape_over_the_cell_limit_is_refused_before_its_cells():
    with pytest.raises(GridParseError, match=r"grid of 100000x1000 cells exceeds the limit of 16777216 at \(1,1\)"):
        pda_from_json('{"rows": 100000, "cols": 1000, "cells": [0]}')
    with pytest.raises(GridParseError, match="expected 16777216 cells"):
        pda_from_json('{"rows": 4096, "cols": 4096, "cells": [0]}')


@pytest.mark.parametrize("fmt", ["grid", "json"])
def test_save_pda_without_a_path_writes_the_file_bytes_to_stdout(tmp_path, capsys, fmt):
    p = random_valid_pda(random.Random(5))
    path = tmp_path / f"p.{fmt}"
    gridio.save_pda(p, path, fmt)
    gridio.save_pda(p, fmt=fmt)
    assert capsys.readouterr().out.encode() == path.read_bytes()


def test_save_pda_refuses_a_path_that_is_no_str_or_path_and_leaves_a_descriptor_open():
    p = random_valid_pda(random.Random(7))
    read, write = os.pipe()
    try:
        for path in (write, True, b"p.grid"):
            with pytest.raises(ValueError) as err:
                gridio.save_pda(p, path)
            assert str(err.value) == f"path must be a str or an os.PathLike, got {type(path).__name__}"
        os.fstat(write)
        os.set_blocking(read, False)
        with pytest.raises(BlockingIOError):
            os.read(read, 1)  # nothing was written to the pipe
    finally:
        os.close(read)
        os.close(write)


def test_save_pda_takes_the_format_from_the_path_when_given_none(tmp_path):
    p = random_valid_pda(random.Random(6))
    for name, fmt, text in (
        ("p.json", None, gridio.pda_to_json(p) + "\n"),
        ("p.grid", None, gridio.serialize_grid(p)),
        ("g.json", "grid", gridio.serialize_grid(p)),
    ):
        gridio.save_pda(p, tmp_path / name, fmt)
        assert (tmp_path / name).read_text() == text
        if fmt is None:
            assert gridio.load_pda(tmp_path / name) == p


# ------------------------------------------- one json.loads against the loop

_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
# Whitespace that str.split() or splitlines() sees and serialize_grid never
# writes, then tokens: digits that are not ASCII, JSON syntax, bad labels.
_SPACES = (" ", "  ", "\t", "\r", "\r\n", "\n", "\n\n", "\x0c", "\x85", "\u00a0", "\u3000")
_TOKENS = ("\u0663", "\uff11", "0", "00", "01", "7", "123", "*", "**", "1*", "-1", "1e3", "[", ",",
           "null", "1" * (_LIMIT + 1))
_HEADERS = (
    "# pda f={f} K={k}\n", "# pda f={k} K={f}\n", "# pda f=0{f} K={k}\n", "# pda\r f={f} K={k}\n",
    "#\x0c pda f={f} K={k}\n", "# pda f={f} K={k}\r\n", "# pda f={f}  K={k}\n", "\n# pda f={f} K={k}\n",
    "# pda f={f} K={k} \n", "#pda f={f} K={k}\n", "# pda f=" + "1" * (_LIMIT + 1) + " K={k}\n",
)


def _outcome(text):
    """parse_grid's Pda for ``text``, or its error's message, line and column."""
    try:
        return parse_grid(text)
    except GridParseError as exc:
        return (str(exc), exc.line, exc.column)


def _loop_outcome(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridio, "_parse_plain", lambda text: None)
        return _outcome(text)


def _mutate(text: str, f: int, k: int, rng: random.Random) -> str:
    kind = rng.randrange(7)
    if kind == 0:  # splice a snippet in anywhere
        at = rng.randint(0, len(text))
        return text[:at] + rng.choice(_SPACES + _TOKENS) + text[at:]
    lines = text.split("\n")
    row = rng.randrange(len(lines))
    tokens = lines[row].split(" ")
    col = rng.randrange(len(tokens))
    if kind == 1:  # replace one token
        tokens[col] = rng.choice(_TOKENS)
    elif kind == 2:  # swap two tokens
        other = rng.randrange(len(tokens))
        tokens[col], tokens[other] = tokens[other], tokens[col]
    elif kind == 3:  # ragged: drop or double a token
        tokens[col:col + 1] = [] if rng.random() < 0.5 else [tokens[col]] * 2
    elif kind == 4:  # a leading zero
        tokens[col] = "0" + tokens[col]
    elif kind == 5:
        return text.replace("\n", "\r\n")
    else:
        return rng.choice(_HEADERS).format(f=f, k=k) + text
    lines[row] = " ".join(tokens)
    return "\n".join(lines)


def test_one_json_loads_reads_what_the_loop_reads_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.randoms(use_true_random=False), st.booleans(), st.integers(0, 3))
    def check(rng, header, mutations):
        p = random_grid(rng, n_labels=rng.choice((3, 150, 20_000)))
        text = serialize_grid(p, header=header)
        assert gridio._parse_plain(text) == p
        for _ in range(mutations):
            text = _mutate(text, p.rows, p.cols, rng)
        plain, loop = gridio._parse_plain(text), _loop_outcome(text)
        assert plain is None or plain == loop
        assert _outcome(text) == loop

    check()


_EXPECTED_READS = [
    ("* 0\n0 *\n", Pda(2, 2, (None, 0, 0, None))),
    ("# pda f=2 K=2\n* 0\n0 *\n\n\n", Pda(2, 2, (None, 0, 0, None))),
    ("# pda f=02 K=2\n* 0\n0 *\n", Pda(2, 2, (None, 0, 0, None))),
    # A header cut at "\n" alone would accept these two; splitlines() does not.
    ("# pda\r f=2 K=2\n* 0\n0 *\n", ("malformed header at (1,1)", 1, 1)),
    ("#\x0c pda f=2 K=2\n* 0\n0 *\n", ("malformed header at (1,1)", 1, 1)),
    ("# pda f=1 K=2\n* 0\n0 *\n", ("header says f=1 K=2 but body is 2x2 at (1,1)", 1, 1)),
    ("\n\n# pda f=3 K=2\n* 0\n0 *\n", ("header says f=3 K=2 but body is 2x2 at (3,1)", 3, 1)),
    ("* 00\n0 *\n", Pda(2, 2, (None, 0, 0, None))),
    ("* 0\n\n0 *\n", Pda(2, 2, (None, 0, 0, None))),
    ("* 0\r\n0 *\r\n", Pda(2, 2, (None, 0, 0, None))),
    ("* 0\n0 **\n", ("invalid token '**' at (2,2)", 2, 2)),
    ("* 0\n0\n", ("ragged row: 1 tokens, expected 2 at (2,1)", 2, 1)),
    ("* 0\n0 " + "1" * (_LIMIT + 1) + "\n", (f"label longer than {_LIMIT} digits at (2,2)", 2, 2)),
    # Every token of a row is checked before any is converted.
    ("* 0\n" + "1" * (_LIMIT + 1) + " x\n", ("invalid token 'x' at (2,2)", 2, 2)),
    ("*\t007\n0 *\n", Pda(2, 2, (None, 7, 0, None))),
    ("# pda  f=2   K=2 \n*\t0\n0\t*\n", Pda(2, 2, (None, 0, 0, None))),
]


@pytest.mark.parametrize("text, expected", _EXPECTED_READS)
def test_both_readers_give_the_expected_outcome(text, expected):
    if "label longer" in str(expected) and not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("int() has no digit limit here")
    assert _outcome(text) == _loop_outcome(text) == expected

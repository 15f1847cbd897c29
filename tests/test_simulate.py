import random
from fractions import Fraction
from itertools import product

import pytest

from pdakit.constructions import all_star, filled, mn, shangguan_direct, yan_half_memory
from pdakit.core import Pda, params, validate
from pdakit.errors import DecodeError, InvalidPdaError
from pdakit.gridio import parse_grid
from pdakit.lifting import odd_tiling_lift
from pdakit.simulate import (
    Library,
    MAX_LIBRARY_BYTES,
    MissingSubfile,
    MissingTransmission,
    Transmission,
    UserOutOfRange,
    WrongLength,
    _check_sizes,
    decode,
    deliver,
    make_library,
    place,
    run,
)

import printed
from oracles import oracle_decode, oracle_deliver, oracle_place
from randgen import random_valid_pda


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def test_place_mn_2_1():
    p = mn(2, 1)
    lib = make_library(n_files=2, file_size=2, f=2, seed=1)
    caches = place(p, lib)
    assert set(caches[0]) == {(0, 0), (1, 0)}
    assert set(caches[1]) == {(0, 1), (1, 1)}
    assert caches[0][(0, 0)] == lib.subfile(0, 0)


def test_place_all_star_and_filled():
    lib = make_library(3, 6, 1, seed=2)
    caches = place(all_star(1, 4), lib)
    assert all(len(c) == 3 for c in caches)
    lib2 = make_library(3, 6, 2, seed=2)
    assert all(len(c) == 0 for c in place(filled(2, 3), lib2))


def test_a_library_past_its_byte_limit_is_refused_before_any_file_is_made():
    message = "^library would exceed the limit of 1073741824 bytes$"
    assert MAX_LIBRARY_BYTES == 2**30
    _check_sizes(1, MAX_LIBRARY_BYTES, 1)
    _check_sizes(MAX_LIBRARY_BYTES, 1, 1)
    for call in (
        lambda: _check_sizes(2, MAX_LIBRARY_BYTES // 2 + 1, 1),
        lambda: make_library(4, 2**40, 2),
        lambda: make_library(2**40, 60, 6),
        lambda: run(mn(4, 2), 2**40, 60),
        lambda: run(mn(4, 2), 4, 2**40),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_place_subpacketization_mismatch():
    with pytest.raises(ValueError):
        place(mn(2, 1), make_library(2, 4, f=3, seed=0))


def test_place_and_deliver_refuse_a_library_split_for_another_array():
    p, lib = mn(4, 2), make_library(4, 60, 3)
    message = "^library is split into 3 subfiles but the PDA has 6 rows$"
    with pytest.raises(ValueError, match=message):
        place(p, lib)
    with pytest.raises(ValueError, match=message):
        deliver(p, [0, 1, 2, 3], lib)


def test_deliver_mn_2_1_single_xor():
    p = mn(2, 1)
    lib = make_library(2, 2, 2, seed=3)
    out = deliver(p, (0, 1), lib)
    assert len(out) == 1 and out[0].label == 0
    assert out[0].payload == _xor(lib.subfile(1, 0), lib.subfile(0, 1))


def test_deliver_all_star_sends_nothing():
    lib = make_library(2, 4, 2, seed=0)
    assert deliver(all_star(2, 3), (0, 1, 1), lib) == []


def test_deliver_demand_out_of_range():
    lib = make_library(2, 4, 2, seed=0)
    with pytest.raises(ValueError):
        deliver(mn(2, 1), (0, 2), lib)
    with pytest.raises(ValueError):
        deliver(mn(2, 1), (0,), lib)


def test_decode_round_mn_2_1():
    p = mn(2, 1)
    lib = make_library(2, 7, 2, seed=4)
    caches = place(p, lib)
    tx = deliver(p, (0, 1), lib)
    assert decode(p, 0, (0, 1), caches, tx)[:7] == lib.files[0]
    assert decode(p, 1, (0, 1), caches, tx)[:7] == lib.files[1]


def test_decode_full_cache_needs_no_transmissions():
    p = all_star(2, 2)
    lib = make_library(3, 5, 2, seed=5)
    caches = place(p, lib)
    assert decode(p, 0, (2, 1), caches, [])[:5] == lib.files[2]


def test_yan_end_to_end():
    p = yan_half_memory(4)
    rng = random.Random(6)
    lib = make_library(8, 64, p.rows, seed=7)
    caches = place(p, lib)
    for _ in range(5):
        demands = [rng.randrange(8) for _ in range(p.cols)]
        tx = deliver(p, demands, lib)
        for k in range(p.cols):
            assert decode(p, k, demands, caches, tx)[:64] == lib.files[demands[k]]


def test_run_ten_by_ten_example():
    p = parse_grid(printed.ODD_LIFT_10X10_G5_N2)
    report = run(p, n_files=10, file_size=100, seed=11)
    assert report.all_ok
    assert report.achieved_rate == Fraction(6, 10)
    assert report.subpacketization == 10
    assert report.transmissions_count == 6
    assert report.bytes_sent == 6 * 10


def test_run_shangguan_5_2_2():
    report = run(shangguan_direct(5, 2, 2), n_files=10, file_size=50, seed=12)
    assert report.all_ok
    assert report.achieved_rate == Fraction(5, 10)


def test_run_repeated_demands_allowed():
    p = mn(4, 2)
    report = run(p, n_files=2, file_size=32, demands=[1, 1, 0, 1])
    assert report.all_ok


def test_run_rejects_invalid_pda():
    with pytest.raises(InvalidPdaError):
        run(Pda.from_rows([[0, 0]]), 2, 8)


def test_transmissions_equal_label_count():
    rng = random.Random(13)
    for _ in range(20):
        p = random_valid_pda(rng)
        report = run(p, n_files=p.cols, file_size=64, seed=rng.randrange(10**6))
        assert report.all_ok
        assert report.transmissions_count == len(p.labels())
        assert report.bytes_sent == len(p.labels()) * -(-64 // p.rows)


def test_cache_size_accounting():
    p = odd_tiling_lift(5, 2)
    lib = make_library(10, 100, 10, seed=14)
    caches = place(p, lib)
    info = params(p)
    for cache in caches:
        assert len(cache) == lib.n_files * info.z
        assert sum(len(v) for v in cache.values()) == 10 * info.z * lib.subfile_size


def test_deliver_is_linear_in_the_library():
    p = mn(4, 2)
    lib_a = make_library(4, 24, p.rows, seed=15)
    lib_b = make_library(4, 24, p.rows, seed=16)
    lib_x = Library(
        tuple(_xor(a, b) for a, b in zip(lib_a.files, lib_b.files)), 24, p.rows
    )
    demands = (2, 0, 3, 1)
    tx_a = deliver(p, demands, lib_a)
    tx_b = deliver(p, demands, lib_b)
    tx_x = deliver(p, demands, lib_x)
    for ta, tb, txx in zip(tx_a, tx_b, tx_x):
        assert txx.payload == _xor(ta.payload, tb.payload)


def test_blackburn_break_causes_decode_error():
    # valid column balance, broken Blackburn: both zeros share a row
    p = Pda.from_rows([[None, None], [0, 0]])
    assert not validate(p).c3_ok
    lib = make_library(2, 6, 2, seed=17)
    caches = place(p, lib)
    tx = deliver(p, (0, 1), lib)
    with pytest.raises(DecodeError):
        decode(p, 0, (0, 1), caches, tx)


def test_decode_lost_transmission_raises_decode_error():
    p = mn(4, 2)
    demands = [2, 1, 0, 3]
    lib = make_library(4, 60, p.rows, seed=3)
    caches = place(p, lib)
    sent = [t for t in deliver(p, demands, lib) if t.label != 0]
    user = next(k for k in range(p.cols) if 0 in p.column(k))
    with pytest.raises(DecodeError, match="no transmission for label 0"):
        decode(p, user, demands, caches, sent)


def test_decode_empty_own_cache_raises_decode_error():
    p = mn(4, 2)
    demands = [2, 1, 0, 3]
    lib = make_library(4, 60, p.rows, seed=3)
    sent = deliver(p, demands, lib)
    empty = tuple({} for _ in range(p.cols))
    assert p.cell(0, 0) is None
    with pytest.raises(DecodeError, match=r"\(file 2, subfile 0\)"):
        decode(p, 0, demands, empty, sent)


def test_mutation_fuzz_invalid_or_undecodable():
    rng = random.Random(18)
    broken_runs = 0
    for _ in range(30):
        p = random_valid_pda(rng, max_cells=60)
        index = p.label_positions()
        if not index:
            continue
        # flip a mirrored star of some equal-label pair to a fresh label
        label, cells = next(iter(sorted(index.items())))
        if len(cells) < 2:
            continue
        (j1, _k1), (_j2, k2) = cells[0], cells[1]
        mutated_cells = list(p.cells)
        mutated_cells[j1 * p.cols + k2] = max(index) + 1
        q = Pda(p.rows, p.cols, tuple(mutated_cells))
        if validate(q).ok:
            continue
        broken_runs += 1
        if not validate(q).c3_ok:
            lib = make_library(q.cols, 16, q.rows, seed=rng.randrange(10**6))
            caches = place(q, lib)
            failed = False
            for _ in range(20):
                demands = [rng.randrange(q.cols) for _ in range(q.cols)]
                tx = deliver(q, demands, lib)
                for k in range(q.cols):
                    try:
                        ok = decode(q, k, demands, caches, tx)[:16] == lib.files[demands[k]]
                    except DecodeError:
                        ok = False
                    if not ok:
                        failed = True
            assert failed
    assert broken_runs > 5


def test_decode_user_outside_the_columns_raises_decode_error():
    p = mn(4, 2)
    demands = [2, 1, 0, 3]
    lib = make_library(4, 60, p.rows, seed=3)
    caches, sent = place(p, lib), deliver(p, demands, lib)
    for user in (4, 7, -1):
        with pytest.raises(DecodeError, match=rf"user {user} out of range \[0,4\)"):
            decode(p, user, demands, caches, sent)


# User 0 caches files 0..3 at rows 0..2 and demands file 2; user 1 reads label 0
# at row 1 first, and user 2 reads it at row 0 with user 1's (1, 1) as its peer.
@pytest.mark.parametrize(
    "user, cache_cut, payload_cut, message, witness",
    [
        (7, {}, None, "user 7 out of range [0,4)", UserOutOfRange(7, 4)),
        (0, {(2, 0): None}, None, "user 0 misses its own cached subfile (file 2, subfile 0)",
         MissingSubfile(0, 2, 0, None)),
        (1, {}, "drop", "user 1 received no transmission for label 0", MissingTransmission(1, 0)),
        (2, {(1, 1): None}, None, "user 2 misses peer subfile (file 1, subfile 1) needed to decode label 0",
         MissingSubfile(2, 1, 1, 0)),
        (1, {}, 3, "label 0 payload has 3 bytes, not 10", WrongLength(0, 3, 10)),
        (0, {(2, 0): 4}, None, "user 0 cached subfile (file 2, subfile 0) has 4 bytes, not 10",
         WrongLength((2, 0), 4, 10)),
        (0, {(0, 0): 4}, None, "user 0 cached subfile (file 0, subfile 0) has 4 bytes, not 10",
         WrongLength((0, 0), 4, 10)),
    ],
    ids=["user", "own-subfile", "transmission", "peer-subfile", "payload-length", "cached-length",
         "first-value-length"],
)
def test_each_decode_error_carries_its_witness(user, cache_cut, payload_cut, message, witness):
    p, demands = mn(4, 2), [2, 1, 0, 3]
    lib = make_library(4, 60, p.rows, seed=3)
    caches, sent = place(p, lib), deliver(p, demands, lib)
    for key, n in cache_cut.items():
        if n is None:
            del caches[user][key]
        else:
            caches[user][key] = caches[user][key][:n]
    if payload_cut == "drop":
        del sent[0]
    elif payload_cut is not None:
        sent[0] = Transmission(0, sent[0].payload[:payload_cut])
    with pytest.raises(DecodeError) as err:
        decode(p, user, demands, caches, sent)
    assert (str(err.value), err.value.report) == (message, witness)


def test_decode_demand_vector_of_wrong_length_raises_value_error_as_deliver_does():
    p = mn(4, 2)
    demands = [2, 1, 0, 3]
    lib = make_library(4, 60, p.rows, seed=3)
    caches, sent = place(p, lib), deliver(p, demands, lib)
    for wrong in (demands[:3], demands + [0]):
        message = rf"^need 4 demands, got {len(wrong)}$"
        for call in (lambda: decode(p, 0, wrong, caches, sent), lambda: deliver(p, wrong, lib)):
            with pytest.raises(ValueError, match=message) as err:
                call()
            assert type(err.value) is ValueError


def _swap_values(values, label_or_key, make):
    """``values`` (a list of transmissions or a cache dict) with one value remade."""
    if isinstance(values, dict):
        return {**values, label_or_key: make(values[label_or_key])}
    return [(s, make(v) if s == label_or_key else v) for s, v in values]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c, t: (c, _swap_values(t, 0, lambda v: "x" * len(v))),
         "transmissions must hold bytes, got str for label 0"),
        (lambda c, t: (c, _swap_values(t, 0, bytearray)),
         "transmissions must hold bytes, got bytearray for label 0"),
        (lambda c, t: (c, [(0, None)]), "transmissions must hold bytes, got NoneType for label 0"),
        (lambda c, t: ((_swap_values(c[0], (2, 1), lambda v: "x" * len(v)), *c[1:]), t),
         "caches[0] must hold bytes, got str for key (2, 1)"),
        (lambda c, t: ((_swap_values(c[0], (1, 1), bytearray), *c[1:]), t),
         "caches[0] must hold bytes, got bytearray for key (1, 1)"),
        (lambda c, t: ([[1]] * 4, t), "caches[0] must be a dict, got list"),
    ],
    ids=["str-payload", "bytearray-payload", "None-payload", "str-own-subfile",
         "bytearray-peer", "list-cache"],
)
def test_decode_values_that_are_not_bytes_raise_value_error_naming_them(edit, message):
    p = mn(4, 2)
    demands = [2, 1, 0, 3]
    lib = make_library(4, 60, p.rows, seed=3)
    for caches in (place(p, lib), oracle_place(p, lib)):
        sent = deliver(p, demands, lib)
        edited, transmissions = edit(caches, sent)
        with pytest.raises((ValueError, TypeError, AttributeError, DecodeError)) as err:
            decode(p, 0, demands, edited, transmissions)
        assert (type(err.value), str(err.value)) == (ValueError, message)
        assert decode(p, 0, demands, caches, sent)[:60] == lib.files[demands[0]]


@pytest.mark.parametrize("user", [None, 1.0, "0"], ids=["None", "float", "str"])
def test_decode_user_that_is_not_an_int_raises_value_error(user):
    p = mn(4, 2)
    demands = [2, 1, 0, 3]
    lib = make_library(4, 60, p.rows, seed=3)
    with pytest.raises((ValueError, TypeError)) as err:
        decode(p, user, demands, place(p, lib), deliver(p, demands, lib))
    assert (type(err.value), str(err.value)) == (
        ValueError, f"user must be an int, got {type(user).__name__}"
    )


@pytest.mark.parametrize(
    "cut, length",
    [(lambda b: b[:3], 3), (lambda b: b + b"\x00", 11), (lambda b: b"", 0)],
    ids=["truncated", "over-long", "empty"],
)
def test_decode_payload_of_wrong_length_raises_decode_error(cut, length):
    p = mn(4, 2)
    demands = [2, 1, 0, 3]
    lib = make_library(4, 60, p.rows, seed=3)
    assert lib.subfile_size == 10
    sent = deliver(p, demands, lib)
    assert sent[0].label == 0
    sent[0] = Transmission(0, cut(sent[0].payload))
    for caches in (place(p, lib), oracle_place(p, lib)):
        for k in range(p.cols):
            if 0 in p.column(k):
                with pytest.raises(
                    DecodeError, match=rf"^label 0 payload has {length} bytes, not 10$"
                ):
                    decode(p, k, demands, caches, sent)
            else:
                assert decode(p, k, demands, caches, sent)[:60] == lib.files[demands[k]]


def _values_read(p, user, demands, cache):
    """Cache keys ``decode`` reads for ``user``: its first cached value,
    which sets the subfile size, its own subfiles and its peers."""
    keys = {next(iter(cache))}
    for j, s in enumerate(p.column(user)):
        if s is None:
            keys.add((demands[user], j))
            continue
        keys |= {(demands[k], j2) for j2, k in p.label_positions()[s] if k != user}
    return keys


@pytest.mark.parametrize("make_caches", [place, oracle_place])
def test_decode_cached_subfile_of_wrong_length_raises_decode_error(make_caches):
    # User 3 reads labels before any subfile of its own, so a first cached
    # value cut short must not meet the other users' memo.
    p, user, demands = mn(4, 2), 3, [0, 1, 2, 3]
    lib = make_library(4, 60, p.rows, seed=3)
    sent = deliver(p, demands, lib)
    cache = make_caches(p, lib)[user]
    assert next(iter(cache)) == (0, 2) and p.column(user) == (1, 2, None, 3, None, None)
    peers = {(0, 4), (1, 2), (0, 5), (2, 2), (1, 5), (2, 4)}
    assert _values_read(p, user, demands, cache) == {(0, 2), (3, 2), (3, 4), (3, 5)} | peers
    cases = [
        ("peer grown", (2, 4), lambda b: b + b"\x00", 11),
        ("peer cut", (1, 2), lambda b: b[:4], 4),
        ("own subfile cut", (3, 4), lambda b: b[:4], 4),
        ("first cached value cut", (0, 2), lambda b: b[:4], 4),
    ]
    for (name, key, edit, length), holders, victim_first in product(
        cases, ("user", "every holder"), (True, False)
    ):
        caches = make_caches(p, lib)
        edited = [user] if holders == "user" else [k for k in range(p.cols) if key in caches[k]]
        for k in edited:
            caches[k][key] = edit(caches[k][key])
        others = [k for k in range(p.cols) if k != user]
        for k in [user, *others] if victim_first else [*others, user]:
            if k in edited and key in _values_read(p, k, demands, caches[k]):
                with pytest.raises(
                    DecodeError,
                    match=rf"^user {k} cached subfile \(file {key[0]}, subfile {key[1]}\) "
                    rf"has {length} bytes, not 10$",
                ):
                    decode(p, k, demands, caches, sent)
            else:
                assert decode(p, k, demands, caches, sent)[:60] == lib.files[k], (name, k)


def test_subfiles_equal_slices_of_the_padded_file():
    rng = random.Random(23)
    for file_size in (1, 5, 6, 7, 97, 1000, 1001):
        for f in (1, 2, 3, 6, 7, 10):
            lib = make_library(2, file_size, f, seed=rng.randrange(10**6))
            size = lib.subfile_size
            for i in range(lib.n_files):
                padded = lib.files[i].ljust(f * size, b"\x00")
                for j in range(f):
                    assert lib.subfile(i, j) == padded[j * size : (j + 1) * size]


def test_make_library_rejects_unusable_sizes():
    for args, message in (
        ((0, 8, 2), "need at least one file, got 0"),
        ((2, -5, 2), "file size must be non-negative, got -5"),
        ((2, 8, 0), "subpacketization must be positive, got 0"),
    ):
        with pytest.raises(ValueError, match=message):
            make_library(*args)
    assert make_library(2, 0, 3).files == (b"", b"")


@pytest.mark.parametrize(
    "i, j, message",
    [
        (0, 3, "subfile 3 is out of range"),
        (0, -1, "subfile -1 is out of range"),
        (0, 7, "subfile 7 is out of range"),
        (-1, 0, "file -1 is out of range"),
        (2, 0, "file 2 is out of range"),
        (2, 3, "file 2 is out of range"),
    ],
    ids=["subfile-f", "subfile-negative", "subfile-past-f", "file-negative", "file-n", "both"],
)
def test_subfile_index_out_of_range_raises_value_error_naming_it(i, j, message):
    lib = make_library(2, 10, 3)
    with pytest.raises(ValueError) as err:
        lib.subfile(i, j)
    assert (type(err.value), str(err.value)) == (
        ValueError, f"{message} for a library of 2 files split into 3 subfiles"
    )


@pytest.mark.parametrize(
    "files, file_size, f, message",
    [
        (None, 1, 1, "files must be a tuple, got NoneType"),
        ([b"a"], 1, 1, "files must be a tuple, got list"),
        ((), 0, 1, "need at least one file, got 0"),
        ((), -1, 0, "need at least one file, got 0"),
        ((b"abc",), -1, 0, "file size must be non-negative, got -1"),
        ((b"abc",), 3.0, 2, "file_size must be an int, got float"),
        ((b"abc",), True, 2, "file_size must be an int, got bool"),
        ((b"abc",), 3, 0, "subpacketization must be positive, got 0"),
        ((b"abc",), 3, "2", "f must be an int, got str"),
        ((b"abc",), 10, 2, "file 0 has 3 bytes, not 10"),
        ((b"abc", b"ab"), 3, 2, "file 1 has 2 bytes, not 3"),
        ((b"abc", "abc"), 3, 2, "files must hold bytes, got str for file 1"),
        ((b"abc", bytearray(b"abc")), 3, 2, "files must hold bytes, got bytearray for file 1"),
    ],
    ids=["files-None", "files-list", "no-files", "no-files-first", "size-before-f", "size-float",
         "size-bool", "f-zero", "f-str", "short-file", "second-file-short", "str-file",
         "bytearray-file"],
)
def test_library_refuses_files_and_sizes_that_disagree(files, file_size, f, message):
    with pytest.raises(ValueError) as err:
        Library(files, file_size, f)
    assert (type(err.value), str(err.value)) == (ValueError, message)


def test_byte_path_matches_pairwise_oracle():
    rng = random.Random(29)
    for _ in range(40):
        p = random_valid_pda(rng, max_cells=120)
        f = p.rows
        for file_size in sorted({0, 1, f, 3 * f, 3 * f + 1 + rng.randrange(max(f - 1, 1))}):
            n_files = rng.randint(1, 3)
            lib = make_library(n_files, file_size, f, seed=rng.randrange(10**6))
            demands = [rng.randrange(n_files) for _ in range(p.cols)]
            caches = place(p, lib)
            reference = oracle_place(p, lib)
            assert caches == reference
            assert [list(c) for c in caches] == [list(c) for c in reference]
            shared: dict = {}
            for cache in caches:
                for key, sub in cache.items():
                    assert type(sub) is bytes
                    assert shared.setdefault(key, sub) is sub
            sent = deliver(p, demands, lib)
            assert [(t.label, t.payload) for t in sent] == oracle_deliver(p, demands, lib)
            for k in range(p.cols):
                decoded = decode(p, k, demands, caches, sent)
                assert decoded == oracle_decode(p, k, demands, reference, sent)
                assert decoded[:file_size] == lib.files[demands[k]]


def test_tampered_cache_changes_only_its_own_users_result():
    rng = random.Random(41)
    tampered = 0
    for _ in range(40):
        p, lib, demands, caches, sent = _round_with_labels(rng)
        plain = oracle_place(p, lib)
        users = [k for k, cache in enumerate(plain) if cache]
        if not users:
            continue
        victim = rng.choice(users)
        key = rng.choice(sorted(plain[victim]))
        forged = bytes(b ^ 0xA5 for b in plain[victim][key])
        for c in (caches, plain):
            c[victim][key] = forged
        order = list(range(p.cols))
        rng.shuffle(order)
        for k in order:
            decoded = decode(p, k, demands, caches, sent)
            assert decoded == oracle_decode(p, k, demands, caches, sent)
            assert decoded == decode(p, k, demands, plain, sent)
        tampered += 1
    assert tampered > 20


def test_decode_memo_holds_at_most_one_round():
    rng = random.Random(43)
    for p in (mn(4, 2), yan_half_memory(4), odd_tiling_lift(5, 2)):
        lib = make_library(p.cols, 40, p.rows, seed=rng.randrange(10**6))
        caches = place(p, lib)
        cached = {sub for cache in caches for sub in cache.values()}
        for _ in range(20):
            demands = [rng.randrange(p.cols) for _ in range(p.cols)]
            sent = deliver(p, demands, lib)
            for k in range(p.cols):
                assert decode(p, k, demands, caches, sent)[:40] == lib.files[demands[k]]
            peers = {
                (demands[k2], j2)
                for cells in p.label_positions().values()
                for _, k in cells
                for j2, k2 in cells
                if k2 != k
            }
            assert sent.ints
            assert len(sent.ints) <= len(cached) + len(sent)
            assert len(sent.ints) <= len(peers) + len(sent)


@pytest.mark.parametrize("make_caches", [place, oracle_place])
def test_every_user_decodes_through_the_one_memo_its_broadcast_carries(make_caches):
    p, demands = mn(4, 2), [2, 1, 0, 3]
    lib = make_library(4, 60, p.rows, seed=3)
    caches = make_caches(p, lib)
    assert type(caches) is tuple
    sent = deliver(p, demands, lib)
    memo = sent.ints
    at_labels = {
        lib.subfile(demands[k], j) for cells in p.label_positions().values() for j, k in cells
    }
    converted = {b: int.from_bytes(b, "big") for b in at_labels | {t.payload for t in sent}}
    assert (sent.size, memo) == (10, converted)
    for k in range(p.cols):
        assert decode(p, k, demands, caches, sent)[:60] == lib.files[demands[k]]
    assert sent.ints is memo
    assert memo == converted
    again = deliver(p, demands, lib)
    assert again.ints == converted and again.ints is not memo


def test_the_library_caches_and_broadcast_share_one_object_per_subfile():
    p, demands = mn(4, 2), [2, 1, 0, 3]
    lib = make_library(4, 59, p.rows, seed=3)
    caches, sent = place(p, lib), deliver(p, demands, lib)
    for cache in caches:
        for (i, j), sub in cache.items():
            assert sub is lib.subfile(i, j)
    keys = {b: b for b in sent.ints}
    for s, cells in p.label_positions().items():
        assert sent.headers[s] == tuple((k, (demands[k], j)) for j, k in cells)
        for j, k in cells:
            assert keys[lib.subfile(demands[k], j)] is lib.subfile(demands[k], j)
    assert (sent.pda, sent.demands) == (p, tuple(demands))


def _outcome(call):
    """What ``call()`` returns, or the type, message and witness of the error it raises."""
    try:
        return call()
    except (DecodeError, ValueError) as err:
        return type(err), str(err), getattr(err, "report", None)


def _tamper(rng, caches):
    """Caches with one value of one user flipped, cut short, dropped or left alone."""
    caches = tuple(dict(c) for c in caches)
    users = [k for k, cache in enumerate(caches) if cache]
    kind = rng.choice(["flip", "cut", "drop", "none"])
    if users and kind != "none":
        cache = caches[rng.choice(users)]
        key = rng.choice(sorted(cache))
        if kind == "drop":
            del cache[key]
        else:
            value = cache[key]
            cache[key] = bytes(b ^ 0x5A for b in value) if kind == "flip" else value[:-1]
    return caches


def test_decode_agrees_with_the_oracle_whatever_header_and_memo_it_reads_property():
    rng = random.Random(47)
    paths = 0
    for _ in range(60):
        p, lib, demands, caches, sent = _round_with_labels(rng)
        caches = _tamper(rng, caches)
        other = [rng.randrange(lib.n_files) for _ in range(p.cols)]
        if other == demands:
            other[rng.randrange(p.cols)] = lib.n_files  # a file the library lacks
        q = Pda.from_rows(p.row(j)[1:] + p.row(j)[:1] for j in range(p.rows))
        assert validate(q).ok and q.labels() == p.labels()
        elsewhere = deliver(q, demands, lib)
        order = list(range(p.cols))
        rng.shuffle(order)
        for k, (wanted, transmissions) in product(
            order, [(demands, sent), (other, sent), (demands, elsewhere)]
        ):
            via_broadcast = _outcome(lambda: decode(p, k, wanted, caches, transmissions))
            fresh = _outcome(lambda: decode(p, k, wanted, caches, list(transmissions)))
            assert via_broadcast == fresh
            try:
                reference = oracle_decode(p, k, wanted, caches, transmissions)
            except KeyError:
                assert type(fresh) is tuple and fresh[0] is DecodeError
                continue
            if type(fresh) is bytes:
                assert fresh == reference
            else:  # the oracle XORs values of any length
                assert fresh[0] is DecodeError and type(fresh[2]) is WrongLength
            paths += 1
    assert paths > 500


def _round_with_labels(rng):
    """A valid PDA with at least one label and one caching round over
    non-empty subfiles: (p, lib, demands, caches, transmissions)."""
    while True:
        p = random_valid_pda(rng, max_cells=120)
        if p.labels():
            break
    n_files = rng.randint(1, 4)
    lib = make_library(n_files, rng.randint(1, 5 * p.rows), p.rows, seed=rng.randrange(10**6))
    demands = [rng.randrange(n_files) for _ in range(p.cols)]
    return p, lib, demands, place(p, lib), deliver(p, demands, lib)


def test_dropped_transmission_fails_exactly_the_users_holding_its_label():
    rng = random.Random(31)
    for _ in range(40):
        p, lib, demands, caches, sent = _round_with_labels(rng)
        drop = rng.randrange(len(sent))
        s = sent[drop].label
        kept = sent[:drop] + sent[drop + 1 :]
        for k in range(p.cols):
            if s in p.column(k):
                with pytest.raises(
                    DecodeError, match=rf"^user {k} received no transmission for label {s}$"
                ):
                    decode(p, k, demands, caches, kept)
            else:
                decoded = decode(p, k, demands, caches, kept)
                assert decoded[: lib.file_size] == lib.files[demands[k]]


def test_corrupted_payload_spoils_one_byte_of_one_subfile_per_holder():
    rng = random.Random(37)
    for _ in range(40):
        p, lib, demands, caches, sent = _round_with_labels(rng)
        hit = rng.randrange(len(sent))
        s, payload = sent[hit].label, bytearray(sent[hit].payload)
        offset, mask = rng.randrange(len(payload)), 1 << rng.randrange(8)
        payload[offset] ^= mask
        corrupted = list(sent)
        corrupted[hit] = Transmission(s, bytes(payload))
        size = lib.subfile_size
        for k in range(p.cols):
            decoded = decode(p, k, demands, caches, corrupted)
            wanted = lib.files[demands[k]].ljust(p.rows * size, b"\x00")
            diff = [(x, a ^ b) for x, (a, b) in enumerate(zip(decoded, wanted)) if a != b]
            column = p.column(k)
            if s in column:
                assert diff == [(column.index(s) * size + offset, mask)]
            else:
                assert diff == []


def test_every_valid_array_decodes_under_every_demand_vector_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.randoms(use_true_random=False), st.data())
    def check(rng, data):
        p = random_valid_pda(rng, max_cells=60)
        n_files = data.draw(st.integers(1, 5), label="n_files")
        demands = data.draw(
            st.lists(st.integers(0, n_files - 1), min_size=p.cols, max_size=p.cols),
            label="demands",
        )
        file_size = data.draw(st.integers(0, 4 * p.rows), label="file_size")
        report = run(p, n_files, file_size, demands=demands, seed=rng.randrange(10**6))
        assert report.all_ok
        assert report.transmissions_count == len(p.labels())

    check()

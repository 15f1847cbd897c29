"""The argument contract: a malformed array argument is a ValueError naming it.

Each row of ``_ROWS`` is a public function, a valid argument list, and the
array arguments to break, each with the name its error must use.  An
argument is a position in the list, or a position and an index for one
member of a list of arrays.  Every such argument is replaced in turn by
each value of ``_BAD``; the call must raise exactly ``ValueError:
<name> must be a Pda, got <type>``, never an ``AttributeError``,
``KeyError``, ``IndexError`` or ``TypeError``.

The rows of ``_SEQUENCE_ROWS`` do the same for the arguments that are
sequences (member and part lists, demands, caches, transmissions): each
value of ``_NOT_SEQUENCES`` must raise exactly ``ValueError: <name> must
be a sequence, got <type>``, and every list of arrays that must not be
empty refuses an empty one, list or iterator, with one message.  The
integer offsets, label counts and construction parameters, the reference maps and the family
arguments get the same exact ``ValueError``: ``<name> must be an int``,
``a dict``, ``a sequence`` or ``a GenFamily``; the library, grid text
and parameter tuples get ``a Library``, ``a str``, ``a ParamTuple`` or
``a PdaParams``, and a bool demand is refused like any other non-int.
Of the caches and demands otherwise only their type and per-user count
are checked here.
"""

import os

import pytest

from pdakit.compatibility import (
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
    g_array,
    h_array,
    identity,
    mn,
    mn_reverse,
    odd_tiling,
    shangguan_direct,
    yan_half_memory,
)
from pdakit.core import Pda, canonicalize, disjoint_copy, hstack, params, relabel, validate, vstack
from pdakit.errors import DecodeError, PdaError
from pdakit.gridio import parse_grid, pda_to_json, save_pda, serialize_grid
from pdakit.lifting import (
    ParamTuple,
    assemble_identity_lift,
    basic_lift,
    lift_family,
    lift_family_params,
    lifted_params,
    measure_family,
    mn_recursive,
    nonuniform_lift,
    odd_tiling_lift,
    shangguan_recursive,
    uniform_lift,
)
from pdakit.simulate import decode, deliver, make_library, place, run

_P = mn(4, 2)
_DEMANDS = [2, 1, 0, 3]
_LIB = make_library(4, 60, _P.rows, seed=3)
_CACHES = place(_P, _LIB)
_SENT = deliver(_P, _DEMANDS, _LIB)
_ODD = odd_tiling(3)
_H3 = [h_array(3), h_array(3, [2, 1, 0])]
_Q = [h_array(2), h_array(2)]

_BAD = [None, [[None]], "x", {(0, 1): None}]

_ROWS = [
    (validate, [_P], {0: "array"}),
    (params, [_P], {0: "array"}),
    (relabel, [_P, {s: s + 1 for s in _P.labels()}], {0: "array"}),
    (canonicalize, [_P], {0: "array"}),
    (disjoint_copy, [_P, 3], {0: "array"}),
    (hstack, [[_P, _P]], {(0, 0): "part 0", (0, 1): "part 1"}),
    (vstack, [[_P, _P]], {(0, 0): "part 0", (0, 1): "part 1"}),
    (serialize_grid, [_P], {0: "array"}),
    (pda_to_json, [_P], {0: "array"}),
    (save_pda, [_P, os.devnull], {0: "array"}),
    (run, [_P, 4, 60], {0: "array"}),
    (place, [_P, _LIB], {0: "array"}),
    (deliver, [_P, _DEMANDS, _LIB], {0: "array"}),
    (decode, [_P, 0, _DEMANDS, _CACHES, _SENT], {0: "array"}),
    (is_right_compatible, [_P, _P, _P],
     {0: "first array", 1: "second array", 2: "right reference"}),
    (is_left_compatible, [_P, _P, _P],
     {0: "first array", 1: "second array", 2: "left reference"}),
    (is_blackburn_compatible, [_P, _P, _P],
     {0: "first array", 1: "second array", 2: "reference"}),
    (check_condition_cstar, [_H3, all_star(3, 3)],
     {(0, 0): "member 0", (0, 1): "member 1", 1: "reference"}),
    (uniform_lift, [h_array(2), [_ODD.p0, _ODD.p1], _ODD.pstar],
     {0: "base", (1, 0): "member 0", (1, 1): "member 1", 2: "reference"}),
    (basic_lift, [h_array(2), mn(3, 1)], {0: "base", 1: "member"}),
    (lift_family, [_H3, all_star(3, 3), _Q, all_star(2, 2)],
     {(0, 0): "member 0", (0, 1): "member 1", 1: "reference",
      (2, 0): "q-member 0", (2, 1): "q-member 1", 3: "q-reference"}),
    (measure_family, [[_ODD.p0, _ODD.p1], _ODD.pstar],
     {(0, 0): "member 0", (0, 1): "member 1", 1: "reference"}),
]

_NOT_SEQUENCES = [None, 1.5]

_SEQUENCE_ROWS = [
    (uniform_lift, [h_array(2), [_ODD.p0, _ODD.p1], _ODD.pstar], {1: "members"}),
    (lift_family, [_H3, all_star(3, 3), _Q, all_star(2, 2)],
     {0: "members", 2: "q-members"}),
    (assemble_identity_lift, [[_P], {}], {0: "members"}),
    (nonuniform_lift, [[_P], {}], {0: "members"}),
    (deliver, [_P, _DEMANDS, _LIB], {1: "demands"}),
    (decode, [_P, 0, _DEMANDS, _CACHES, _SENT],
     {2: "demands", 3: "caches", 4: "transmissions"}),
    (run, [_P, 4, 60, _DEMANDS], {3: "demands"}),
    (measure_family, [[_ODD.p0, _ODD.p1], _ODD.pstar], {0: "members"}),
    (check_condition_cstar, [_H3, all_star(3, 3)], {0: "members"}),
    (hstack, [[_P, _P]], {0: "parts"}),
    (vstack, [[_P, _P]], {0: "parts"}),
]


def _replaced(args, where, bad):
    args = list(args)
    if type(where) is tuple:
        i, j = where
        args[i] = list(args[i])
        args[i][j] = bad
    else:
        args[where] = bad
    return args


_CASES = [
    pytest.param(fn, _replaced(args, where, bad), f"{what} must be a Pda, got {type(bad).__name__}",
                 id=f"{fn.__name__}-{where}-{type(bad).__name__}")
    for fn, args, slots in _ROWS
    for where, what in slots.items()
    for bad in _BAD
]

_SEQUENCE_CASES = [
    pytest.param(fn, _replaced(args, where, bad),
                 f"{what} must be a sequence, got {type(bad).__name__}",
                 id=f"{fn.__name__}-{where}-{type(bad).__name__}")
    for fn, args, slots in _SEQUENCE_ROWS
    for where, what in slots.items()
    for bad in _NOT_SEQUENCES
    if not (fn is run and bad is None)  # run draws demands for None
]


def test_every_row_passes_with_its_valid_arguments():
    for fn, args, _ in _ROWS + _SEQUENCE_ROWS:
        fn(*args)


@pytest.mark.parametrize("fn, args, message", _CASES)
def test_a_malformed_array_argument_is_a_value_error_naming_it(fn, args, message):
    with pytest.raises((ValueError, PdaError)) as err:
        fn(*args)
    assert (type(err.value), str(err.value)) == (ValueError, message)


@pytest.mark.parametrize("fn, args, message", _SEQUENCE_CASES)
def test_a_sequence_argument_that_is_not_one_is_a_value_error_naming_it(fn, args, message):
    with pytest.raises((ValueError, TypeError, PdaError)) as err:
        fn(*args)
    assert (type(err.value), str(err.value)) == (ValueError, message)


@pytest.mark.parametrize(
    "members, message",
    [
        (None, "members must be a sequence, got NoneType"),
        ([[None]], "member 0 must be a Pda, got list"),
        ("x", "member 0 must be a Pda, got str"),
        ({(0, 1): None}, "member 0 must be a Pda, got tuple"),
        (1.5, "members must be a sequence, got float"),
    ],
    ids=["None", "list", "str", "dict", "float"],
)
def test_check_condition_cstar_member_list_replaced_whole(members, message):
    with pytest.raises(ValueError) as err:
        check_condition_cstar(members, _P)
    assert (type(err.value), str(err.value)) == (ValueError, message)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: deliver(_P, (d for d in _DEMANDS), _LIB), "demands must be a sequence, got generator"),
        (lambda: run(_P, 4, 60, (d for d in _DEMANDS)), "demands must be a sequence, got generator"),
        (lambda: decode(_P, 0, (d for d in _DEMANDS), _CACHES, _SENT),
         "demands must be a sequence, got generator"),
        (lambda: decode(_P, 0, _DEMANDS, (c for c in _CACHES), _SENT),
         "caches must be a sequence, got generator"),
        (lambda: deliver(_P, set(_DEMANDS), _LIB), "demands must be a sequence, got set"),
        (lambda: decode(_P, 0, set(_DEMANDS), _CACHES, _SENT), "demands must be a sequence, got set"),
        (lambda: decode(_P, 0, _DEMANDS, set(range(4)), _SENT), "caches must be a sequence, got set"),
        (lambda: run(_P, 4, 60, demands="0123"), "demand '0' out of range [0,4)"),
        (lambda: deliver(_P, [0, 1, 2.0, 3], _LIB), "demand 2.0 out of range [0,4)"),
        (lambda: decode(_P, 0, _DEMANDS, _CACHES, "ab"), "transmissions must be (label, payload) pairs"),
        (lambda: decode(_P, 0, _DEMANDS, _CACHES, [None]), "transmissions must be (label, payload) pairs"),
    ],
    ids=["deliver-demands", "run-demands", "decode-demands", "decode-caches",
         "deliver-set-demands", "decode-set-demands", "decode-set-caches", "run-str-demands",
         "deliver-float-demand", "decode-str", "decode-None"],
)
def test_simulator_sequences_that_are_not_sized_or_hold_the_wrong_items(call, message):
    with pytest.raises((ValueError, TypeError, AttributeError, PdaError)) as err:
        call()
    assert (type(err.value), str(err.value)) == (ValueError, message)


def test_member_lists_still_accept_generators():
    members = [_ODD.p0, _ODD.p1]
    assert uniform_lift(h_array(2), (m for m in members), _ODD.pstar) == uniform_lift(
        h_array(2), members, _ODD.pstar
    )
    assert check_condition_cstar((m for m in _H3), all_star(3, 3)).ok


@pytest.mark.parametrize("caches", [(), _CACHES[:3], (*_CACHES, {})], ids=["empty", "short", "long"])
def test_decode_needs_one_cache_per_user(caches):
    with pytest.raises(ValueError) as err:
        decode(_P, 0, _DEMANDS, caches, _SENT)
    assert (type(err.value), str(err.value)) == (ValueError, f"need 4 caches, got {len(caches)}")


_S = all_star(2, 2)

_NON_EMPTY = [
    (lambda xs: check_condition_cstar(xs, _P), "member"),
    (hstack, "part"),
    (vstack, "part"),
    (lambda xs: lift_family(xs, all_star(3, 3), _Q, all_star(2, 2)), "member"),
    (lambda xs: lift_family(_H3, all_star(3, 3), xs, all_star(2, 2)), "q-member"),
    # Label-free members need no q-member by count, but the lifted reference is a basic
    # lift by q-member 0.
    (lambda xs: lift_family([_S, _S], _S, xs, identity(2, 0)), "q-member"),
    (lambda xs: assemble_identity_lift(xs, {}), "member"),
    (lambda xs: nonuniform_lift(xs, {}), "member"),
    (lambda xs: measure_family(xs, _ODD.pstar), "member"),
]


@pytest.mark.parametrize("empty", [list, lambda: iter([]), lambda: (x for x in ())],
                         ids=["list", "iterator", "generator"])
@pytest.mark.parametrize("call, what", _NON_EMPTY,
                         ids=["cstar", "hstack", "vstack", "lift_family-members",
                              "lift_family-q-members", "lift_family-label-free",
                              "assemble_identity_lift", "nonuniform_lift", "measure_family"])
def test_an_empty_list_of_arrays_is_one_value_error(call, what, empty):
    with pytest.raises((ValueError, IndexError, PdaError)) as err:
        call(empty())
    assert (type(err.value), str(err.value)) == (ValueError, f"need at least one {what}")


def test_a_label_free_base_still_lifts_with_an_empty_family():
    blocks = [[disjoint_copy(identity(2, 0), 2 * r + c) for c in range(2)] for r in range(2)]
    assert uniform_lift(_S, [], identity(2, 0)).result == vstack(map(hstack, blocks))


@pytest.mark.parametrize("refs", [{(0, 1): _P}, {(0, 0): _P}], ids=["(0,1)", "(0,0)"])
def test_one_member_refuses_every_reference_key_alike(refs):
    messages = set()
    for call in (
        lambda: nonuniform_lift([_P], refs),
        lambda: assemble_identity_lift([_P], refs),
        lambda: is_generalized_family(GenFamily.of([_P], refs)),
    ):
        with pytest.raises(ValueError) as err:
            call()
        messages.add((type(err.value), str(err.value)))
    key = next(iter(refs))
    assert messages == {(ValueError, f"unexpected reference key {key!r}: keys are pairs "
                                     "(i,j) of distinct member indices below 1")}


@pytest.mark.parametrize("orientation", ["main", "anti"])
def test_one_member_assembles_to_itself(orientation):
    assert assemble_identity_lift([_P], {}, orientation) == _P
    assert nonuniform_lift(iter([_P]), {}, orientation) == _P


@pytest.mark.parametrize("mapping", [None, [1, 2], "abc"], ids=["None", "list", "str"])
def test_relabel_needs_a_mapping(mapping):
    with pytest.raises((ValueError, AttributeError)) as err:
        relabel(_P, mapping)
    message = f"mapping must be a dict, got {type(mapping).__name__}"
    assert (type(err.value), str(err.value)) == (ValueError, message)


@pytest.mark.parametrize(
    "demand, message",
    [
        ([0], "demand [0] must be an int, got list"),
        (None, "demand None must be an int, got NoneType"),
        ("0", "demand '0' must be an int, got str"),
        (0.0, "demand 0.0 must be an int, got float"),
    ],
    ids=["list", "None", "str", "float"],
)
def test_decode_needs_int_demands(demand, message):
    sent = deliver(_P, [0] * 4, _LIB)
    with pytest.raises((ValueError, TypeError, DecodeError)) as err:
        decode(_P, 0, [demand] * 4, _CACHES, sent)
    assert (type(err.value), str(err.value)) == (ValueError, message)


def test_decode_keeps_a_demand_outside_the_library_a_decode_error():
    with pytest.raises(DecodeError, match=r"\(file 9, subfile 0\)"):
        decode(_P, 0, [9, 1, 0, 3], _CACHES, _SENT)


_PAIR = [_P, _P]
_NOT_A_MAPPING = [None, 3, [(0, 1), (1, 0)]]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: disjoint_copy(_P, 1.5), "offset must be an int, got float"),
        (lambda: disjoint_copy(_P, None), "offset must be an int, got NoneType"),
        (lambda: disjoint_copy(_P, True), "offset must be an int, got bool"),
        (lambda: disjoint_copy(None, 1.5), "offset must be an int, got float"),
        (lambda: validate(_P, "a"), "expected_labels must be an int, got str"),
        (lambda: validate(_P, 2.5), "expected_labels must be an int, got float"),
        (lambda: validate(_P, True), "expected_labels must be an int, got bool"),
        (lambda: params(_P, "a"), "expected_labels must be an int, got str"),
        (lambda: params(_P, 2.5), "expected_labels must be an int, got float"),
    ]
    + [
        (lambda fn=fn, refs=refs: fn(_PAIR, refs), f"refs must be a dict, got {type(refs).__name__}")
        for fn in (assemble_identity_lift, nonuniform_lift,
                   lambda members, refs: is_generalized_family(GenFamily(tuple(members), refs)))
        for refs in _NOT_A_MAPPING
    ]
    + [
        (lambda: GenFamily.of(None, {}), "members must be a sequence, got NoneType"),
        (lambda: GenFamily.of(1.5, {}), "members must be a sequence, got float"),
        (lambda: GenFamily.of([_P], None), "refs must be a dict, got NoneType"),
        (lambda: GenFamily.of(_PAIR, [(0, 1), (1, 0)]), "refs must be a dict, got list"),
        (lambda: is_generalized_family(None), "family must be a GenFamily, got NoneType"),
        (lambda: is_generalized_family(_PAIR), "family must be a GenFamily, got list"),
        (lambda: is_generalized_family(GenFamily(None, {})), "members must be a sequence, got NoneType"),
        (lambda: is_generalized_family(GenFamily(iter(_PAIR), {})), "members must be a sequence, got list_iterator"),
        (lambda: decode(_P, True, _DEMANDS, _CACHES, _SENT), "user must be an int, got bool"),
    ],
    ids=["offset-float", "offset-None", "offset-bool", "offset-before-array",
         "validate-str", "validate-float", "validate-bool", "params-str", "params-float"]
    + [f"{where}-refs-{kind}" for where in ("assemble", "nonuniform", "family")
       for kind in ("None", "int", "list")]
    + ["of-members-None", "of-members-float", "of-refs-None", "of-refs-list",
       "family-None", "family-list", "family-members-None", "family-members-iterator",
       "decode-user-bool"],
)
def test_integer_mapping_and_family_arguments_are_value_errors_naming_them(call, message):
    with pytest.raises((ValueError, TypeError, AttributeError, PdaError)) as err:
        call()
    assert (type(err.value), str(err.value)) == (ValueError, message)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mn(None, 2), "K must be an int, got NoneType"),
        (lambda: mn(True, 1), "K must be an int, got bool"),
        (lambda: mn_reverse(4, None), "t must be an int, got NoneType"),
        (lambda: h_array(2.0), "n must be an int, got float"),
        (lambda: h_array(0), "n must be at least 1"),
        (lambda: g_array(None), "n must be an int, got NoneType"),
        (lambda: g_array(2.0), "n must be an int, got float"),
        (lambda: g_array(True), "n must be an int, got bool"),
        (lambda: g_array(0), "n must be at least 1"),
        (lambda: filled(None, 2), "rows must be an int, got NoneType"),
        (lambda: filled(2, 2.0), "cols must be an int, got float"),
        (lambda: all_star(None, 2), "rows must be an int, got NoneType"),
        (lambda: all_star(2, "2"), "cols must be an int, got str"),
        (lambda: all_star(True, 2), "rows must be an int, got bool"),
        (lambda: mn_recursive(5, 2.0), "t must be an int, got float"),
        (lambda: identity(None), "n must be an int, got NoneType"),
        (lambda: identity(3, None), "s must be an int, got NoneType"),
        (lambda: identity(3, set()), "s must be an int, got set"),
        (lambda: identity(3, True), "s must be an int, got bool"),
        (lambda: shangguan_direct(4, 1.0, 1), "a must be an int, got float"),
        (lambda: shangguan_direct(4, 1, None), "b must be an int, got NoneType"),
        (lambda: shangguan_recursive(None, 1, 1), "n must be an int, got NoneType"),
        (lambda: odd_tiling(True), "g must be an int, got bool"),
        (lambda: yan_half_memory(2.0), "g must be an int, got float"),
        (lambda: odd_tiling_lift(3.5, 2), "g must be an int, got float"),
        (lambda: odd_tiling_lift(3, 2.0), "n must be an int, got float"),
        (lambda: make_library(None, 3, 2), "n_files must be an int, got NoneType"),
        (lambda: make_library(4, "3", 2), "file_size must be an int, got str"),
        (lambda: make_library(4, 3, None), "f must be an int, got NoneType"),
        (lambda: run(_P, 2.0, 3), "n_files must be an int, got float"),
    ],
    ids=["mn-K-None", "mn-K-bool", "mn_reverse-t", "h_array-n", "h_array-n-zero", "g_array-n-None",
         "g_array-n-float", "g_array-n-bool", "g_array-n-zero", "filled-rows", "filled-cols",
         "all_star-rows", "all_star-cols", "all_star-rows-bool", "mn_recursive-t", "identity-n",
         "identity-s-None", "identity-s-set", "identity-s-bool",
         "shangguan_direct-a", "shangguan_direct-b", "shangguan_recursive-n", "odd_tiling-g-bool",
         "yan_half_memory-g", "odd_tiling_lift-g", "odd_tiling_lift-n", "make_library-n_files",
         "make_library-file_size", "make_library-f", "run-n_files"],
)
def test_integer_parameters_of_the_constructions_are_value_errors_naming_them(call, message):
    with pytest.raises((ValueError, TypeError, PdaError)) as err:
        call()
    assert (type(err.value), str(err.value)) == (ValueError, message)


@pytest.mark.parametrize("cells", [None, True, 1.5, -1, object(), Pda(1, 1, (None,))],
                         ids=["None", "bool", "float", "int", "object", "Pda"])
def test_pda_cells_that_are_not_a_sequence_are_a_value_error_naming_them(cells):
    with pytest.raises((ValueError, TypeError)) as err:
        Pda(1, 1, cells)
    message = f"cells must be a sequence, got {type(cells).__name__}"
    assert (type(err.value), str(err.value)) == (ValueError, message)
    assert Pda(1, 2, iter([0, None])) == Pda(1, 2, [0, None]) == Pda(1, 2, (0, None))


def test_a_hand_built_empty_family_is_compatible():
    assert is_generalized_family(GenFamily((), {})) == (True, ())


_FAM = ParamTuple(6, 6, 1, 5, 3, 6, 15, 1)
_FAM_Q = ParamTuple(10, 10, 1, 6, 2, 4, 45, 10)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: place(_P, "lib"), "library must be a Library, got str"),
        (lambda: deliver(_P, _DEMANDS, None), "library must be a Library, got NoneType"),
        (lambda: parse_grid(None), "text must be a str, got NoneType"),
        (lambda: parse_grid(b"0 1"), "text must be a str, got bytes"),
        (lambda: lifted_params(params(_P), None), "family must be a ParamTuple, got NoneType"),
        (lambda: lifted_params(params(_P), tuple(_FAM)), "family must be a ParamTuple, got tuple"),
        (lambda: lifted_params(None, _FAM), "base must be a PdaParams, got NoneType"),
        (lambda: lifted_params(tuple(params(_P)), _FAM), "base must be a PdaParams, got tuple"),
        (lambda: lift_family_params(None, _FAM_Q), "p must be a ParamTuple, got NoneType"),
        (lambda: lift_family_params(tuple(_FAM), _FAM_Q), "p must be a ParamTuple, got tuple"),
        (lambda: lift_family_params(_FAM, None), "q must be a ParamTuple, got NoneType"),
        (lambda: lift_family_params(_FAM, tuple(_FAM_Q)), "q must be a ParamTuple, got tuple"),
        (lambda: deliver(_P, [True, 0, 1, 2], _LIB), "demand True out of range [0,4)"),
        (lambda: run(_P, 4, 60, [True, 0, 1, 2]), "demand True out of range [0,4)"),
        (lambda: decode(_P, 0, [True, 0, 1, 2], _CACHES, _SENT), "demand True must be an int, got bool"),
    ],
    ids=["place-library", "deliver-library", "parse_grid-None", "parse_grid-bytes",
         "lifted_params-family-None", "lifted_params-family-tuple", "lifted_params-base-None",
         "lifted_params-base-tuple", "lift_family_params-p-None", "lift_family_params-p-tuple",
         "lift_family_params-q-None", "lift_family_params-q-tuple", "deliver-demand-bool",
         "run-demand-bool", "decode-demand-bool"],
)
def test_library_text_parameter_tuples_and_bool_demands_are_value_errors(call, message):
    with pytest.raises((ValueError, TypeError, AttributeError, PdaError)) as err:
        call()
    assert (type(err.value), str(err.value)) == (ValueError, message)

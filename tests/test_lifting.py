import random
from fractions import Fraction
from math import comb

import pytest

from pdakit.compatibility import GenFamily, is_generalized_family
from pdakit.constructions import (
    all_star,
    filled,
    g_array,
    h_array,
    identity,
    mn,
    odd_tiling,
    shangguan_direct,
)
from pdakit.core import Pda, disjoint_copy, params, relabel, validate
from pdakit.errors import CompatibilityError, InvalidPdaError, LiftError, PdaError
from pdakit.gridio import parse_grid
import pdakit.lifting
from pdakit.lifting import (
    LabelSetMismatch,
    LiftOutcome,
    MemberCount,
    ParamTuple,
    RefOverlap,
    _lift,
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

import printed
from oracles import brute_force_full_ok, oracle_uniform_lift
from randgen import random_valid_pda

# ----------------------------------------------------------- uniform lifting

def test_ten_by_ten_example_reproduced_exactly():
    fam = odd_tiling(5)
    outcome = uniform_lift(h_array(2), [fam.p0, fam.p1], fam.pstar)
    assert outcome.result == parse_grid(printed.ODD_LIFT_10X10_G5_N2)


def test_uniform_lift_ledger_ranges():
    fam = odd_tiling(5)
    outcome = uniform_lift(h_array(2), [fam.p0, fam.p1], fam.pstar)
    ledger = outcome.label_ledger
    # two reference copies (one per base star) then the shared member set
    assert ledger["stars"] == {"0": [0, 1], "1": [1, 2]}
    assert ledger["labels"] == {"0": [2, 6]}
    ranges = sorted(
        [tuple(r) for r in ledger["stars"].values()]
        + [tuple(r) for r in ledger["labels"].values()]
    )
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert outcome.result.labels() == frozenset(range(6))


def test_uniform_lift_single_occurrence_block_substitution():
    base = Pda.from_rows([[0, None], [None, 1]])  # each label occurs once
    member = h_array(3)
    outcome = uniform_lift(base, [member], all_star(3, 3))
    info = params(outcome.result)
    assert (info.k, info.f) == (6, 6)
    assert info.z == 1 * 3 + 1 * 1  # Z_b*Z_ref + (f_b - Z_b)*Z_member
    assert info.s == 6  # one fresh member set per base label


def test_uniform_lift_star_count_formula_counted():
    fam = odd_tiling(3)
    for base in (h_array(2), h_array(3), g_array(3), mn(3, 1)):
        outcome = uniform_lift(base, [fam.p0, fam.p1], fam.pstar)
        got = params(outcome.result)
        zb, fb = params(base).z, params(base).f
        assert got.z == zb * 2 + (fb - zb) * 1  # Z_ref = g-1 = 2, Z_member = g-2 = 1


def test_uniform_lift_argument_errors():
    fam = odd_tiling(5)
    with pytest.raises(LiftError):
        uniform_lift(h_array(2), [fam.p0], fam.pstar)  # two occurrences, one member
    with pytest.raises(ValueError) as err:
        uniform_lift(h_array(2), [fam.p0, identity(3, 0)], fam.pstar)
    assert (type(err.value), str(err.value)) == (ValueError, "member 1 must be 5x5, got 3x3")
    with pytest.raises(LiftError):
        uniform_lift(h_array(2), [fam.p0, identity(5, 9)], fam.pstar)


def test_member_count_error_carries_the_counts():
    fam = odd_tiling(5)
    with pytest.raises(LiftError) as err:
        uniform_lift(h_array(2), [fam.p0], fam.pstar)
    assert str(err.value) == "base needs 2 family members (max label occurrences), got 1"
    assert err.value.report == MemberCount(needed=2, given=1)


def test_label_set_error_carries_the_differing_members():
    fam = odd_tiling(5)
    with pytest.raises(LiftError) as err:
        uniform_lift(h_array(2), [fam.p0, identity(5, 9), fam.p1, identity(5, 3)], fam.pstar)
    assert str(err.value) == "members must share one label set"
    assert err.value.report == LabelSetMismatch(members=(1, 3))


def test_uniform_lift_rejects_incompatible_members():
    # two all-filled single-label blocks sharing a label are never compatible
    # with an identity reference
    base = h_array(2)
    m = identity(2, 0)
    with pytest.raises(CompatibilityError) as err:
        uniform_lift(base, [m, m], identity(2, 7))
    assert err.value.report.witnesses


def test_bypassing_the_compatibility_check_breaks_blackburn():
    base = h_array(2)
    member = identity(2, 0)
    pstar = identity(2, 7)
    with pytest.raises(LiftError, match="lifted array failed validation: .*'C3'") as err:
        _lift(base, [member, member], pstar)
    report = err.value.report
    assert not report.c3_ok and str(err.value).endswith(str(report.violations))


def _shuffled(n, seed):
    labels = list(range(n))
    random.Random(seed).shuffle(labels)
    return labels


@pytest.mark.parametrize("g,n", [(5, 6), (7, 8), (11, 14)])
def test_uniform_lift_matches_per_block_oracle(g, n):
    fam = odd_tiling(g)
    base = h_array(n, _shuffled(n * (n - 1) // 2, g * n))
    outcome = uniform_lift(base, [fam.p0, fam.p1], fam.pstar)
    want, ledger = oracle_uniform_lift(base, [fam.p0, fam.p1], fam.pstar)
    assert outcome.result == want
    assert outcome.label_ledger == ledger


@pytest.mark.parametrize("k,t,m", [(5, 2, 6), (6, 2, 8), (7, 3, 8)])
def test_basic_lift_matches_per_block_oracle(k, t, m):
    base = mn(k, t, _shuffled(comb(k, t + 1), k * t * m))
    p = h_array(m)
    outcome = basic_lift(base, p)
    want, ledger = oracle_uniform_lift(base, [p] * (t + 1), all_star(m, m))
    assert outcome.result == want
    assert outcome.label_ledger == ledger


# ------------------------------------------------------------- basic lifting

def test_basic_lift_identity_by_h_array():
    outcome = basic_lift(identity(6, 0), h_array(10))
    info = params(outcome.result)
    assert (info.k, info.f, info.z, info.s, info.g) == (60, 60, 51, 45, 12)


def test_basic_lift_all_star_base():
    outcome = basic_lift(all_star(2, 2), h_array(3))
    assert outcome.result == all_star(6, 6)


_NOT_A_PDA = Pda(2, 2, (0, 0, None, None))  # label 0 twice in row 0 breaks C3


@pytest.mark.parametrize("base", [all_star(2, 2), h_array(3)], ids=["all-star", "h3"])
def test_basic_lift_validates_its_member(base):
    with pytest.raises(InvalidPdaError) as err:
        basic_lift(base, _NOT_A_PDA)
    message = f"member is not a valid PDA: {validate(_NOT_A_PDA).violations}"
    assert (type(err.value), str(err.value)) == (InvalidPdaError, message)
    assert err.value.report == validate(_NOT_A_PDA)


def test_basic_lift_runs_no_compatibility_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("copies of one array need no compatibility check")

    monkeypatch.setattr(pdakit.lifting, "is_blackburn_compatible", refuse)
    assert params(basic_lift(h_array(3), mn(3, 1)).result).notation() == "4-(9,9,5,9)"


def _count_constructions(monkeypatch) -> list:
    """A list that gains one entry per ``Pda`` built from now on, through
    the checked ``Pda(...)`` or the unchecked ``Pda._of``."""
    built, init, of = [], Pda.__init__, Pda._of.__func__

    def counting(self, *args):
        built.append(args[:2])
        init(self, *args)

    def counting_of(cls, *args):
        built.append(args[:2])
        return of(cls, *args)

    monkeypatch.setattr(Pda, "__init__", counting)
    monkeypatch.setattr(Pda, "_of", classmethod(counting_of))
    return built


def test_a_uniform_lift_builds_only_its_result(monkeypatch):
    base, fam = h_array(6), odd_tiling(5)
    built = _count_constructions(monkeypatch)
    outcome = uniform_lift(base, [fam.p0, fam.p1], fam.pstar)
    assert built == [outcome.result.shape]


def test_a_basic_lift_builds_only_its_reference_and_result(monkeypatch):
    base, p = mn(5, 2), h_array(4)
    built = _count_constructions(monkeypatch)
    outcome = basic_lift(base, p)
    assert built == [p.shape, outcome.result.shape]


def test_basic_lift_multiplies_regularity():
    cases = [
        (identity(3, 0), h_array(4)),
        (h_array(3), mn(3, 1)),
        (g_array(4), identity(2, 0)),
    ]
    for base, p in cases:
        info = params(basic_lift(base, p).result)
        assert info.g == params(base).g * params(p).g


# ------------------------------------------------------------ family lifting

def _transpose_family(n, base_label=0):
    """1-regular members: distinct labels off the diagonal and the transpose
    member; compatible w.r.t. any star-diagonal reference."""
    fresh = iter(range(base_label, base_label + 100))
    grid = [
        [None if i == j else next(fresh) for j in range(n)] for i in range(n)
    ]
    p0 = Pda.from_rows(grid)
    p1 = Pda.from_rows([[grid[j][i] for j in range(n)] for i in range(n)])
    return p0, p1


def test_lift_family_transpose_pair():
    p0, p1 = _transpose_family(3)
    pstar = h_array(3, [100, 101, 102])
    q0, q1 = _transpose_family(3)
    qstar = h_array(3, [100, 101, 102])
    lifted, rstar = lift_family([p0, p1], pstar, [q0, q1], qstar)
    assert len(lifted) == 2
    assert {r.shape for r in lifted} == {(9, 9)}
    assert params(rstar).s > 0  # the new reference is not all-star
    assert brute_force_full_ok(lifted[0], lifted[1], rstar)
    for r in lifted:
        assert validate(r).ok


@pytest.mark.parametrize("n,m", [(4, 5), (6, 6)])
def test_lift_family_matches_per_block_oracle(n, m):
    members = _transpose_family(n)
    pstar = h_array(n, range(n * n, n * n + n * (n - 1) // 2))
    q = _transpose_family(m)
    qstar = h_array(m, range(m * m, m * m + m * (m - 1) // 2))
    lifted, rstar = lift_family(members, pstar, q, qstar)
    assert lifted == tuple(oracle_uniform_lift(p, q, qstar)[0] for p in members)
    assert rstar == oracle_uniform_lift(pstar, [q[0]] * 2, all_star(m, m))[0]


def test_lift_family_rejects_differing_star_positions():
    fam = odd_tiling(3)
    with pytest.raises(ValueError) as err:
        lift_family([fam.p0, fam.p1], fam.pstar, [fam.p0, fam.p1], fam.pstar)
    assert (type(err.value), str(err.value)) == (
        ValueError,
        "members 0 and 1 differ in star positions; coordinated family lifting does not apply",
    )


def test_lift_family_names_an_invalid_first_member():
    bad = Pda.from_rows([[None, 0, 0], [1, None, 2], [3, 4, None]])  # 0 twice in row 0
    q0, q1 = _transpose_family(3)
    with pytest.raises(InvalidPdaError) as err:
        lift_family([bad, bad], h_array(3, [100, 101, 102]), [q0, q1], h_array(3))
    assert str(err.value).startswith("member 0 is not a valid PDA: ")
    assert not err.value.report.ok


@pytest.mark.parametrize(
    "qstar, kind, message",
    [
        (all_star(3, 3), ValueError, "q-reference must be 2x2, got 3x3"),
        (_NOT_A_PDA, InvalidPdaError,
         f"q-reference is not a valid PDA: {validate(_NOT_A_PDA).violations}"),
    ],
    ids=["misshaped", "invalid"],
)
def test_lift_family_names_its_q_reference(qstar, kind, message):
    with pytest.raises((ValueError, PdaError)) as err:
        lift_family(list(_transpose_family(3)), h_array(3, [100, 101, 102]),
                    list(_transpose_family(2)), qstar)
    assert (type(err.value), str(err.value)) == (kind, message)


def test_lift_family_rejects_cstar_violation():
    p0, p1 = _transpose_family(3)
    q0, q1 = _transpose_family(3)
    with pytest.raises(LiftError) as err:
        lift_family([p0, p1], identity(3, 50), [q0, q1], h_array(3))
    report = err.value.report
    assert not report.ok and str(err.value).endswith(str(report.witnesses[0].mirror))


def test_lift_family_checks_its_result_like_its_inputs(monkeypatch):
    # No real input loses compatibility, so a star-free reference with fresh
    # labels stands in for the basic lift: every shared label is a witness.
    p0, p1 = _transpose_family(3)
    q0, q1 = _transpose_family(3)
    fake = LiftOutcome(filled(9, 9, range(1000, 1081)), ())
    monkeypatch.setattr(pdakit.lifting, "basic_lift", lambda base, p: fake)
    with pytest.raises(CompatibilityError) as err:
        lift_family([p0, p1], h_array(3, [100, 101, 102]), [q0, q1], h_array(3))
    assert "lifted members 0 and 1" in str(err.value)
    assert err.value.report.witnesses


def test_lift_family_parameter_chain_eq6():
    p = ParamTuple(6, 6, 1, 5, 3, 6, member_labels=15, ref_labels=1)
    q = ParamTuple(10, 10, 1, 6, 2, 4, member_labels=45, ref_labels=10)
    r = lift_family_params(p, q)
    assert r.notation() == "(60,60)_{11,51}^{3,12}"
    assert (r.member_labels, r.ref_labels) == (735, 45)


def _star_diagonal_family(n):
    return list(_transpose_family(n)), h_array(n, range(n * n, n * n + n * (n - 1) // 2))


# Two stars a column, so the reference copies a member's stars take count in its labels.
_TWO_STARS = Pda.from_rows([[None, None, 0, 1], [None, None, 2, 3], [0, 2, None, None], [1, 3, None, None]])


@pytest.mark.parametrize(
    "p, q",
    [*((_star_diagonal_family(n), _star_diagonal_family(m))
       for n, m in [(3, 3), (4, 5), (5, 4), (6, 6), (3, 7)]),
     (([h_array(3), h_array(3, [2, 1, 0])], all_star(3, 3)), ([h_array(2)] * 2, all_star(2, 2))),
     (([_TWO_STARS, relabel(_TWO_STARS, {0: 3, 1: 2, 2: 1, 3: 0})], all_star(4, 4)),
      _star_diagonal_family(3))],
    ids=["transpose-3-3", "transpose-4-5", "transpose-5-4", "transpose-6-6", "transpose-3-7",
         "h3-by-h2", "two-stars-by-transpose-3"],
)
def test_lift_family_params_describes_the_lifted_family(p, q):
    predicted = lift_family_params(measure_family(*p), measure_family(*q))
    assert predicted == measure_family(*lift_family(*p, *q))


# --------------------------------------------------------- nonuniform lifting

def _worked_members():
    from pdakit.core import hstack, vstack

    p0 = vstack([identity(2, 0), identity(2, 1)])
    p1 = hstack([identity(2, 1), identity(2, 0)])
    return p0, p1


def test_nonuniform_worked_example_exact():
    p0, p1 = _worked_members()
    refs = {(0, 1): identity(4, 2), (1, 0): all_star(2, 2)}
    assert nonuniform_lift([p0, p1], refs, "main") == parse_grid(
        printed.IDENTITY_LIFT_6X6
    )


def test_nonuniform_single_member_unchanged():
    assert nonuniform_lift([mn(3, 1)], {}, "main") == mn(3, 1)


def test_nonuniform_invalid_reference_names_the_pair():
    # anti-identity reference keeps column balance but covers a mirrored star
    p0, p1 = _worked_members()
    refs = {(0, 1): identity(4, 2, anti=True), (1, 0): all_star(2, 2)}
    with pytest.raises(LiftError) as err:
        nonuniform_lift([p0, p1], refs, "main")
    assert "members 0 and 1" in str(err.value)
    (violation,) = err.value.report.violations
    assert violation.condition == "C3" and str(violation.witness[2]) in str(err.value)


def test_nonuniform_z_mismatch_detected():
    p0, p1 = _worked_members()
    refs = {(0, 1): all_star(4, 4), (1, 0): all_star(2, 2)}
    with pytest.raises(LiftError) as err:
        nonuniform_lift([p0, p1], refs, "main")
    assert "star counts" in str(err.value)
    assert not err.value.report.c1_ok


def test_nonuniform_label_overlap_detected():
    p0, p1 = _worked_members()
    refs = {(0, 1): identity(4, 1), (1, 0): all_star(2, 2)}
    with pytest.raises(LiftError) as err:
        nonuniform_lift([p0, p1], refs, "main")
    assert "labels" in str(err.value)


def test_reference_overlap_error_carries_the_key_and_labels():
    p0, p1 = _worked_members()
    refs = {(0, 1): all_star(4, 4), (1, 0): identity(2, 1)}
    with pytest.raises(LiftError) as err:
        nonuniform_lift([p0, p1], refs, "main")
    assert str(err.value) == (
        "reference (1, 0) reuses labels [1]; reference label sets must be disjoint "
        "from each other and from members"
    )
    assert err.value.report == RefOverlap(key=(1, 0), labels=(1,))


def test_assemble_identity_lift_missing_ref():
    with pytest.raises(ValueError):
        assemble_identity_lift([identity(2, 0), identity(2, 1)], {}, "main")


# --------------------------------------------------------------- recursions

@pytest.mark.parametrize(
    "k,t,grid",
    [(2, 1, printed.MN_2_1), (3, 1, printed.MN_3_1), (3, 2, printed.MN_3_2), (4, 2, printed.MN_4_2)],
)
def test_mn_recursive_printed(k, t, grid):
    assert mn_recursive(k, t) == parse_grid(grid)


def test_mn_recursive_equals_direct():
    for k in range(1, 8):
        for t in range(k + 1):
            assert mn_recursive(k, t) == mn(k, t)


@pytest.mark.parametrize(
    "n,a,b,grid",
    [
        (4, 2, 1, printed.SHANGGUAN_4_2_1),
        (4, 1, 2, printed.SHANGGUAN_4_1_2),
        (4, 2, 2, printed.SHANGGUAN_4_2_2),
        (5, 2, 2, printed.SHANGGUAN_5_2_2),
    ],
)
def test_shangguan_recursive_printed(n, a, b, grid):
    assert shangguan_recursive(n, a, b) == parse_grid(grid)


def _outcome(build, *args):
    """The array ``build(*args)`` returns, or the type and message of its error."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_shangguan_recursive_equals_direct():
    # One domain for both: the same array, or the same error, up to one past it.
    refused = []
    for n in range(9):
        for a in range(n + 3):
            for b in range(n + 3 - a):
                direct = _outcome(shangguan_direct, n, a, b)
                assert _outcome(shangguan_recursive, n, a, b) == direct, (n, a, b)
                if type(direct) is tuple:
                    refused.append(direct[1])
    assert "need 0 <= a, b and a+b <= n+1, got a=4, b=6, n=8" in refused
    assert "grid must be at least 1x1, got 0x1" in refused
    assert "grid must be at least 1x1, got 1x0" in refused


def _distinct_lifts(key, children, is_base):
    """Distinct non-base sub-problems reachable from key, the top included."""
    seen, todo = set(), [key]
    while todo:
        key = todo.pop()
        if key in seen or is_base(*key):
            continue
        seen.add(key)
        todo.extend(children(*key))
    return seen


@pytest.mark.parametrize(
    "build,direct,key,children,is_base",
    [
        (
            mn_recursive, mn, (10, 4),
            lambda k, t: [(k - 1, t - 1), (k - 1, t)],
            lambda k, t: t in (0, k),
        ),
        (
            shangguan_recursive, shangguan_direct, (8, 2, 2),
            lambda n, a, b: [(n - 1, a, b - 1), (n - 1, a - 1, b), (n - 1, a, b)],
            lambda n, a, b: min(a, b) == 0 or a + b == n + 1,
        ),
    ],
    ids=["mn", "shangguan"],
)
def test_recursion_lifts_each_sub_problem_once_per_call(
    monkeypatch, build, direct, key, children, is_base
):
    calls = []
    step = pdakit.lifting._assemble_valid

    def counted(blocks):
        calls.append(tuple(tuple(q.shape for q, _ in row) for row in blocks))
        return step(blocks)

    monkeypatch.setattr(pdakit.lifting, "_assemble_valid", counted)
    want = len(_distinct_lifts(key, children, is_base))
    first = build(*key)
    assert len(calls) == want
    # A second call builds everything again: no sub-array outlives a call.
    second = build(*key)
    assert len(calls) == 2 * want
    assert calls[:want] == calls[want:]
    assert first == second == direct(*key)


@pytest.mark.parametrize("n", range(2, 8))
def test_each_recursion_step_is_the_public_anti_diagonal_lift_of_its_family(n):
    # The paper's claim that Shangguan (and MN at b = 1) is a lift, checked
    # through the public non-uniform lift and the generalized-family check.
    for a in range(1, n):
        for b in range(1, n - a + 1):
            members = [shangguan_direct(n - 1, a, b - 1), shangguan_direct(n - 1, a - 1, b)]
            refs = {
                (0, 1): disjoint_copy(shangguan_direct(n - 1, a, b), comb(n - 1, a + b - 1)),
                (1, 0): all_star(comb(n - 1, a - 1), comb(n - 1, b - 1)),
            }
            lifted = nonuniform_lift(members, refs, "anti")
            assert lifted == shangguan_recursive(n, a, b) == shangguan_direct(n, a, b)
            assert is_generalized_family(GenFamily.of(members, refs)).ok


def test_shangguan_recursive_all_star_case():
    assert shangguan_recursive(4, 2, 3) == all_star(comb(4, 2), comb(4, 3))
    assert shangguan_direct(4, 2, 3) == all_star(comb(4, 2), comb(4, 3))


# ------------------------------------------------------------ odd-tiling lift

def test_odd_tiling_lift_parameters():
    info = params(odd_tiling_lift(7, 3))
    assert (info.k, info.f, info.z, info.s, info.g) == (21, 21, 3 * 5 + 1, 3 * 5, 7)


# ------------------------------------------------------- parameter calculus

def test_lifted_params_table_row_g12():
    base = params(mn(4, 2))
    fam = ParamTuple(60, 60, 11, 51, 3, 12, member_labels=735, ref_labels=45)
    out = lifted_params(base, fam)
    assert (out.k, out.f, out.z, out.s, out.g) == (240, 360, 186, 3480, 12)
    assert out.memory_ratio == Fraction(186, 360)
    assert out.rate == Fraction(3480, 360)


def test_lifted_params_g8_chain():
    base = params(h_array(5))
    fam = lift_family_params(
        ParamTuple(6, 6, 1, 4, 2, 4, member_labels=15, ref_labels=3),
        ParamTuple(8, 8, 1, 5, 2, 4, member_labels=28, ref_labels=6),
    )
    assert fam.notation() == "(48,48)_{10,34}^{2,8}"
    out = lifted_params(base, fam)
    assert (out.k, out.f, out.z, out.s, out.g) == (240, 240, 74, 4980, 8)


def test_lifted_params_odd_arithmetic():
    base = params(h_array(2))
    for g, n in [(11, 2), (5, 2), (7, 3)]:
        base = params(h_array(n))
        fam = ParamTuple(g, g, g - 2, g - 1, 2, g, member_labels=4, ref_labels=1)
        out = lifted_params(base, fam)
        assert (out.k, out.f, out.z, out.s, out.g) == (
            g * n,
            g * n,
            n * (g - 2) + 1,
            n * (2 * n - 1),
            g,
        )


def test_lifted_params_agrees_with_constructed_lift():
    for g, n in [(3, 2), (5, 2), (5, 3)]:
        fam = odd_tiling(g)
        tup = measure_family([fam.p0, fam.p1], fam.pstar)
        predicted = lifted_params(params(h_array(n)), tup)
        measured = params(odd_tiling_lift(g, n))
        assert predicted == measured
    # basic lifting viewed as a family of identical members
    p = h_array(10)
    tup = measure_family([p] * 6, all_star(10, 10))
    predicted = lifted_params(params(identity(6, 0)), tup)
    assert predicted == params(basic_lift(identity(6, 0), p).result)


def _regular(rng, max_cells, g=None):
    """A random valid PDA with labels, each occurring g times (the same
    number of times, any number, when g is None)."""
    while True:
        p = random_valid_pda(rng, max_cells)
        got = params(p).g
        if got is not None and g in (None, got):
            return p


def test_lifted_params_and_oracle_agree_with_random_lifts_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 2**32), st.booleans())
    def check(seed, identical):
        rng = random.Random(seed)
        if identical:
            p = _regular(rng, 30)
            base = _regular(rng, 40)
            members = [p] * params(base).g
            pstar = all_star(p.rows, p.cols)
        else:
            fam = odd_tiling(rng.choice([3, 5]))
            labels = sorted(fam.p0.labels())
            perm = dict(zip(labels, rng.sample(range(50), len(labels))))
            members = [relabel(fam.p0, perm), relabel(fam.p1, perm)]
            pstar = fam.pstar
            base = _regular(rng, 40, g=2)
        outcome = uniform_lift(base, members, pstar)
        predicted = lifted_params(params(base), measure_family(members, pstar))
        assert predicted == params(outcome.result)
        want, ledger = oracle_uniform_lift(base, members, pstar)
        assert outcome.result == want
        assert outcome.label_ledger == ledger

    check()


def test_lifted_params_inconsistent_tuples():
    base = params(mn(4, 2))
    with pytest.raises(ValueError):
        lifted_params(base, ParamTuple(60, 60, 11, 51, 3, 12, 734, 45))
    with pytest.raises(ValueError):
        lifted_params(base, ParamTuple(60, 60, 11, 51, 3, 12, 735, 44))
    with pytest.raises(ValueError):
        lifted_params(base, ParamTuple(60, 60, 11, 51, 2, 12, 735, 45))


def test_lift_family_params_requires_label_counts():
    with pytest.raises(ValueError):
        lift_family_params(ParamTuple(6, 6, 1, 5, 3, 6), ParamTuple(8, 8, 1, 5, 2, 4))


def _lifting_error_cases():
    members = list(_transpose_family(3))
    pstar = h_array(3, [100, 101, 102])
    lone = {(0, 1): all_star(2, 2)}
    p = ParamTuple(6, 6, 1, 5, 3, 6, member_labels=15, ref_labels=1)
    odd0 = Pda(3, 3, (500, *members[0].cells[1:]))  # a label on member 0's star (0,0)
    worked = list(_worked_members())
    refs = {(0, 1): identity(4, 2), (1, 0): all_star(2, 2)}
    keys = "keys are pairs (i,j) of distinct member indices below 2"
    return [
        (lambda: lift_family([odd0, members[1], members[1]], pstar, members, pstar), ValueError,
         "members 0 and 1 differ in star positions; coordinated family lifting does not apply"),
        (lambda: nonuniform_lift(worked, {(0, 1): identity(4, 2)}), ValueError,
         "missing reference for pair (1,0)"),
        (lambda: nonuniform_lift(worked, {**refs, (1, 0): all_star(3, 2)}), ValueError,
         "reference (1,0) must be 2x2, got 3x2"),
        (lambda: nonuniform_lift(worked, {**refs, (0, 0): all_star(2, 2)}), ValueError,
         f"unexpected reference key (0, 0): {keys}"),
        (lambda: nonuniform_lift(worked, {**refs, (5, 7): identity(2, 9)}, "anti"), ValueError,
         f"unexpected reference key (5, 7): {keys}"),
        (lambda: nonuniform_lift(worked, {**refs, "x": identity(2, 9)}), ValueError,
         f"unexpected reference key 'x': {keys}"),
        (lambda: nonuniform_lift(worked, {**refs, (1, 0): None}), ValueError,
         "missing reference for pair (1,0)"),
        (lambda: nonuniform_lift(worked, {**refs, (1, 0): [[None]]}), ValueError,
         "reference (1,0) must be a Pda, got list"),
        (lambda: assemble_identity_lift(worked, {**refs, (1, 0): [[None]]}), ValueError,
         "reference (1,0) must be a Pda, got list"),
        (lambda: nonuniform_lift([worked[0], None], refs), ValueError,
         "member 1 must be a Pda, got NoneType"),
        (lambda: nonuniform_lift([worked[0], [[None]]], refs), ValueError,
         "member 1 must be a Pda, got list"),
        (lambda: assemble_identity_lift([None], {}), ValueError,
         "member 0 must be a Pda, got NoneType"),
        (lambda: lift_family_params(p._replace(ref_labels=2), p), ValueError,
         "inconsistent tuple: 2 reference labels at regularity 6 do not cover 6 cells"),
        (lambda: lift_family([], pstar, members, pstar), ValueError, "need at least one member"),
        (lambda: lift_family(members, pstar, [], pstar), ValueError,
         "need at least one q-member"),
        (lambda: assemble_identity_lift(members, {}, "diag"), ValueError,
         "orientation must be 'main' or 'anti', got 'diag'"),
        (lambda: assemble_identity_lift([], {}), ValueError, "need at least one member"),
        (lambda: assemble_identity_lift([identity(2, 0)], lone), ValueError,
         "unexpected reference key (0, 1): keys are pairs (i,j) of distinct "
         "member indices below 1"),
        (lambda: assemble_identity_lift([identity(2, 0)] * 2, lone), ValueError,
         "missing reference for pair (1,0)"),
        (lambda: shangguan_recursive(3, 3, 2), ValueError,
         "need 0 <= a, b and a+b <= n+1, got a=3, b=2, n=3"),
        (lambda: shangguan_recursive(3, 1, -1), ValueError,
         "need 0 <= a, b and a+b <= n+1, got a=1, b=-1, n=3"),
        (lambda: odd_tiling_lift(5, 1), ValueError, "n must be at least 2, got 1"),
        (lambda: measure_family([h_array(3), identity(3, 0)], pstar), ValueError,
         "members have differing star counts [1, 2]"),
        (lambda: measure_family([], pstar), ValueError, "need at least one member"),
        (lambda: measure_family([Pda(2, 2, (0, 0, None, None))], all_star(2, 2)), InvalidPdaError,
         "member 0 is not a valid PDA: "
         "(Violation(condition='C3', witness=((0, 0), (0, 1), (0, 1))),)"),
        (lambda: measure_family([h_array(2)], Pda(2, 2, (0, 0, None, None))), InvalidPdaError,
         "reference is not a valid PDA: "
         "(Violation(condition='C3', witness=((0, 0), (0, 1), (0, 1))),)"),
        (lambda: lifted_params(params(mn(4, 2)), ParamTuple(6, 6, 1, 5, 3, 6)), ValueError,
         "member and reference label counts are required"),
        (lambda: lifted_params(params(mn(4, 2)), p._replace(ref_labels=0)), ValueError,
         "inconsistent tuple: reference has cells but no labels"),
        (lambda: lifted_params(params(mn(4, 2))._replace(g=None), p), ValueError,
         "base must be regular for the lifted-parameter calculus"),
        (lambda: lift_family_params(p, ParamTuple(10, 10, 1, 6, 1, 4, 45, 10)), ValueError,
         "p members are 2-regular but q has only 1 members"),
    ]


def test_lifting_errors_keep_type_and_message():
    for call, kind, message in _lifting_error_cases():
        with pytest.raises(kind) as err:
            call()
        assert (type(err.value), str(err.value)) == (kind, message)

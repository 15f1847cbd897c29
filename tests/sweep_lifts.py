"""Print one line per lifting or CLI case, for comparing two checkouts.

Each line is a case name and its outcome: a digest of every array and
ledger the case returns, or the error type and message it raises; CLI
cases give (exit code, stdout digest, stderr).  Run it against each
source tree and diff the two outputs:

    PYTHONPATH=path/to/src python tests/sweep_lifts.py > out.txt

``tests/sweep_lifts.sha256`` pins the SHA-256 of this output, and CI
checks it with ``sha256sum -c``, so a changed outcome or a crash fails the
build.  A change that alters an outcome on purpose rewrites that file with

    PYTHONPATH=src python tests/sweep_lifts.py | sha256sum > tests/sweep_lifts.sha256

and lists the changed lines in CHANGES.md.

It covers the lifts of the benchmark's compose mix, random basic and
uniform lifts over ``randgen`` bases, ``lift_family`` with its error
variants, the recursions, identity-base lifts of random generalized
families in both orientations with broken variants, malformed reference
maps and non-``Pda`` members given to both the identity-base lift and
``is_generalized_family``, the parameter calculus over every pair of prior
families, right, left and full compatibility over random triples (shape
mismatches included), the reference-star condition with empty, misshaped
and differing members, CLI usage errors and CLI compatibility and
verification runs.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from itertools import product

from pdakit import cli
from pdakit.compatibility import (
    GenFamily,
    check_condition_cstar,
    is_blackburn_compatible,
    is_generalized_family,
    is_left_compatible,
    is_right_compatible,
)
from pdakit.constructions import all_star, h_array, identity, mn, odd_tiling
from pdakit.core import Pda, hstack, params, relabel, vstack
from pdakit.gridio import serialize_grid
from pdakit.lifting import (
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
from pdakit.tables import PRIOR_FAMILIES

from randgen import random_full_triple, random_gen_family, random_grid, random_valid_pda


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update((serialize_grid(part) if isinstance(part, Pda) else repr(part)).encode())
    return h.hexdigest()[:16]


def _outcome(fn, *args) -> str:
    try:
        out = fn(*args)
    except Exception as exc:  # a bare KeyError or TypeError is an outcome too
        return f"{type(exc).__name__}: {exc}"
    if hasattr(out, "label_ledger"):
        return _digest(out.result, out.label_ledger)
    if type(out) is tuple:  # lift_family's pair, not a named-tuple record
        members, rstar = out
        return _digest(*members, rstar)
    return _digest(out)


def _transpose_pair(n: int):
    """n x n arrays with diagonal stars, each label once; p1 = p0^T."""
    fresh = iter(range(n * n))
    grid = [[None if i == j else next(fresh) for j in range(n)] for i in range(n)]
    return Pda.from_rows(grid), Pda.from_rows([list(col) for col in zip(*grid)])


def _with_cell(p: Pda, r: int, c: int, value) -> Pda:
    rows = [list(p.row(i)) for i in range(p.rows)]
    rows[r][c] = value
    return Pda.from_rows(rows)


def _broken(p: Pda) -> Pda:
    """p with a label repeated in one row (C3 fails), or, when no row holds
    two labels, with a star of row 0 filled by a fresh label."""
    for r in range(p.rows):
        labelled = [c for c in range(p.cols) if p.cell(r, c) is not None]
        if len(labelled) > 1:
            return _with_cell(p, r, labelled[1], p.cell(r, labelled[0]))
    c = next(c for c in range(p.cols) if p.cell(0, c) is None)
    return _with_cell(p, 0, c, max(p.labels(), default=0) + 1)


def _family_cases(n: int, m: int):
    p0, p1 = _transpose_pair(n)
    q0, q1 = _transpose_pair(m)
    pstar = h_array(n, range(n * n, n * n + n * (n - 1) // 2))
    qstar = h_array(m, range(m * m, m * m + m * (m - 1) // 2))
    bad0 = _broken(p0)
    yield "ok", ([p0, p1], pstar, [q0, q1], qstar)
    yield "ok-q-swapped", ([p0, p1], pstar, [q1, q0], qstar)
    yield "three-members", ([p0, p1, p0], pstar, [q0, q1], qstar)
    yield "no-members", ([], pstar, [q0, q1], qstar)
    yield "bad-member-0", ([bad0, p1], pstar, [q0, q1], qstar)
    yield "bad-members", ([bad0, bad0], pstar, [q0, q1], qstar)
    yield "bad-member-1", ([p0, bad0], pstar, [q0, q1], qstar)
    yield "bad-reference", ([p0, p1], _broken(pstar), [q0, q1], qstar)
    yield "cstar", ([p0, p1], identity(n, 500), [q0, q1], qstar)
    yield "star-positions", ([p0, _with_cell(p1, 0, 0, n * n + 900)], pstar, [q0, q1], qstar)
    yield "label-sets", ([p0, relabel(p1, {s: s + 1000 for s in p1.labels()})], pstar, [q0, q1], qstar)
    yield "incompatible", ([p0, p0], pstar, [q0, q1], qstar)
    yield "few-q", ([p0, p1], pstar, [], qstar)
    yield "bad-q-member-0", ([p0, p1], pstar, [_broken(q0), q1], qstar)
    yield "bad-q-reference", ([p0, p1], pstar, [q0, q1], _broken(qstar))
    yield "q-shape", ([p0, p1], pstar, [q0, q1], h_array(m + 1))
    yield "q-incompatible", ([p0, p1], pstar, [q0, q0], qstar)


def _nonuniform_cases(rng: random.Random, count: int):
    """Random generalized families, alternately on the main and the anti
    diagonal: as generated, then with one reference swapped for an
    all-star block (column balance broken), deleted, given an extra row,
    or joined by a reference under a key that names no member pair."""
    variants = ["ok", "all-star-ref", "missing-ref", "misshaped-ref", "extra-ref"]
    for i in range(count):
        fam = random_gen_family(rng)
        members, refs = list(fam.members), dict(fam.refs)
        orientation = ("main", "anti")[i % 2]
        variant = variants[i // 2 % len(variants)]
        key = rng.choice(sorted(refs))
        ref = refs[key]
        if variant == "all-star-ref":
            refs[key] = all_star(ref.rows, ref.cols)
        elif variant == "missing-ref":
            del refs[key]
        elif variant == "misshaped-ref":
            refs[key] = all_star(ref.rows + 1, ref.cols)
        elif variant == "extra-ref":
            g = len(members)
            refs[rng.choice([(0, 0), (g - 1, g - 1), (g, 0), (0, g + 3)])] = all_star(1, 1)
        yield f"nonuniform_lift random {i} {orientation} {variant}", (members, refs, orientation)


def _malformed_families():
    """The worked 4x2/2x4 family with a reference key of another type, a
    None reference, a reference that is not a Pda, or a second member that
    is None or not a Pda."""
    worked = [vstack([identity(2, 0), identity(2, 1)]), hstack([identity(2, 1), identity(2, 0)])]
    refs = {(0, 1): identity(4, 2), (1, 0): all_star(2, 2)}
    yield "mixed-key", worked, {**refs, "x": identity(2, 9)}
    yield "none-ref", worked, {**refs, (1, 0): None}
    yield "list-ref", worked, {**refs, (1, 0): [[None]]}
    yield "none-member", [worked[0], None], refs
    yield "list-member", [worked[0], [[None]]], refs


def _lift_lines():
    for g, n in [(5, 6), (7, 8), (9, 10), (11, 14), (5, 3), (3, 2)]:
        yield f"odd_tiling_lift{(g, n)}", _outcome(odd_tiling_lift, g, n)
    for k, t, m in [(5, 2, 6), (6, 2, 8), (7, 3, 8), (4, 2, 3)]:
        yield f"basic_lift mn{(k, t)} h{m}", _outcome(basic_lift, mn(k, t), h_array(m))
    for k, t in product(range(1, 9), range(-1, 10)):
        if t <= k + 1:
            yield f"mn_recursive{(k, t)}", _outcome(mn_recursive, k, t)
    for n, a, b in product(range(1, 8), range(-1, 8), range(-1, 8)):
        yield f"shangguan_recursive{(n, a, b)}", _outcome(shangguan_recursive, n, a, b)
    for n, m in product(range(2, 8), range(2, 7)):
        for name, args in _family_cases(n, m):
            yield f"lift_family{(n, m)} {name}", _outcome(lift_family, *args)

    rng = random.Random(20231)
    for i in range(300):
        base = random_valid_pda(rng, 40)
        p = random_valid_pda(rng, 30)
        yield f"basic_lift random {i}", _outcome(basic_lift, base, p)
    for i in range(200):
        fam = odd_tiling(rng.choice([3, 5, 7]))
        labels = sorted(fam.p0.labels())
        perm = dict(zip(labels, rng.sample(range(60), len(labels))))
        members = [relabel(fam.p0, perm), relabel(fam.p1, perm)]
        base = random_valid_pda(rng, 40)
        variant = i % 5
        if variant == 1:
            members = members[:1]
        elif variant == 2:
            members = [members[0], members[0]]
        elif variant == 3:
            members = [members[0], relabel(fam.p1, {s: s + 100 for s in labels})]
        pstar = fam.pstar if variant != 4 else identity(fam.pstar.rows, 99)
        yield f"uniform_lift random {i}", _outcome(uniform_lift, base, members, pstar)
    fam = odd_tiling(5)
    for name, args in [
        ("bad-base", (_broken(h_array(3)), [fam.p0, fam.p1, fam.p1], fam.pstar)),
        ("bad-reference", (h_array(2), [fam.p0, fam.p1], _broken(fam.pstar))),
        ("bad-member", (h_array(2), [fam.p0, _broken(fam.p1)], fam.pstar)),
        ("shape", (h_array(2), [fam.p0, identity(3, 0)], fam.pstar)),
        ("few", (h_array(2), [fam.p0], fam.pstar)),
        ("incompatible", (h_array(2), [identity(2, 0)] * 2, identity(2, 7))),
    ]:
        yield f"uniform_lift {name}", _outcome(uniform_lift, *args)

    for name, args in _nonuniform_cases(random.Random(20232), 600):
        yield name, _outcome(nonuniform_lift, *args)
    for name, members, refs in _malformed_families():
        for orientation in ("main", "anti"):
            yield f"nonuniform_lift worked {orientation} {name}", _outcome(
                nonuniform_lift, members, refs, orientation
            )
        yield f"is_generalized_family worked {name}", _outcome(
            is_generalized_family, GenFamily.of(members, refs)
        )

    bases = [params(mn(4, 2)), params(mn(5, 2)), params(h_array(4)), params(h_array(5)), params(identity(3, 0))]
    for (pn, p), (qn, q) in product(PRIOR_FAMILIES.items(), repeat=2):
        yield f"lift_family_params {pn} {qn}", _outcome(lift_family_params, p, q)
    for (pn, p), (i, base) in product(PRIOR_FAMILIES.items(), enumerate(bases)):
        yield f"lifted_params base{i} {pn}", _outcome(lifted_params, base, p)
    for g in (3, 5, 7):
        fam = odd_tiling(g)
        tup = measure_family([fam.p0, fam.p1], fam.pstar)
        yield f"lifted_params odd {g}", _outcome(lifted_params, params(h_array(3)), tup)


def _star_mask(rng: random.Random, rows: int, cols: int) -> Pda:
    """A rows x cols reference: mostly stars, the rest fresh labels."""
    density = rng.uniform(0.5, 1.0)
    return Pda(rows, cols, tuple(None if rng.random() < density else 10_000 + i for i in range(rows * cols)))


def _compat_lines():
    """Right, left and full checks of random grids against a reference of
    the shape the check needs about two times in three, and of random
    same-shape triples with the second array or the reference reshaped in
    half of them; then the reference-star condition."""
    checks = {"right": is_right_compatible, "left": is_left_compatible, "full": is_blackburn_compatible}
    rng = random.Random(20233)
    for i in range(300):
        p0, p1 = random_grid(rng, 4, 3), random_grid(rng, 4, 3)
        fits = {"right": (p0.rows, p1.cols), "left": (p1.rows, p0.cols), "full": p0.shape}
        for mode, check in checks.items():
            shape = fits[mode] if rng.random() < 0.67 else (rng.randint(1, 4), rng.randint(1, 4))
            yield f"compat {mode} random {i}", _outcome(check, p0, p1, _star_mask(rng, *shape))
    for i in range(200):
        p0, p1, ref = random_full_triple(rng)
        variant = ("same", "p1-rows", "ref-cols", "same")[i % 4]
        if variant == "p1-rows":
            p1 = vstack([p1, all_star(1, p1.cols)])
        elif variant == "ref-cols":
            ref = hstack([ref, all_star(ref.rows, 1)])
        for mode, check in checks.items():
            yield f"compat {mode} triple {i} {variant}", _outcome(check, p0, p1, ref)

    p0, p1 = _transpose_pair(3)
    pstar = h_array(3, range(9, 12))
    for name, members, ref in [
        ("ok", [p0, p1], pstar),
        ("one", [p1], pstar),
        ("empty", [], pstar),
        ("label-at-star", [p0, p1], identity(3, 50)),
        ("misshaped-member-1", [p0, h_array(4)], pstar),
        ("misshaped-member-2", [p0, p1, all_star(3, 2)], pstar),
        ("misshaped-reference", [p0, p1], h_array(4)),
        ("differing-stars", [p0, _with_cell(p1, 0, 0, 900)], pstar),
        ("differing-stars-and-reference", [p0, _with_cell(p1, 0, 0, 900)], all_star(2, 3)),
    ]:
        yield f"check_condition_cstar {name}", _outcome(check_condition_cstar, members, ref)


_CLI_SETUP = [
    ["gen", "h", "2", "-o", "h2.grid"],
    ["gen", "h", "3", "-o", "h3.grid"],
    ["gen", "odd-tiling", "5", "-o", "odd5"],
    ["gen", "identity", "2", "0", "-o", "i2.grid"],
    ["gen", "star", "2", "2", "-o", "s2.grid"],
    ["gen", "shangguan", "4", "2", "1", "-o", "u421.grid"],
    ["gen", "shangguan", "4", "1", "2", "-o", "u412.grid"],
    ["gen", "shangguan", "4", "2", "2", "-o", "u422.grid"],
]

_CLI_CASES = [
    ["gen", "nope", "3"],
    ["gen", "mn", "4"],
    ["gen", "mn", "4", "9"],
    ["gen", "mn", "4", "2", "--labels", "1,x"],
    ["gen", "star", "2", "2", "--labels", "5"],
    ["gen", "mn", "3", "1", "--anti"],
    ["gen", "odd-tiling", "4"],
    ["gen", "mn", "4", "2"],
    ["compat", "--mode", "full", "h2.grid"],
    ["compat", "--mode", "right", "h2.grid", "h2.grid"],
    ["compat", "--mode", "left", "h2.grid", "h2.grid", "--ref", "h2.grid", "--ref", "h2.grid"],
    ["compat", "--mode", "cstar", "h2.grid"],
    ["compat", "--mode", "family", "h2.grid", "h2.grid"],
    ["compat", "--mode", "family", "i2.grid", "i2.grid", "--ref", "s2.grid", "--ref", "s2.grid"],
    ["lift", "--mode", "uniform", "--member", "odd5.p0.grid"],
    ["lift", "--mode", "uniform", "h2.grid", "--member", "odd5.p0.grid"],
    ["lift", "--mode", "uniform", "h2.grid", "--member", "odd5.p0.grid", "--ref", "odd5.pstar.grid", "--ref", "odd5.pstar.grid"],
    ["lift", "--mode", "basic", "h2.grid"],
    ["lift", "--mode", "basic", "h2.grid", "--member", "h2.grid"],
    ["lift", "--mode", "uniform", "h2.grid", "--member", "odd5.p0.grid", "--member", "odd5.p1.grid", "--ref", "odd5.pstar.grid"],
    ["lift", "--mode", "family", "--member", "h2.grid"],
    ["lift", "--mode", "family", "--member", "h2.grid", "--ref", "h2.grid", "--q-member", "h2.grid"],
    ["lift", "--mode", "nonuniform", "--member", "i2.grid", "--member", "i2.grid"],
    ["lift", "--mode", "nonuniform", "--member", "i2.grid", "--ref", "s2.grid"],
    ["params", "--family", "6,6,1"],
    ["params", "--family", "6,6,1,5,3,6", "--family", "6,6,1,5,3,6", "--member-labels", "15"],
    ["params", "--family", "6,6,1,5,3,6", "--member-labels", "15", "--ref-labels", "1"],
    ["params", "--family", "6,6,1,5,3,6,15,1", "--base", "4,6,3"],
    ["params", "--family", "6,6,1,5,3,6,15,1", "--base", "4,0,3,4,3"],
    ["sim", "--pda", "h2.grid", "--files", "2", "--size", "8", "--demands", "x"],
    ["sim", "--pda", "h2.grid", "--files", "0", "--size", "8"],
    ["verify", "h3.grid", "--labels", "9"],
    ["verify", "c3.grid"],
    ["compat", "--mode", "right", "u421.grid", "u412.grid", "--ref", "u422.grid"],
    ["compat", "--mode", "left", "u412.grid", "u421.grid", "--ref", "u422.grid"],
    ["compat", "--mode", "left", "u421.grid", "u412.grid", "--ref", "u422.grid"],
    ["compat", "--mode", "left", "u421.grid", "u421.grid", "--ref", "u422.grid"],
    ["compat", "--mode", "full", "u421.grid", "u412.grid", "--ref", "u422.grid"],
    ["compat", "--mode", "full", "h2.grid", "h2.grid", "--ref", "u422.grid"],
    ["compat", "--mode", "full", "h2.grid", "h2.grid", "--ref", "s2.grid"],
    ["compat", "--mode", "full", "h2.grid", "c3.grid", "--ref", "i2.grid"],
    ["compat", "--mode", "left", "h2.grid", "c3.grid", "--ref", "i2.grid"],
    ["compat", "--mode", "cstar", "h2.grid", "h3.grid", "--ref", "s2.grid"],
    ["compat", "--mode", "cstar", "h2.grid", "i2.grid", "--ref", "s2.grid"],
]


def _cli_lines():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with open("c3.grid", "w") as fh:  # label 0 on a diagonal with labels on its mirrors
            fh.write(serialize_grid(Pda.from_rows([[0, 1], [1, 0]])))
        try:
            for argv in _CLI_SETUP + _CLI_CASES:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                yield "cli " + " ".join(argv), json.dumps(
                    [code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16], err.getvalue()]
                )
        finally:
            os.chdir(cwd)


def main() -> int:
    count = 0
    for name, line in (*_lift_lines(), *_compat_lines(), *_cli_lines()):
        sys.stdout.write(f"{name}\t{line}\n")
        count += 1
    print(f"{count} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: seeded inputs, one pass of ops, and a check per op.

A workload's ``setup`` builds one pass: a fixed list of op shapes whose
contents (labels, corrupted cells, demands, file bytes, which of two
equal-cost constructions) come from the seed.  Every seed therefore gives a
pass of the same size, which keeps runs on different seeds comparable.
The closed loop repeats whole passes, so each run measures the same op mix.

An op's ``run`` calls pdakit only through the ``Layers`` it is given; its
``check`` runs outside the op's timer, compares the result with values from
``expect`` and returns a failure reason (None when correct) and the work the
op did, counted from its inputs and outputs.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import expect as E


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable
    span: "str | None" = None  # extra span the traced harness opens around run
    cells: int = 0  # input size, for the op-mix description


@dataclass
class Pass:
    ops: list
    mix: str
    workdir: "Path | None" = None
    known_deviations: dict = field(default_factory=dict)

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _relabel(L, p, rng):
    """Relabel by a seeded permutation of the array's own labels."""
    labels = sorted(p.labels())
    perm = labels[:]
    rng.shuffle(perm)
    return L.core.relabel(p, dict(zip(labels, perm)))


# ------------------------------------------------------------------ verify
#
# The "check a directory of arrays" job.  Sizes run log-spaced from ~10^3 to
# ~10^5 cells; shapes range from tall MN arrays (few columns, t+1 = up to 7
# occurrences per label) to square lifts, which sets the equal-label pairs
# C3 costs.  No op takes much more than a tenth of a second, so that each
# is sampled often in a run; larger arrays, up to mn(18,9), are timed by
# the scaling sweep of the traced run.  Six extra slots are one-cell
# corruptions that must be reported invalid.

_VERIFY = [
    # family, args, format, corruption; every other slot is relabelled
    ("mn", (8, 3), "grid", None),
    ("shangguan", (8, 2, 2), "json", None),
    ("mn", (10, 3), "grid", None),
    ("odd", (5, 8), "json", None),
    ("yan", (8,), "grid", None),
    ("mnrev", (10, 5), "json", None),
    ("shangguan", (9, 2, 3), "grid", None),
    ("yan", (9,), "json", None),
    ("odd", (7, 10), "grid", None),
    ("mn", (11, 5), "json", None),
    ("shangguan", (10, 3, 2), "grid", None),
    ("mnrev", (12, 5), "grid", None),
    ("yan", (10,), "json", None),
    ("odd", (7, 15), "grid", None),
    ("shangguan", (10, 3, 3), "json", None),
    ("odd", (9, 15), "grid", None),
    ("mn", (13, 6), "json", None),
    ("yan", (11,), "grid", None),
    ("mnrev", (14, 6), "grid", None),
    ("odd", (11, 20), "json", None),
    ("shangguan", (11, 3, 4), "grid", None),
    ("mn", (14, 6), "grid", None),
    ("yan", (12,), "json", None),
    ("odd", (13, 24), "grid", None),
    ("mn", (9, 4), "grid", "C3"),
    ("odd", (5, 10), "json", "C1"),
    ("shangguan", (9, 3, 2), "grid", "C3"),
    ("yan", (10,), "grid", "C1"),
    ("mnrev", (12, 6), "json", "C3"),
    ("odd", (9, 12), "grid", "C1"),
]

_VERIFY_TINY = [
    ("mnrev", (6, 3), "grid", None),
    ("yan", (5,), "json", None),
    ("odd", (5, 3), "grid", None),
    ("shangguan", (6, 2, 2), "json", None),
    ("mn", (6, 2), "grid", "C3"),
    ("odd", (5, 2), "json", "C1"),
]


def _family(L, family, args):
    """Build one array and its closed-form (K, f, Z, S, g)."""
    cons = L.constructions
    if family in ("mn", "mnrev"):
        build = cons.mn if family == "mn" else cons.mn_reverse
        return build(*args), E.mn_params(*args)
    if family == "yan":
        return cons.yan_half_memory(*args), E.yan_params(*args)
    if family == "odd":
        return L.lifting.odd_tiling_lift(*args), E.odd_lift_params(*args)
    return cons.shangguan_direct(*args), E.shangguan_params(*args)


def _verify_op(L, slot, relabel, rng) -> Op:
    family, args, fmt, corruption = slot
    p, want = _family(L, family, args)
    if relabel:
        p = _relabel(L, p, rng)
    if corruption:
        p = L.core.Pda(p.rows, p.cols, E.corrupt(p.rows, p.cols, p.cells, corruption, rng))
    text = L.gridio.serialize_grid(p, header=True) if fmt == "grid" else L.gridio.pda_to_json(p)
    rows, cols, cells = p.rows, p.cols, p.cells
    memo = {}

    def run(api):
        q = api.gridio.parse_grid(text) if fmt == "grid" else api.gridio.pda_from_json(text)
        report = api.core.validate(q)
        return q, report, api.core.params(q) if report.ok else None

    def check(result):
        q, report, info = result
        if "pairs" not in memo:
            memo["pairs"] = E.label_pairs(cells)
        work = {
            "gridio.parse_cells": rows * cols,
            "gridio.bytes_read": len(text.encode()),
            "core.cells_validated": rows * cols,
            "core.label_pairs": memo["pairs"],
        }
        if (q.rows, q.cols) != (rows, cols) or q.cells != cells:
            return "parsed cells differ from the written ones", work
        if corruption:
            work["core.invalid_submitted"] = 1
            caught = corruption in {v.condition for v in report.violations}
            work["core.invalid_caught"] = int(caught)
            if not caught or report.ok or info is not None:
                return f"injected {corruption} violation not reported", work
            return None, work
        if not report.ok:
            return f"valid array reported invalid: {report.violations[:1]}", work
        if E.info_tuple(info) != want or not E.ratios_exact(info):
            return f"params {E.info_tuple(info)} != closed form {want}", work
        return None, work

    tag = f"{family}-{fmt}" + (f"-{corruption}" if corruption else "")
    return Op(f"verify.{tag}", run, check, cells=rows * cols)


def setup_verify(L, seed: int, tiny: bool = False, **_) -> Pass:
    rng = random.Random(f"verify:{seed}")
    slots = _VERIFY_TINY if tiny else _VERIFY
    ops = [_verify_op(L, slot, i % 2 == 1, rng) for i, slot in enumerate(slots)]
    sizes = sorted(op.cells for op in ops)
    mix = (
        f"{len(ops)} ops/pass: parse_grid|pda_from_json -> validate -> params when valid; "
        f"{sum(1 for s in slots if s[3])} corrupted; cells per op {sizes[0]}..{sizes[-1]}, "
        f"median {sizes[len(sizes) // 2]}"
    )
    return Pass(ops, mix)

# ----------------------------------------------------------------- compose
#
# The "build, check, lift, save" job.  Each op builds its inputs with
# constructions, runs the compatibility check a user runs before lifting,
# lifts when the check passes and serialises what it lifted.  Three checks
# per pass are built to fail (a star-free reference): they collect every
# witness and stop before lifting.  gridio only writes here.

def _transpose_pair(L, n: int):
    """Two n x n arrays with diagonal stars and each label once; p1 = p0^T."""
    fresh = iter(range(n * n))
    grid = [[None if i == j else next(fresh) for j in range(n)] for i in range(n)]
    p0 = L.core.Pda.from_rows(grid)
    p1 = L.core.Pda.from_rows([[grid[j][i] for j in range(n)] for i in range(n)])
    return p0, p1


def _cells(p) -> int:
    return p.rows * p.cols


def _params_failure(p, want) -> "str | None":
    got = E.count_params(p.rows, p.cols, p.cells)
    return None if got == want else f"params {got} != closed form {want}"


def _written(texts) -> dict:
    return {"gridio.bytes_written": sum(len(t) for t in texts)}


def _odd_lift_op(L, rng, g, n) -> Op:
    labels = list(range(n * (n - 1) // 2))
    rng.shuffle(labels)
    want = E.odd_lift_params(g, n)
    fam = L.constructions.odd_tiling(g)
    static = {
        "constructions.cells_built": 3 * g * g + n * n,
        "compatibility.cross_pairs": E.cross_pairs(fam.p0.cells, fam.p1.cells),
        "lifting.output_cells": (g * n) ** 2,
        "lifting.blocks": n * n,
        "gridio.serialize_cells": (g * n) ** 2,
    }

    def run(api):
        fam = api.constructions.odd_tiling(g)
        base = api.constructions.h_array(n, labels)
        report = api.compatibility.is_blackburn_compatible(fam.p0, fam.p1, fam.pstar)
        out = api.lifting.uniform_lift(base, [fam.p0, fam.p1], fam.pstar).result
        return report, out, api.gridio.serialize_grid(out)

    def check(result):
        report, out, text = result
        work = {**static, "compatibility.witnesses": len(report.witnesses), **_written([text])}
        if not report.ok:
            return "odd tiling pair reported incompatible", work
        return _params_failure(out, want), work

    return Op("compose.odd-lift", run, check, cells=(g * n) ** 2)


def _basic_lift_op(L, rng, k, t, m) -> Op:
    labels = list(range(comb(k, t + 1)))
    rng.shuffle(labels)
    want = E.basic_lift_params(E.mn_params(k, t), E.h_params(m))
    cells = comb(k, t) * k * m * m
    static = {
        "constructions.cells_built": comb(k, t) * k + 2 * m * m,
        "compatibility.cross_pairs": 2 * m * (m - 1),
        "lifting.output_cells": cells,
        "lifting.blocks": comb(k, t) * k,
        "gridio.serialize_cells": cells,
    }

    def run(api):
        base = api.constructions.mn(k, t, labels)
        p = api.constructions.h_array(m)
        report = api.compatibility.is_blackburn_compatible(p, p, api.constructions.all_star(m, m))
        out = api.lifting.basic_lift(base, p).result
        return report, out, api.gridio.serialize_grid(out)

    def check(result):
        report, out, text = result
        work = {**static, "compatibility.witnesses": len(report.witnesses), **_written([text])}
        if not report.ok:
            return "a PDA reported incompatible with itself over an all-star reference", work
        return _params_failure(out, want), work

    return Op("compose.basic-lift", run, check, cells=cells)


def _family_lift_op(L, rng, n, m) -> Op:
    p0, p1 = _transpose_pair(L, n)
    q0, q1 = _transpose_pair(L, m)
    q = [q0, q1] if rng.random() < 0.5 else [q1, q0]
    ref_labels = range(n * n, n * n + n * (n - 1) // 2)
    qref_labels = range(m * m, m * m + m * (m - 1) // 2)
    want_member, want_ref = E.family_lift_params(n, m)
    cells = 3 * (n * m) ** 2
    static = {
        "constructions.cells_built": n * n + m * m,
        "compatibility.cross_pairs": n * (n - 1),
        "lifting.output_cells": cells,
        "lifting.blocks": 3 * n * n,
        "gridio.serialize_cells": cells,
    }

    def run(api):
        pstar = api.constructions.h_array(n, ref_labels)
        qstar = api.constructions.h_array(m, qref_labels)
        cstar = api.compatibility.check_condition_cstar([p0, p1], pstar)
        full = api.compatibility.is_blackburn_compatible(p0, p1, pstar)
        lifted, rstar = api.lifting.lift_family([p0, p1], pstar, q, qstar)
        texts = [api.gridio.serialize_grid(r) for r in (*lifted, rstar)]
        return cstar, full, lifted, rstar, texts

    def check(result):
        cstar, full, lifted, rstar, texts = result
        work = {
            **static,
            "compatibility.witnesses": len(cstar.witnesses) + len(full.witnesses),
            **_written(texts),
        }
        if not (cstar.ok and full.ok):
            return "transpose family reported incompatible", work
        if len(lifted) != 2:
            return f"{len(lifted)} lifted members, expected 2", work
        for p in lifted:
            failure = _params_failure(p, want_member)
            if failure:
                return f"lifted member: {failure}", work
        failure = _params_failure(rstar, want_ref)
        return (f"lifted reference: {failure}" if failure else None), work

    return Op("compose.family-lift", run, check, cells=cells)


def _mn_blocks(k, t) -> int:
    return 0 if t in (0, k) else 4 + _mn_blocks(k - 1, t - 1) + _mn_blocks(k - 1, t)


def _shangguan_blocks(n, a, b) -> int:
    if min(a, b) == 0 or a + b == n + 1:
        return 0
    return 4 + sum(_shangguan_blocks(n - 1, *ab) for ab in ((a, b - 1), (a - 1, b), (a, b)))


def _recursive_op(L, kind, args, fail: bool = False) -> Op:
    """The top-level generalized-family check of the MN or Shangguan
    recursion, then the recursive build compared with the direct one.

    With ``fail`` the (0, 1) reference is star-free, so every equal-label
    pair across the two members is a witness and nothing is lifted.
    """
    if kind == "mn":
        k, t = args
        shared = comb(k - 1, t)
        ref_shape = (shared, k - 1)
        hash_shape = (comb(k - 1, t - 1), 1)
        cells = comb(k, t) * k
        blocks = _mn_blocks(k, t)
    else:
        n, a, b = args
        shared = comb(n - 1, a + b - 1)
        ref_shape = (comb(n - 1, a), comb(n - 1, b))
        hash_shape = (comb(n - 1, a - 1), comb(n - 1, b - 1))
        cells = comb(n, a) * comb(n, b)
        blocks = _shangguan_blocks(n, a, b)

    def members(api):
        cons = api.constructions
        if kind == "mn":
            return cons.filled(shared, 1, range(shared)), cons.mn(k - 1, t - 1)
        return cons.shangguan_direct(n - 1, a, b - 1), cons.shangguan_direct(n - 1, a - 1, b)

    def reference(api):
        fresh = range(shared, shared + ref_shape[0] * ref_shape[1])
        if fail:
            return api.constructions.filled(*ref_shape, fresh)
        if kind == "mn":
            return api.constructions.mn(k - 1, t, fresh[: comb(k - 1, t + 1)])
        return api.constructions.shangguan_direct(n - 1, a, b, fresh[: comb(n - 1, a + b)])

    p0, p1 = members(L)
    pairs = E.cross_pairs(p0.cells, p1.cells)
    static = {
        "constructions.cells_built": _cells(p0) + _cells(p1) + ref_shape[0] * ref_shape[1]
        + hash_shape[0] * hash_shape[1],
        "compatibility.cross_pairs": 2 * pairs,
    }
    if not fail:
        static.update({
            "lifting.output_cells": cells,
            "lifting.blocks": blocks,
            "gridio.serialize_cells": cells,
        })

    def run(api):
        q0, q1 = members(api)
        fam = api.compatibility.GenFamily.of(
            [q0, q1], {(0, 1): reference(api), (1, 0): api.constructions.all_star(*hash_shape)}
        )
        report = api.compatibility.is_generalized_family(fam)
        if fail:
            return report, None, ""
        out = api.lifting.mn_recursive(*args) if kind == "mn" else api.lifting.shangguan_recursive(*args)
        return report, out, api.gridio.serialize_grid(out)

    def check(result):
        report, out, text = result
        work = {**static, "compatibility.witnesses": len(report.witnesses), **_written([text])}
        if fail:
            if report.ok or len(report.witnesses) != pairs:
                return f"{len(report.witnesses)} witnesses, expected {pairs}", work
            return None, work
        if not report.ok:
            return f"recursion family reported incompatible: {report.witnesses[:1]}", work
        direct = L.constructions.mn(*args) if kind == "mn" else L.constructions.shangguan_direct(*args)
        return (None if out == direct else "recursive build differs from the direct one"), work

    name = f"compose.{kind}-{'family-fail' if fail else 'recursive'}"
    return Op(name, run, check, cells=cells)


def _fail_pair_op(L, side, k, t) -> Op:
    """Right or left check of mn_reverse(K,t) against mn(K,t) over a
    star-free reference: each label occurs t+1 times in both, so there are
    C(K,t+1)(t+1)^2 equal-label pairs and every one is a witness."""
    f = comb(k, t)
    want = comb(k, t + 1) * (t + 1) ** 2

    def run(api):
        cons = api.constructions
        is_compatible = getattr(api.compatibility, f"is_{side}_compatible")
        return is_compatible(cons.mn_reverse(k, t), cons.mn(k, t), cons.filled(f, k))

    def check(report):
        work = {
            "constructions.cells_built": 3 * f * k,
            "compatibility.cross_pairs": want,
            "compatibility.witnesses": len(report.witnesses),
        }
        if report.ok or len(report.witnesses) != want:
            return f"{len(report.witnesses)} witnesses, expected {want}", work
        return None, work

    return Op(f"compose.{side}-fail", run, check, cells=f * k)


_COMPOSE = [
    ("odd", (5, 6)), ("odd", (7, 8)), ("odd", (9, 10)), ("odd", (11, 14)), ("odd", (11, 24)),
    ("basic", (5, 2, 6)), ("basic", (6, 2, 8)), ("basic", (7, 3, 8)),
    ("family", (4, 5)), ("family", (6, 6)),
    ("mn-rec", (10, 4)), ("mn-rec", (12, 5)),
    ("shg-rec", (8, 2, 2)), ("shg-rec", (9, 2, 3)),
    ("right-fail", (11, 5)), ("left-fail", (12, 5)),
    ("family-fail", (12, 5)),
]

_COMPOSE_TINY = [
    ("odd", (5, 3)), ("basic", (4, 2, 3)), ("family", (3, 3)), ("mn-rec", (6, 3)),
    ("shg-rec", (6, 2, 2)), ("right-fail", (6, 2)), ("left-fail", (6, 2)), ("family-fail", (6, 2)),
]


def _compose_op(L, rng, kind, args) -> Op:
    if kind == "odd":
        return _odd_lift_op(L, rng, *args)
    if kind == "basic":
        return _basic_lift_op(L, rng, *args)
    if kind == "family":
        return _family_lift_op(L, rng, *args)
    if kind in ("right-fail", "left-fail"):
        return _fail_pair_op(L, kind.split("-")[0], *args)
    if kind == "shg-rec":
        return _recursive_op(L, "shangguan", args)
    return _recursive_op(L, "mn", args, fail=kind == "family-fail")


def setup_compose(L, seed: int, tiny: bool = False, **_) -> Pass:
    rng = random.Random(f"compose:{seed}")
    ops = [_compose_op(L, rng, kind, args) for kind, args in (_COMPOSE_TINY if tiny else _COMPOSE)]
    sizes = sorted(op.cells for op in ops)
    kinds = Counter(op.name.split(".", 1)[1] for op in ops)
    mix = (
        f"{len(ops)} ops/pass: constructions -> compatibility check -> lift -> serialize_grid; "
        + ", ".join(f"{n}x {k}" for k, n in sorted(kinds.items()))
        + f"; output cells per op {sizes[0]}..{sizes[-1]}"
    )
    return Pass(ops, mix)


# ---------------------------------------------------------------- simulate
#
# One caching round per op: make_library -> place -> deliver -> decode for
# every user, then a byte comparison with the library.  f runs from 6 to
# 924 rows and file sizes from 4 KiB to 1 MiB; each shape runs once with a
# file size divisible by f and once without, which is what makes
# Library.subfile re-pad the whole file on every call.  mn(12,11) with 1 MiB
# files holds 12 MiB of library and 132 MiB of caches, more than a server's
# L3; mn(4,2) with 4 KiB files fits in L1.

_SIMULATE = [
    # family, args, files, file size before rounding to f, divisible
    *((("mn", (4, 2), 4, 4 << 10, d)) for d in (True, False)),
    *((("h", (8,), 8, 16 << 10, d)) for d in (True, False)),
    *((("odd", (5, 3), 15, 32 << 10, d)) for d in (True, False)),
    *((("mn", (6, 3), 6, 64 << 10, d)) for d in (True, False)),
    *((("mn", (8, 4), 8, 256 << 10, d)) for d in (True, False)),
    *((("yan", (8,), 16, 128 << 10, d)) for d in (True, False)),
    ("mn", (10, 5), 10, 1 << 20, True),
    ("mn", (10, 5), 10, 256 << 10, False),
    *((("mn", (12, 6), 12, 64 << 10, d)) for d in (True, False)),
    *((("mn", (12, 11), 12, 1 << 20, d)) for d in (True, False)),
]

_SIMULATE_TINY = [
    *((("mn", (4, 2), 4, 4 << 10, d)) for d in (True, False)),
    *((("h", (4,), 4, 1 << 10, d)) for d in (True, False)),
]


def _simulate_op(L, rng, family, args, n_files, size, divisible) -> Op:
    if family == "h":
        p = L.constructions.h_array(*args)
    else:
        p = _family(L, family, args)[0]
    info = L.core.params(p)  # simulation arrays are validated in set-up
    k, f, z, s = info.k, info.f, info.z, info.s
    size = f * -(-size // f) + (0 if divisible else rng.randrange(1, f))
    sub = -(-size // f)
    demands = [rng.randrange(n_files) for _ in range(k)]
    lib_seed = rng.randrange(2**32)
    occ = Counter(c for c in p.cells if c is not None).values()
    work = {
        "simulate.cache_bytes": k * n_files * z * sub,
        "simulate.bytes_sent": s * sub,
        "simulate.xor_bytes": sub * sum(o * o - 1 for o in occ),
        "simulate.decoded_bytes": k * f * sub,
    }

    def run(api):
        sim = api.simulate
        lib = sim.make_library(n_files, size, f, seed=lib_seed)
        caches = sim.place(p, lib)
        sent = sim.deliver(p, demands, lib)
        return lib, sent, [sim.decode(p, u, demands, caches, sent) for u in range(k)]

    def check(result):
        lib, sent, decoded = result
        if len(lib.files) != n_files or any(len(x) != size for x in lib.files):
            return "library has the wrong shape", work
        if len(sent) != s or sum(len(t.payload) for t in sent) != s * sub:
            return f"{len(sent)} transmissions, expected {s} of {sub} bytes", work
        for u, d in enumerate(decoded):
            if d[:size] != lib.files[demands[u]]:
                return f"user {u} decoded the wrong bytes", work
        return None, work

    name = f"simulate.{family}-{'div' if divisible else 'pad'}"
    return Op(name, run, check, cells=n_files * size)


def setup_simulate(L, seed: int, tiny: bool = False, **_) -> Pass:
    rng = random.Random(f"simulate:{seed}")
    ops = [_simulate_op(L, rng, *slot) for slot in (_SIMULATE_TINY if tiny else _SIMULATE)]
    sizes = sorted(op.cells for op in ops)
    mix = (
        f"{len(ops)} ops/pass, one caching round each: make_library -> place -> deliver -> "
        f"decode every user; half the file sizes divisible by f; library bytes per op "
        f"{sizes[0]}..{sizes[-1]}"
    )
    return Pass(ops, mix)


# --------------------------------------------------------------------- cli
#
# One `python -m pdakit.cli` process at a time against the working tree's
# src/.  Interpreter start-up and the import of pdakit.cli are paid by every
# op; the arrays are small enough that they are most of an op.

def _cli_env(src: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def _valid_line(k, f, z, s, g) -> str:
    return f"valid ({k},{f},{z},{s}) g={g} M/N={Fraction(z, f)} R={Fraction(s, f)}\n"


def _cli_op(name, argv, workdir, env, expect_code, expect_out) -> Op:
    """``expect_out`` is the exact stdout, or a function returning a failure
    reason for the stdout it is given."""
    cmd = [sys.executable, "-m", "pdakit.cli", *argv]

    def run(api):
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=120)
        return done.returncode, done.stdout.decode()

    def check(result):
        code, out = result
        work = {"cli.exit_code_mismatches": int(code != expect_code)}
        if code != expect_code:
            return f"exit code {code}, documented {expect_code}", work
        if callable(expect_out):
            return expect_out(out), work
        return (None if out == expect_out else "stdout differs from the expected text"), work

    return Op(f"cli.{name}", run, check, span=f"cli.{name.split('-')[0]}")


def setup_cli(L, seed: int, tiny: bool = False, root: "Path | None" = None, **_) -> Pass:
    import importlib

    tables = importlib.import_module("pdakit.tables")
    rng = random.Random(f"cli:{seed}")
    root = Path(root)
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
    env = _cli_env(root / "src")
    io, cons, lifting = L.gridio, L.constructions, L.lifting

    def save(name, p, fmt="grid"):
        io.save_pda(p, workdir / name, fmt)

    mn_k, mn_t, odd_g, odd_n, ver_k, ver_t, lift_n, pair_k, pair_t, sim_k, sim_t = (
        (5, 2, 5, 2, 5, 2, 3, 5, 2, 4, 2) if tiny else (11, 5, 7, 6, 12, 6, 8, 9, 4, 8, 4)
    )
    gen_name, gen_fn = ("mn", cons.mn) if rng.random() < 0.5 else ("mnrev", cons.mn_reverse)
    save("valid.grid", _relabel(L, cons.mn(ver_k, ver_t), rng))
    save("valid.json", _relabel(L, lifting.odd_tiling_lift(odd_g, odd_n + 2), rng), "json")
    yan = cons.yan_half_memory(6 if tiny else 10)
    save("corrupt.grid", L.core.Pda(yan.rows, yan.cols, E.corrupt(yan.rows, yan.cols, yan.cells, "C3", rng)))
    fam = cons.odd_tiling(odd_g + 2)
    for tag in ("p0", "p1", "pstar"):
        save(f"{tag}.grid", getattr(fam, tag))
    h_labels = list(range(lift_n * (lift_n - 1) // 2))
    rng.shuffle(h_labels)
    base = cons.h_array(lift_n, h_labels)
    save("h.grid", base)
    lifted = lifting.uniform_lift(base, [fam.p0, fam.p1], fam.pstar).result
    save("a.grid", cons.mn_reverse(pair_k, pair_t))
    save("b.grid", cons.mn(pair_k, pair_t))
    save("r.grid", cons.filled(comb(pair_k, pair_t), pair_k))
    save("sim.grid", cons.mn(sim_k, sim_t))
    sim_f, sim_s = comb(sim_k, sim_t), comb(sim_k, sim_t + 1)
    sim_files, sim_size, sim_seed = sim_k, 4096 + rng.randrange(4096), rng.randrange(10**6)
    witnesses = comb(pair_k, pair_t + 1) * (pair_t + 1) ** 2

    def corrupt_reported(out):
        return None if any(line.startswith("C3 ") for line in out.splitlines()) else "no C3 line"

    def witness_lines(out):
        n = len(out.splitlines())
        return None if n == witnesses else f"{n} witness lines, expected {witnesses}"

    def params_lines(out):
        lines = out.splitlines()
        ok = len(lines) == 2 and lines[0].startswith("(60,60)_{11,51}^{3,12} ") and lines[
            1].startswith("valid (240,360,186,3480) g=12 ")
        return None if ok else "params output differs from the README example"

    def sim_report(out):
        import json

        got = json.loads(out)
        want = {
            "decode_ok": [True] * sim_k,
            "rate": str(Fraction(sim_s, sim_f)),
            "subpacketization": sim_f,
            "transmissions": sim_s,
            "bytes_sent": sim_s * -(-sim_size // sim_f),
        }
        return None if got == want else f"sim report {got} != {want}"

    family_args = ["--family", "6,6,1,5,3,6,15,1", "--family", "10,10,1,6,2,4,45,10"]
    specs = [
        ("gen-mn", ["gen", gen_name, str(mn_k), str(mn_t)], 0, io.serialize_grid(gen_fn(mn_k, mn_t))),
        ("gen-odd", ["gen", "corollary-odd", str(odd_g), str(odd_n)], 0,
         io.serialize_grid(lifting.odd_tiling_lift(odd_g, odd_n))),
        ("verify-grid", ["verify", "valid.grid"], 0, _valid_line(*E.mn_params(ver_k, ver_t))),
        ("verify-json", ["verify", "valid.json"], 0, _valid_line(*E.odd_lift_params(odd_g, odd_n + 2))),
        ("verify-corrupt", ["verify", "corrupt.grid"], 1, corrupt_reported),
        ("compat-full", ["compat", "--mode", "full", "p0.grid", "p1.grid", "--ref", "pstar.grid"], 0, ""),
        ("compat-right-fail", ["compat", "--mode", "right", "a.grid", "b.grid", "--ref", "r.grid"], 1,
         witness_lines),
        ("lift-uniform", ["lift", "--mode", "uniform", "h.grid", "--member", "p0.grid", "--member",
                          "p1.grid", "--ref", "pstar.grid"], 0, io.serialize_grid(lifted)),
        ("params", ["params", *family_args, "--base", "4,6,3,4,3"], 0, params_lines),
        ("table-table1", ["table", "table1"], 0, tables.render_table1_csv()),
        ("table-fig2", ["table", "fig2"], 0, tables.render_fig2_csv()),
        ("sim", ["sim", "--pda", "sim.grid", "--files", str(sim_files), "--size", str(sim_size),
                 "--seed", str(sim_seed)], 0, sim_report),
        ("usage-gen-arity", ["gen", "mn", str(mn_k)], 2, ""),
        ("usage-params-base", ["params", *family_args[:2], "--base", "4,6,3"], 2, ""),
    ]
    ops = [_cli_op(name, argv, workdir, env, code, out) for name, argv, code, out in specs]
    mix = (
        f"{len(ops)} ops/pass, one `python -m pdakit.cli` process each: "
        + ", ".join(name for name, *_ in specs)
    )
    known = {
        "cli.usage-params-base": "README: exit 2 on usage errors; a malformed --base exits 1",
    }
    return Pass(ops, mix, workdir=workdir, known_deviations=known)


WORKLOADS = {
    "verify": setup_verify,
    "compose": setup_compose,
    "simulate": setup_simulate,
    "cli": setup_cli,
}

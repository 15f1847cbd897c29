"""Command-line front end.

Subcommands: gen, verify, compat, lift, params, table, sim.  All commands
are scriptable: data goes to stdout or --out, diagnostics to stderr, no
prompts.  Exit codes: 0 success, 1 failed check, 2 usage error.  Every
run is a fresh process, so each subcommand imports the modules it uses.
"""

from __future__ import annotations

import argparse
import sys
from itertools import permutations

from .core import PdaParams, _params_of, _write_text, params
from .errors import InvalidPdaError, PdaError

__all__ = ["main"]


class _UsageError(Exception):
    """A usage error: main prints the message and exits 2."""


def _witness_line(label, a, b, mirror, pair=None) -> str:
    line = f"{label} ({a[0]},{a[1]}) ({b[0]},{b[1]}) mirror=({mirror[0]},{mirror[1]})"
    return line if pair is None else f"{line} pair=({pair[0]},{pair[1]})"


# ----------------------------------------------------------------- gen

# name: (parameter count, the option passed after the parameters, the
# builder's name in the package, looked up once the usage checks pass);
# odd-tiling builds a family and writes one file per array.
_GENERATORS = {
    "identity": (2, "anti", "identity"),
    "g": (1, "labels", "g_array"),
    "h": (1, "labels", "h_array"),
    "j": (2, "labels", "filled"),
    "star": (2, None, "all_star"),
    "mn": (2, "labels", "mn"),
    "mnrev": (2, "labels", "mn_reverse"),
    "shangguan": (3, "labels", "shangguan_direct"),
    "yan-half": (1, None, "yan_half_memory"),
    "mn-recursive": (2, None, "mn_recursive"),
    "shangguan-recursive": (3, None, "shangguan_recursive"),
    "corollary-odd": (2, None, "odd_tiling_lift"),
    "odd-tiling": (1, None, "odd_tiling"),
}


def _cmd_gen(args) -> int:
    name = args.name
    if name not in _GENERATORS:
        raise _UsageError(f"unknown generator {name!r}")
    arity, option, builder = _GENERATORS[name]
    if len(args.params) != arity:
        raise _UsageError(f"gen {name} takes {arity} parameter(s)")
    for flag, given in (("labels", args.labels is not None), ("anti", args.anti)):
        if given and option != flag:
            raise _UsageError(f"gen {name} takes no --{flag}")
    fn = getattr(sys.modules[__package__], builder)
    try:
        labels = [int(x) for x in args.labels.split(",")] if args.labels else None
        extra = {"labels": [labels], "anti": [args.anti]}.get(option, [])
        built = fn(*args.params, *extra)
    except (ValueError, PdaError) as exc:
        raise _UsageError(f"bad parameters: {exc}") from exc
    from .gridio import save_pda

    if name != "odd-tiling":
        save_pda(built, args.out, args.format)
        return 0
    prefix, ext = args.out or f"odd_tiling_g{args.params[0]}", args.format or "grid"
    for tag, p in (("p0", built.p0), ("p1", built.p1), ("pstar", built.pstar)):
        save_pda(p, f"{prefix}.{tag}.{ext}")
    print(f"wrote {prefix}.p0/.p1/.pstar .{ext}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------- verify

def _params_line(info: PdaParams) -> str:
    g = f" g={info.g}" if info.g is not None else ""
    return (
        f"valid ({info.k},{info.f},{info.z},{info.s}){g} "
        f"M/N={info.memory_ratio} R={info.rate}"
    )


def _cmd_verify(args) -> int:
    from .gridio import load_pda

    p = load_pda(args.file)
    try:
        print(_params_line(params(p, args.labels)))
        return 0
    except InvalidPdaError as exc:
        violations = exc.report.violations
    for v in violations:
        if v.condition == "C1":
            k, got, expected = v.witness
            print(f"C1 column={k} stars={got} expected={expected}")
        elif v.condition == "C2":
            print(f"C2 missing={v.witness[0]}")
        else:
            print("C3", _witness_line(p.cell(*v.witness[0]), *v.witness))
    return 1


# ----------------------------------------------------------------- compat

def _pair_refs(mode: str, members: list, refs: list) -> dict:
    """The --ref entries keyed by ordered member pair (0,1),(0,2),...,(1,0),...;
    a usage error when their count is not g(g-1)."""
    g = len(members)
    if len(refs) != g * (g - 1):
        raise _UsageError(
            f"--mode {mode} with {g} members takes {g * (g - 1)} --ref "
            "(ordered pairs (0,1),(0,2),...,(1,0),...)"
        )
    return dict(zip(permutations(range(g), 2), refs))


def _cmd_compat(args) -> int:
    from . import compatibility as compat
    from .gridio import load_pda

    # Usage checks read only the argument lists; files load once they pass.
    mode = args.mode
    if mode in ("full", "right", "left"):
        if len(args.files) != 2 or len(args.ref) != 1:
            raise _UsageError(f"--mode {mode} takes two arrays and one --ref")
    elif mode == "cstar":
        if len(args.ref) != 1:
            raise _UsageError("--mode cstar takes one --ref")
    else:
        pairs = _pair_refs("family", args.files, args.ref)
    members = [load_pda(f) for f in args.files]
    refs = [load_pda(f) for f in args.ref]
    if mode == "cstar":
        report = compat.check_condition_cstar(members, refs[0])
    elif mode == "family":
        report = compat.is_generalized_family(compat.GenFamily.of(members, dict(zip(pairs, refs))))
    else:
        check = {
            "full": compat.is_blackburn_compatible,
            "right": compat.is_right_compatible,
            "left": compat.is_left_compatible,
        }[mode]
        report = check(members[0], members[1], refs[0])
    for w in report.witnesses:
        print(_witness_line(*w))
    return 0 if report.ok else 1


# ----------------------------------------------------------------- lift

def _cmd_lift(args) -> int:
    import json

    from . import lifting
    from .gridio import load_pda, save_pda

    # Usage checks read only the argument lists; files load once they pass.
    mode = args.mode
    if mode == "family":
        if not args.member or len(args.ref) != 1 or not args.q_member or args.q_ref is None:
            raise _UsageError("--mode family takes --member..., one --ref, --q-member... and --q-ref")
    elif mode == "nonuniform":
        if not args.member:
            raise _UsageError("--mode nonuniform takes at least one --member")
        pairs = _pair_refs("nonuniform", args.member, args.ref)
    elif args.base is None or len(args.ref) > 1:
        raise _UsageError(f"--mode {mode} takes a base file and at most one --ref")
    elif mode == "basic" and len(args.member) != 1:
        raise _UsageError("--mode basic takes exactly one --member")
    elif mode == "uniform" and not args.ref:
        raise _UsageError("--mode uniform needs --ref")
    # Every input besides --member, -o and --format, with the modes that read it.
    for name, given, modes in (("base file", args.base, "uniform basic"),
                               ("--ref", args.ref, "uniform family nonuniform"),
                               ("--q-member", args.q_member, "family"), ("--q-ref", args.q_ref, "family"),
                               ("--orientation", args.orientation, "nonuniform")):
        if given not in (None, []) and mode not in modes.split():
            raise _UsageError(f"lift --mode {mode} takes no {name}")
    members = [load_pda(f) for f in args.member]
    refs = [load_pda(f) for f in args.ref]
    if mode == "family":
        q_members = [load_pda(f) for f in args.q_member]
        lifted, rstar = lifting.lift_family(members, refs[0], q_members, load_pda(args.q_ref))
        prefix, ext = args.out or "lifted", args.format or "grid"
        for i, r in enumerate(lifted):
            save_pda(r, f"{prefix}.r{i}.{ext}")
        save_pda(rstar, f"{prefix}.rstar.{ext}")
        ledger = {"members": len(lifted), "reference": f"{prefix}.rstar.{ext}"}
        _write_text(json.dumps(ledger) + "\n", f"{prefix}.ledger.json")
        print(f"wrote {prefix}.r0..r{len(lifted) - 1} and {prefix}.rstar", file=sys.stderr)
        return 0
    if mode == "nonuniform":
        orientation = args.orientation or "main"
        result = lifting.nonuniform_lift(members, dict(zip(pairs, refs)), orientation)
        ledger, indent = {"orientation": orientation, "members": len(members)}, None
    else:
        base = load_pda(args.base)
        outcome = (lifting.basic_lift(base, members[0]) if mode == "basic"
                   else lifting.uniform_lift(base, members, refs[0]))
        result, ledger, indent = outcome.result, outcome.label_ledger, 2
    save_pda(result, args.out, args.format)
    if args.out:
        _write_text(json.dumps(ledger, indent=indent) + "\n", args.out + ".ledger.json")
    return 0


# ----------------------------------------------------------------- params

def _parse_family(text: str) -> "ParamTuple":
    from .lifting import ParamTuple

    parts = [int(x) for x in text.split(",")]
    if len(parts) not in (6, 8):
        raise ValueError(
            "family tuple is K,f,Zm,Zr,gb,gL with optional ,member_labels,ref_labels"
        )
    return ParamTuple(*parts)


def _parse_base(text: str) -> PdaParams:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 5:
        raise ValueError("base tuple is K,f,Z,S,g")
    if parts[1] < 1:
        raise ValueError("base subpacketization f must be positive")
    return _params_of(*parts)


def _cmd_params(args) -> int:
    from . import lifting

    try:
        families = [_parse_family(text) for text in args.family]
        base = None if args.base is None else _parse_base(args.base)
    except ValueError as exc:
        raise _UsageError(f"bad parameters: {exc}") from exc
    if args.member_labels is not None or args.ref_labels is not None:
        if len(families) != 1:
            raise _UsageError("--member-labels/--ref-labels apply to a single --family")
        given = {"member_labels": args.member_labels, "ref_labels": args.ref_labels}
        families[0] = families[0]._replace(**{k: v for k, v in given.items() if v is not None})
    if base is not None or len(families) > 1:
        for text, fam in zip(args.family, families):
            if fam.member_labels is None or fam.ref_labels is None:
                raise _UsageError(
                    f"--family {text}: --base and chaining need both label counts "
                    "(,Lm,Lr or --member-labels/--ref-labels)"
                )
    # Each composed tuple is printed as it is made; a lone family without a
    # base prints itself.
    combined = families[0]
    for i, nxt in enumerate(families):
        if i:
            combined = lifting.lift_family_params(combined, nxt)
        if i or (base is None and len(families) == 1):
            print(
                f"{combined.notation()} member_labels={combined.member_labels} "
                f"ref_labels={combined.ref_labels}"
            )
    if base is not None:
        print(_params_line(lifting.lifted_params(base, combined)))
    return 0


# ----------------------------------------------------------------- table / sim

def _cmd_table(args) -> int:
    from .tables import render_fig2_csv, render_table1_csv

    csv = render_table1_csv() if args.which == "table1" else render_fig2_csv()
    _write_text(csv, args.out)
    return 0


def _cmd_sim(args) -> int:
    import json

    from .gridio import load_pda
    from .simulate import run

    p = load_pda(args.pda)
    # run raises ValueError only for its arguments: an invalid array is an
    # InvalidPdaError, a failed decode a DecodeError.
    try:
        demands = [int(x) for x in args.demands.split(",")] if args.demands else None
        report = run(p, args.files, args.size, demands=demands, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(f"bad parameters: {exc}") from exc
    print(
        json.dumps(
            {
                "decode_ok": list(report.decode_ok),
                "rate": str(report.achieved_rate),
                "subpacketization": report.subpacketization,
                "transmissions": report.transmissions_count,
                "bytes_sent": report.bytes_sent,
            }
        )
    )
    return 0 if report.all_ok else 1


# ----------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pdakit",
        description="Placement delivery arrays: generate, verify, lift, simulate.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a named PDA family")
    g.add_argument("name")
    g.add_argument("params", nargs="*", type=int)
    g.add_argument("--labels", help="comma-separated label values")
    g.add_argument("--anti", action="store_true", help="anti-diagonal identity")
    g.add_argument("-o", "--out")
    g.add_argument("--format", choices=("grid", "json"))
    g.set_defaults(func=_cmd_gen)

    v = sub.add_parser("verify", help="validate a PDA file and print its parameters")
    v.add_argument("file")
    v.add_argument("--labels", type=int, help="declared label count for the C2 check")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("compat", help="check Blackburn-compatibility")
    c.add_argument("files", nargs="+")
    c.add_argument("--mode", choices=("full", "right", "left", "family", "cstar"), required=True)
    c.add_argument("--ref", action="append", default=[], help="reference grid (repeatable)")
    c.set_defaults(func=_cmd_compat)

    l = sub.add_parser("lift", help="lift a base PDA")
    l.add_argument("base", nargs="?")
    l.add_argument("--mode", choices=("uniform", "basic", "family", "nonuniform"), required=True)
    l.add_argument("--member", action="append", default=[], help="member grid (repeatable)")
    l.add_argument("--ref", action="append", default=[], help="reference grid (repeatable)")
    l.add_argument("--q-member", action="append", default=[], help="lifting family member")
    l.add_argument("--q-ref", help="lifting family reference")
    l.add_argument("--orientation", choices=("main", "anti"), help="nonuniform only; default main")
    l.add_argument("-o", "--out")
    l.add_argument("--format", choices=("grid", "json"))
    l.set_defaults(func=_cmd_lift)

    p = sub.add_parser("params", help="evaluate the lifted-parameter calculus")
    p.add_argument("--base", help="base parameters as K,f,Z,S,g")
    p.add_argument("--family", action="append", required=True, help="family tuple K,f,Zm,Zr,gb,gL[,Lm,Lr]")
    p.add_argument("--member-labels", type=int)
    p.add_argument("--ref-labels", type=int)
    p.set_defaults(func=_cmd_params)

    t = sub.add_parser("table", help="emit tradeoff tables as CSV")
    t.add_argument("which", choices=("table1", "fig2"))
    t.add_argument("-o", "--out")
    t.set_defaults(func=_cmd_table)

    s = sub.add_parser("sim", help="simulate one caching round")
    s.add_argument("--pda", required=True)
    s.add_argument("--files", type=int, required=True)
    s.add_argument("--size", type=int, required=True)
    s.add_argument("--demands", help="comma-separated demand vector")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_sim)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (PdaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

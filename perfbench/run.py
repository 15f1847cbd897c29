"""Seeded, layered benchmark for pdakit.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, each in its own process

Run it from anywhere; it imports pdakit from the ``src/`` next to this
directory and puts the same directory on the PYTHONPATH of the CLI processes
it starts.  The seed only generates inputs: pdakit receives the generated
arrays, texts, demands and library seeds, never the benchmark seed.

``--trace 0`` runs one workload as a closed loop with one caller and prints
the end-to-end metrics, with each time set against a fixed reference loop
timed just before it, so that load from other tenants cancels out (see
``_latencies``).  ``--trace 1`` prints the per-layer metrics instead:
it records spans around every call the benchmark makes into pdakit's layers
during one pass of every workload's op mix, times the CLI's start-up, sweeps
mn(K, K//2) for the scaling exponents, and compares traced with untraced
passes of the named workload for the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  ``correct`` is false
when an op fails for any reason other than a documented deviation;
those still count in ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPS = 5
MIN_OPS = 100  # so that at least ten samples lie beyond op_p90_ms
SWEEP_KS = range(10, 19)
CALIBRATION_REPS = 7
# Times are reported at the speed where the reference loop below takes this
# long, about its fastest time on a quiet core of a 2-vCPU Xeon VM running
# CPython 3.11.
REFERENCE_S = 0.3e-3
REFERENCE_REPS = 10  # reference loops timed before each set-up
OVERHEAD_PAIRS = 4  # fewest untraced/traced pass pairs behind trace.overhead_ratio

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "gridio.parse_s": "s",
    "gridio.parse_ns_per_cell": "ns/cell",
    "gridio.serialize_s": "s",
    "gridio.serialize_ns_per_cell": "ns/cell",
    "gridio.bytes_read": "B",
    "gridio.bytes_written": "B",
    "gridio.parse_scaling_exp": "slope",
    "gridio.serialize_scaling_exp": "slope",
    "constructions.build_s": "s",
    "constructions.ns_per_cell": "ns/cell",
    "constructions.cells_built": "count",
    "constructions.mn_scaling_exp": "slope",
    "core.validate_s": "s",
    "core.params_s": "s",
    "core.validate_ns_per_cell": "ns/cell",
    "core.label_pairs": "count",
    "core.ns_per_label_pair": "ns/pair",
    "core.cells_validated": "count",
    "core.invalid_caught_ratio": "ratio",
    "core.validate_scaling_exp": "slope",
    "compatibility.check_s": "s",
    "compatibility.cross_pairs": "count",
    "compatibility.ns_per_pair": "ns/pair",
    "compatibility.witnesses": "count",
    "lifting.lift_s": "s",
    "lifting.output_cells": "count",
    "lifting.blocks": "count",
    "lifting.ns_per_output_cell": "ns/cell",
    "simulate.library_s": "s",
    "simulate.place_s": "s",
    "simulate.deliver_s": "s",
    "simulate.decode_s": "s",
    "simulate.cache_bytes": "B",
    "simulate.bytes_sent": "B",
    "simulate.xor_bytes": "B",
    "simulate.place_mb_per_s": "MB/s",
    "simulate.decode_mb_per_s": "MB/s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.gen_s": "s",
    "cli.verify_s": "s",
    "cli.compat_s": "s",
    "cli.lift_s": "s",
    "cli.sim_s": "s",
    "cli.table_s": "s",
    "cli.exit_code_mismatches": "count",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Latencies, failures by op and reason, and work counts of a run."""

    def __init__(self):
        self.latencies = []
        self.failures = Counter()
        self.work = Counter()
        self.reference = []  # with settled passes: the reference loop's time before each op

    def failed(self) -> int:
        return sum(self.failures.values())


def reference_loop() -> float:
    """Seconds of one run of a fixed loop of dict, list and tuple work.

    It is the benchmark's own code and never changes, so its time tracks
    only how fast the machine runs Python at that moment.
    """
    t0 = perf_counter()
    buckets = {}
    for i in range(2000):
        buckets.setdefault(i % 61, []).append((i, i * 7 % 13))
    sum(len(b) for b in buckets.values())
    return perf_counter() - t0


def run_pass(ops, api, tally: Tally, rec=None, op_prefix: str = "", settle: bool = False) -> float:
    """Run each op once, check it outside its timer; return the busy time.

    With ``settle`` the cyclic garbage collector runs before each op, so
    that no op pays for the garbage of the one before it, and then the
    reference loop is timed; both stay outside the op's timer.
    """
    busy = 0.0
    for op in ops:
        result = error = None  # the last op's output is freed here, not inside the next op's timer
        if settle:
            gc.collect()
            tally.reference.append(reference_loop())
        if rec is not None:
            rec.op_id = f"{op_prefix}{len(tally.latencies)}"
        t0 = perf_counter()
        spans = [] if rec is None else [rec.begin(f"op.{op.name}")]
        if rec is not None and op.span:
            spans.append(rec.begin(op.span))
        try:
            result, error = op.run(api), None
        except Exception as exc:  # a failed op is counted, never fatal
            result, error = None, exc
        finally:
            for span in reversed(spans):
                rec.end(span)
        dt = perf_counter() - t0
        busy += dt
        tally.latencies.append(dt)
        if error is not None:
            tally.failures[(op.name, f"raised {type(error).__name__}: {error}"[:200])] += 1
            continue
        try:
            reason, work = op.check(result)
        except Exception as exc:
            reason, work = f"check raised {type(exc).__name__}: {exc}"[:200], {}
        tally.work.update(work)
        if reason:
            tally.failures[(op.name, reason)] += 1
    return busy


def provenance(seed: int) -> dict:
    import pdakit

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_caches": caches,
        "git_commit": commit,
        "pdakit": pdakit.__file__,
    }


def _report_failures(tallies, known: dict) -> bool:
    """Print failures by op and reason; True when all are documented."""
    failures = Counter()
    for t in tallies:
        failures.update(t.failures)
    for (name, reason), n in sorted(failures.items()):
        note = f"  [documented deviation: {known[name]}]" if name in known else ""
        print(f"failed {n}x {name}: {reason}{note}")
    return all(name in known for name, _ in failures)


def _latencies(tally: Tally, n: int) -> list:
    """Each of a pass's n ops' latency in seconds at the reference speed.

    Other tenants of a shared machine slow its CPU down, at times by half
    for minutes, and no run is long enough to wait that out.  Each op's time
    is therefore set against the reference loop timed just before it, with
    the caches as the op before left them: the op's summed times over the
    passes, divided by the summed reference times before them, times
    REFERENCE_S.  Load from elsewhere slows both alike, while a change to
    pdakit moves only the op's side.  A sample whose op / reference ratio
    is more than twice or less than half the op's median ratio is left out:
    the machine stalled the op or the loop before it.
    """
    out = []
    for i in range(n):
        pairs = list(zip(tally.latencies[i::n], tally.reference[i::n]))
        mid = statistics.median(t / r for t, r in pairs)
        kept = [(t, r) for t, r in pairs if mid / 2 <= t / r <= mid * 2]
        out.append(REFERENCE_S * sum(t for t, _ in kept) / sum(r for _, r in kept))
    return out


def _set_up(workload: str, seed: int, tiny: bool):
    """A fresh import of pdakit plus the seeded inputs.

    Returns the set-up's seconds at the reference speed, the layers and the
    pass.
    """
    from spans import import_layers
    from workloads import WORKLOADS

    gc.collect()
    ref = statistics.median(reference_loop() for _ in range(REFERENCE_REPS))
    t0 = perf_counter()
    layers = import_layers()
    wl = WORKLOADS[workload](layers, seed, tiny=tiny, root=ROOT)
    seconds = perf_counter() - t0
    # Set-up objects live as long as the pass; frozen, the collector stops
    # scanning them, so an op's collections cost the same whatever came before.
    gc.collect()
    gc.freeze()
    return REFERENCE_S * seconds / ref, layers, wl


def measure(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    setup_times = []
    first, layers, wl = _set_up(workload, seed, tiny)
    setup_times.append(first)
    # The other set-ups are spread over the run, so that one burst of load
    # from elsewhere cannot slow all of them.  Each replaces the pass with an
    # identical one built from the same seed, so only one is ever in memory.
    setup_marks = [seconds * (i + 1) / SETUP_REPS for i in range(SETUP_REPS - 1)]
    tally = Tally()
    pass_s = []
    try:
        start = perf_counter()
        while True:
            pass_s.append(run_pass(wl.ops, layers, tally, settle=True))
            elapsed = perf_counter() - start
            if setup_marks and elapsed >= setup_marks[0]:
                setup_marks.pop(0)
                wl.close()
                wl = layers = None
                gc.unfreeze()
                again, layers, wl = _set_up(workload, seed, tiny)
                setup_times.append(again)
            if not setup_marks and elapsed >= seconds and len(tally.latencies) >= (1 if tiny else MIN_OPS):
                break
    finally:
        if wl is not None:
            wl.close()
        gc.unfreeze()
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    lat = tally.latencies
    n = len(wl.ops)
    latency = _latencies(tally, n)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / sum(latency),
        "op_p50_ms": statistics.median(latency) * 1e3,
        "op_p90_ms": statistics.quantiles(latency, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    slowdown = statistics.median(tally.reference) / REFERENCE_S
    print(f"workload {workload}: {wl.mix}")
    print(f"closed loop, one caller: {len(pass_s)} passes, {len(lat)} ops in {sum(lat):.3f} busy s; "
          f"busy s per pass " + " ".join(f"{t:.3f}" for t in pass_s))
    print(f"reference loop: median {slowdown * REFERENCE_S * 1e3:.4f} ms, fastest "
          f"{min(tally.reference) * 1e3:.4f} ms; the machine ran {slowdown:.3f}x slower than "
          f"the reference speed ({REFERENCE_S * 1e3:g} ms), and the figures below are scaled back")
    print("set-up s at the reference speed " + " ".join(f"{t:.4f}" for t in setup_times))
    print("ms per op at the reference speed " + " ".join(
        f"{op.name}={t * 1e3:.2f}" for op, t in zip(wl.ops, latency)))
    samples = f"over {n} ops, each from {len(pass_s)} samples"
    notes = {
        "setup_s": f"median of {len(setup_times)}, spread over the run",
        "ops_per_s": "ops per pass / sum of the ops' latencies",
        "op_p50_ms": samples,
        "op_p90_ms": samples,
        "peak_rss_mb": "peak of the CLI processes" if workload == "cli" else "this process",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:14s} {metrics[name]:14.4f} {unit:4s} {notes.get(name, '')}")
    print(f"  {'error_rate':14s} {tally.failed() / len(lat):14.4f} ratio {tally.failed()}/{len(lat)}")
    correct = _report_failures([tally], wl.known_deviations)
    return {
        "correct": correct,
        "attempted": len(lat),
        "failed": tally.failed(),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


def _scaling_sweep(api, rec, ks, tally) -> dict:
    """Build, serialize, parse and validate mn(K, K//2) once per K."""
    points = defaultdict(list)
    for k in ks:
        rec.op_id = f"sweep:{k}"
        first = len(rec.spans)
        p = api.constructions.mn(k, k // 2)
        text = api.gridio.serialize_grid(p)
        q = api.gridio.parse_grid(text)
        ok = api.core.validate(q).ok
        tally.latencies.append(sum(s[3] - s[2] for s in rec.spans[first:]))
        if not ok or q != p:
            tally.failures[("sweep.mn", f"mn({k},{k // 2}) did not round-trip as a valid PDA")] += 1
        cells = p.rows * p.cols
        for span in rec.spans[first:]:
            points[span[1]].append((cells, span[3] - span[2]))
        del p, q, text
    return {name: _loglog_slope(pts) for name, pts in points.items()}


def _loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(cells)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _cli_calibration(reps: int) -> tuple:
    """Median seconds of `python -c pass` and of `import pdakit.cli` on top."""
    from workloads import _cli_env

    env = _cli_env(SRC)
    bare, imported = [], []
    for _ in range(reps):
        for out, code in ((bare, "pass"), (imported, "import pdakit.cli")):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
            out.append(perf_counter() - t0)
    interpreter = statistics.median(bare)
    return interpreter, statistics.median(imported) - interpreter


def _layer_metrics(rec, work, slopes, calibration, overhead) -> dict:
    own = rec.self_times()
    by_fn = Counter()
    cli = defaultdict(list)
    for span in rec.spans:
        if span[5] and span[5].startswith("profile:"):
            by_fn[span[1]] += own[span[0]]
            if span[1].startswith("cli."):
                cli[span[1]].append(span[3] - span[2])

    def layer(prefix):
        return sum(v for name, v in by_fn.items() if name.startswith(prefix + "."))

    def per(seconds, count, scale=1e9):
        return seconds * scale / count if count else 0.0

    parse_s = by_fn["gridio.parse_grid"] + by_fn["gridio.pda_from_json"]
    serialize_s = by_fn["gridio.serialize_grid"] + by_fn["gridio.pda_to_json"]
    build_s = layer("constructions")
    validate_s = by_fn["core.validate"]
    check_s = layer("compatibility")
    lift_s = layer("lifting")
    place_s, decode_s = by_fn["simulate.place"], by_fn["simulate.decode"]
    interpreter_s, import_s = calibration
    m = {
        "gridio.parse_s": parse_s,
        "gridio.parse_ns_per_cell": per(parse_s, work["gridio.parse_cells"]),
        "gridio.serialize_s": serialize_s,
        "gridio.serialize_ns_per_cell": per(serialize_s, work["gridio.serialize_cells"]),
        "gridio.bytes_read": work["gridio.bytes_read"],
        "gridio.bytes_written": work["gridio.bytes_written"],
        "gridio.parse_scaling_exp": slopes["gridio.parse_grid"],
        "gridio.serialize_scaling_exp": slopes["gridio.serialize_grid"],
        "constructions.build_s": build_s,
        "constructions.ns_per_cell": per(build_s, work["constructions.cells_built"]),
        "constructions.cells_built": work["constructions.cells_built"],
        "constructions.mn_scaling_exp": slopes["constructions.mn"],
        "core.validate_s": validate_s,
        "core.params_s": by_fn["core.params"],
        "core.validate_ns_per_cell": per(validate_s, work["core.cells_validated"]),
        "core.label_pairs": work["core.label_pairs"],
        "core.ns_per_label_pair": per(validate_s, work["core.label_pairs"]),
        "core.cells_validated": work["core.cells_validated"],
        "core.invalid_caught_ratio": per(work["core.invalid_caught"], work["core.invalid_submitted"], 1),
        "core.validate_scaling_exp": slopes["core.validate"],
        "compatibility.check_s": check_s,
        "compatibility.cross_pairs": work["compatibility.cross_pairs"],
        "compatibility.ns_per_pair": per(check_s, work["compatibility.cross_pairs"]),
        "compatibility.witnesses": work["compatibility.witnesses"],
        "lifting.lift_s": lift_s,
        "lifting.output_cells": work["lifting.output_cells"],
        "lifting.blocks": work["lifting.blocks"],
        "lifting.ns_per_output_cell": per(lift_s, work["lifting.output_cells"]),
        "simulate.library_s": by_fn["simulate.make_library"],
        "simulate.place_s": place_s,
        "simulate.deliver_s": by_fn["simulate.deliver"],
        "simulate.decode_s": decode_s,
        "simulate.cache_bytes": work["simulate.cache_bytes"],
        "simulate.bytes_sent": work["simulate.bytes_sent"],
        "simulate.xor_bytes": work["simulate.xor_bytes"],
        "simulate.place_mb_per_s": per(work["simulate.cache_bytes"], place_s, 1e-6),
        "simulate.decode_mb_per_s": per(work["simulate.decoded_bytes"], decode_s, 1e-6),
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "cli.exit_code_mismatches": work["cli.exit_code_mismatches"],
        "trace.overhead_ratio": overhead,
    }
    for cmd in ("gen", "verify", "compat", "lift", "sim", "table"):
        m[f"cli.{cmd}_s"] = statistics.median(cli[f"cli.{cmd}"])
    return m


def measure_traced(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    from spans import Recorder, import_layers, traced_layers
    from workloads import WORKLOADS

    layers = import_layers()
    wls = {name: setup(layers, seed, tiny=tiny, root=ROOT) for name, setup in WORKLOADS.items()}
    rec = Recorder()
    traced = traced_layers(layers, rec)
    plain, traced_tally, profile = Tally(), Tally(), Tally()
    try:
        start = perf_counter()
        for name, wl in wls.items():
            run_pass(wl.ops, traced, profile, rec, f"profile:{name}:")
        slopes = _scaling_sweep(traced, rec, range(5, 9) if tiny else SWEEP_KS, profile)
        calibration = _cli_calibration(2 if tiny else CALIBRATION_REPS)
        # The rest of the run, and at least OVERHEAD_PAIRS pairs, alternates
        # untraced and traced passes, so that drift hits both sides alike.
        pairs = 0
        while pairs < OVERHEAD_PAIRS or perf_counter() - start < seconds:
            run_pass(wls[workload].ops, layers, plain, settle=True)
            run_pass(wls[workload].ops, traced, traced_tally, rec, "overhead:", settle=True)
            pairs += 1
    finally:
        for wl in wls.values():
            wl.close()
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    rec.dump(spans_path)
    n = len(wls[workload].ops)
    overhead = sum(_latencies(traced_tally, n)) / sum(_latencies(plain, n))
    metrics = _layer_metrics(rec, profile.work, slopes, calibration, overhead)

    print(f"traced run: one pass of every workload's op mix, mn(K,K//2) sweep, "
          f"CLI start-up; overhead from {pairs} untraced/traced pass pairs of {workload}")
    for name, wl in wls.items():
        print(f"  {name}: {wl.mix}")
    print(f"spans: {len(rec.spans)} written to {spans_path.relative_to(ROOT)}")
    _print_self_times(rec)
    for name, unit in PER_LAYER.items():
        print(f"  {name:32s} {metrics[name]:16.6g} {unit}")
    known = {k: v for wl in wls.values() for k, v in wl.known_deviations.items()}
    tallies = (plain, traced_tally, profile)
    correct = _report_failures(tallies, known)
    return {
        "correct": correct,
        "attempted": sum(len(t.latencies) for t in tallies),
        "failed": sum(t.failed() for t in tallies),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()},
    }


def _print_self_times(rec) -> None:
    """Self seconds per layer (columns) for each workload's profiled pass."""
    own = rec.self_times()
    table = defaultdict(Counter)
    for span in rec.spans:
        if span[5] and span[5].startswith("profile:"):
            table[span[5].split(":")[1]][span[1].split(".")[0]] += own[span[0]]
    cols = ("op", "gridio", "constructions", "core", "compatibility", "lifting", "simulate", "cli")
    print("self s by layer  " + " ".join(f"{c:>13s}" for c in cols))
    for wl, row in table.items():
        print(f"  {wl:14s} " + " ".join(f"{row[c]:13.4f}" for c in cols))


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    from workloads import WORKLOADS

    status = 0
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        summary[name] = json.loads(done.stdout.splitlines()[-1])
        status = status or (0 if summary[name]["correct"] else 1)
    print(json.dumps({"workloads": summary}))
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them, each in its own process, when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pdakit" / "__init__.py").is_file():
        print(f"perfbench: no pdakit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    print("provenance: " + json.dumps(provenance(args.seed)))
    measure_fn = measure_traced if args.trace else measure
    print(json.dumps(measure_fn(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at tiny sizes, standard library only.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the end-to-end metrics named in
BENCHMARK.json, with their units, and that the traced run emits every
per-layer metric; then plants a wrong expected answer and confirms that the
ops it checks are counted as failed.  Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import expect
import run
from workloads import WORKLOADS


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def _quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def _check_metrics(result: dict, declared: list, where: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    _require(got == want, f"{where}: metrics {sorted(got)} with units differ from {sorted(want)}")
    for name, m in result["metrics"].items():
        value = m["value"]
        _require(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}={value!r}")
    _require(result["attempted"] >= 1, f"{where}: no op attempted")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _require([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    sys.path.insert(0, str(run.SRC))

    for name in WORKLOADS:
        result = _quiet(run.measure, name, 7, 0.05, tiny=True)
        _check_metrics(result, spec["end_to_end"], name)
        _require(result["correct"], f"{name}: an undocumented failure at tiny size")
        for metric in result["metrics"].values():
            _require(metric["value"] > 0, f"{name}: an end-to-end metric is 0")
        print(f"ok  {name}: {len(result['metrics'])} end-to-end metrics, "
              f"{result['failed']}/{result['attempted']} failed")

    traced = _quiet(run.measure_traced, "compose", 7, 0.05, tiny=True)
    _check_metrics(traced, spec["per_layer"], "traced run")
    print(f"ok  traced run: {len(traced['metrics'])} per-layer metrics")

    right = expect.mn_params
    expect.mn_params = lambda k, t: (*right(k, t)[:3], right(k, t)[3] + 1, right(k, t)[4])
    try:
        planted = _quiet(run.measure, "verify", 7, 0.05, tiny=True)
    finally:
        expect.mn_params = right
    _require(planted["failed"] > 0 and not planted["correct"],
             "a wrong expected MN label count went unnoticed")
    print(f"ok  planted wrong answer: error_rate {planted['failed'] / planted['attempted']:.3f}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

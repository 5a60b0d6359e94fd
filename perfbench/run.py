"""Run one benchmark workload against the chooselab sources of this checkout.

    python3 perfbench/run.py --workload catalog|audits|lists|colorings \
        --seed N --seconds S --trace 0|1

One single-threaded process.  After one untimed warm-up session it repeats
the workload's fixed session of operations until S seconds have passed,
checks every output, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are end to end (setup_s, units_per_s,
command_p50_ms, peak_rss_mb); with --trace 1 the run is traced and the
metrics are per layer, each a total per session.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

COLD_STARTS = 7
COLD_START = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import chooselab.cli; from chooselab import claims; "
              "claims.list_claims()")


def cold_start_s() -> float:
    """Median wall time from a fresh interpreter to the catalog loaded."""
    cmd = [sys.executable, "-E", "-c", COLD_START, str(SRC)]
    subprocess.run(cmd, check=True, cwd=ROOT)       # warm the bytecode cache
    times = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibration_ms() -> float:
    """A fixed pure-Python loop, to tell machine drift from program change."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def run_session(ops, tracer=None):
    """Run every operation once; return (times, results, exceptions)."""
    gc.collect()
    times, results, errors = [], [], []
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
            inside0 = tracer.top_level_s
        t0 = time.perf_counter()
        try:
            result, err = op.run(), None
        except Exception as exc:          # counted as a failed operation
            result, err = None, exc
        dt = time.perf_counter() - t0
        times.append(dt)
        results.append(result)
        errors.append(err)
        if tracer is not None:
            tracer.outside_s += dt - (tracer.top_level_s - inside0)
    return times, results, errors


def check_session(ops, results, errors) -> tuple[int, list[str]]:
    """(operations that raised, outputs that failed a check) of one session."""
    from oracles import Mismatch
    failed, problems = 0, []
    for op, result, err in zip(ops, results, errors):
        if err is not None:
            failed += 1
            print(f"FAILED: {op.label}: "
                  + "".join(traceback.format_exception_only(err)).strip(),
                  file=sys.stderr)
            continue
        try:
            op.check(result)
        except (Mismatch, KeyError, ValueError, TypeError) as exc:
            problems.append(f"{op.label}: {exc!r}")
    return failed, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("catalog", "audits", "lists", "colorings"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "chooselab" / "__init__.py").is_file():
        print(f"no chooselab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chooselab
    if Path(chooselab.__file__).resolve().parent != SRC / "chooselab":
        print("chooselab was imported from outside this checkout", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    calib = calibration_ms()
    setup_s = cold_start_s()
    OUT.mkdir(exist_ok=True)
    tracer = None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.trace:
            tracer = Tracer()
            tracer.install()
        # warm-up session: untimed, but checked like every other
        _, results, errors = run_session(wl.ops, tracer)
        warm_failed, problems = check_session(wl.ops, results, errors)
        if wl.units_from_output is not None and not warm_failed:
            wl.units += wl.units_from_output(results)
        if tracer is not None:
            tracer.reset()
            tracer.recording = True
        session_s, op_s = [], []
        attempted = failed = 0
        start = time.perf_counter()
        while not session_s or time.perf_counter() - start < args.seconds:
            times, results, errors = run_session(wl.ops, tracer)
            if tracer is not None:
                tracer.recording = False       # spans of the first session only
            session_s.append(sum(times))
            op_s.extend(times)
            attempted += len(wl.ops)
            f, pr = check_session(wl.ops, results, errors)
            failed += f
            problems.extend(pr)

    for line in problems[:20]:
        print("CHECK FAILED:", line, file=sys.stderr)
    sessions = len(session_s)
    median_session = statistics.median(session_s)
    print(f"workload={wl.name} seed={args.seed} trace={args.trace} "
          f"ops/session={len(wl.ops)} sessions={sessions} "
          f"units/session={wl.units} ({wl.unit}) "
          f"median_session_s={median_session:.4f} calibration_ms={calib:.2f}")

    if args.trace:
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": tracer.value(m["name"]) / sessions,
                               "unit": m["unit"]} for m in per_layer}
        metrics["cli.s"]["value"] = tracer.outside_s / sessions
        trace_file = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "sessions": sessions,
            "median_session_s": median_session, "calibration_ms": calib,
            "self_s_per_session": {k: v / sessions
                                   for k, v in sorted(tracer.self_s.items())},
            "calls_per_session": {k: v / sessions
                                  for k, v in sorted(tracer.calls.items())},
            "spans": [list(s) for s in tracer.spans],
        }))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "units_per_s": {"value": wl.units / median_session, "unit": "1/s"},
            "command_p50_ms": {"value": statistics.median(op_s) * 1000,
                               "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

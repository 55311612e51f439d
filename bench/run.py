"""spanbridge benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It sets the workload up SETUP_REPS times
(inputs from the seed, files, stub, cache prewarm, warm-up pass) and
reports the median as setup_s. It then repeats timed passes for S seconds
and checks every pass's outputs. Times are in reference seconds: the CPU
work of each pass and set-up is scaled to the machine's speed around it
(speed.py). With --trace 0 every pass is
untraced and the end-to-end metrics, medians over the passes, are printed.
With --trace 1, untraced and traced passes alternate and the per-layer
metrics of the traced passes are printed, with trace.overhead_ratio =
untraced / traced throughput. Metric names and units come from
BENCHMARK.json.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit code 0 when every check passed; 1, with the result printed, when a
check failed or the code under test raised; 2, with no result, when the
sources are missing or the workload could not be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

from speed import SpeedProbe

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT_DIR, "src")
WORK_DIR = os.path.join(ROOT_DIR, ".bench_work")
SETUP_REPS = 5
MIN_PASSES = 3  # per kind of pass
STUB_METRICS = (
    "translate.http_attempts", "translate.retries", "translate.faults_injected",
    "translate.connections_opened", "translate.peak_in_flight", "translate.server_s",
    "translate.client_overhead_s",
)


def _fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def src_loc() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC_DIR):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    total += sum(1 for _ in f)
    return total


def measure(workload, seconds: float, traced: bool):
    """Timed passes until `seconds` have gone and each kind ran MIN_PASSES
    times; traced and untraced passes alternate when `traced`. Only the
    first pass that did not raise keeps its outputs; later ones keep whether
    they matched it."""
    from spans import SpanRecorder

    plain, traced_passes = [], []
    first = last_rec = None
    probe = SpeedProbe()
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(plain) < MIN_PASSES
           or (traced and len(traced_passes) < MIN_PASSES)):
        if traced and len(traced_passes) < len(plain):
            last_rec = SpanRecorder()
            p = workload.run_pass(rec=last_rec)
            traced_passes.append((p, layer_row(p, last_rec)))
        else:
            p = workload.run_pass()
            plain.append(p)
        p.speed = probe.next(p.cpu_s)
        if p.error:
            continue
        if first is None:
            first = p
        else:
            p.matches_first = p.outputs == first.outputs
            p.outputs = {}
    return plain, traced_passes, last_rec


def check_passes(workload, passes) -> tuple[list[str], int]:
    """Full check of the first pass that did not raise; later passes must
    repeat its outputs. A pass that raised or failed a check counts all its
    sentences as failed."""
    good = [p for p in passes if not p.error]
    errors = []
    if good:
        try:
            errors = workload.check(good[0])
        except Exception as e:  # output the check cannot even read is a failed check
            errors = [f"check raised {e!r}"]
    first_ok = bool(good) and not errors
    failed = 0
    for i, p in enumerate(passes):
        if p.error:
            errors.append(f"pass {i} raised {p.error}")
        elif not p.matches_first:
            errors.append(f"pass {i} outputs differ from the first pass")
        failed += p.failed if first_ok and not p.error and p.matches_first else p.sentences
    return errors, failed


def reference_wall(wall_s: float, cpu_s: float, speed: float) -> float:
    """Wall time with its CPU work scaled to machine speed. The process's CPU
    time, up to the wall time, is the part that slows with the machine; the
    rest is waiting (on the stub's service time, on files), which does not."""
    return wall_s - min(wall_s, cpu_s) * (1 - speed)


def rates(passes) -> list[float]:
    """Sentences per second of each pass, in reference seconds."""
    return [p.sentences / reference_wall(p.wall_s, p.cpu_s, p.speed) for p in passes]


def end_to_end(plain, setup_times, failed, attempted) -> dict[str, float]:
    good = [p for p in plain if not p.error]
    return {
        "sentences_per_s": statistics.median(rates(plain)),
        "cpu_s_per_1k": statistics.median(1000 * p.cpu_s * p.speed / p.sentences for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
        "projection_rate": good[0].projection_rate if good else 0.0,
        "completed_ratio": 1 - failed / attempted,
    }


def layer_row(p, rec) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from spans import layer_metrics

    row = layer_metrics(rec, p.wall_s)
    row["core.bytes_in"] = p.bytes_in
    row["core.bytes_out"] = p.bytes_out
    # counted at the HTTP stub; 0 on workloads without one
    row.update(dict.fromkeys(STUB_METRICS, 0))
    if p.layer:
        row.update(p.layer)
        row["translate.retries"] = row["translate.http_attempts"] - row["translate.requests"]
        row["translate.client_overhead_s"] = row["translate.busy_s"] - row["translate.server_s"]
    return row


def per_layer(plain, traced_passes) -> dict[str, float]:
    """Median of each per-layer metric over the traced passes."""
    rows = [row for _, row in traced_passes]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["trace.overhead_ratio"] = (statistics.median(rates(plain))
                                   / statistics.median(rates(p for p, _ in traced_passes)))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="spanbridge benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC_DIR, "spanbridge", "__init__.py")):
        _fail(f"no spanbridge sources under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    try:
        with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        _fail(f"cannot read BENCHMARK.json: {e}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # a terminated run still stops its stub and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    # the stub is local; never route its requests through a configured proxy
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        try:
            setup_times = []
            probe = SpeedProbe()
            for _ in range(SETUP_REPS):
                workload.close()
                t0, c0 = time.perf_counter(), time.process_time()
                workload.setup()
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                setup_times.append(reference_wall(wall, cpu, probe.next(cpu)))
        except (OSError, RuntimeError) as e:
            _fail(f"workload {args.workload} could not be set up: {e}")
        plain, traced_passes, last_rec = measure(workload, args.seconds, bool(args.trace))
        passes = plain + [p for p, _ in traced_passes]
        errors, failed = check_passes(workload, passes)
        if workload.warm_error:
            errors.insert(0, f"warm-up pass raised {workload.warm_error}")
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(p.sentences for p in passes)

    if args.trace:
        values = per_layer(plain, traced_passes)
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        last_rec.write(spans_path)
    else:
        values = end_to_end(plain, setup_times, failed, attempted)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        _fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced_passes)} traced passes of {passes[0].sentences} sentences")
    summaries = [("sentences/s", rates(plain)),
                 ("unscaled sentences/s", [p.sentences / p.wall_s for p in plain]),
                 ("unscaled cpu_s_per_1k", [1000 * p.cpu_s / p.sentences for p in plain]),
                 ("machine speed", [p.speed for p in plain])]
    for label, values_ in summaries:
        q1, q2, q3 = statistics.quantiles(values_, n=4)
        print(f"  {label} median {q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g}) over {len(plain)} "
              f"untraced passes")
    print(f"  setup_s runs: {', '.join(f'{t:.3f}' for t in setup_times)}")
    print(f"  failed_ratio {failed / attempted:.6f} ({failed} of {attempted} sentences)")
    print(f"  src_loc {src_loc()} lines (informational)")
    if args.trace:
        print(f"  spans of the last traced pass: {os.path.relpath(spans_path, ROOT_DIR)}")
    for m in declared:
        print(f"  {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    if not errors:
        for note in workload.notes(passes[0]):
            print(f"  {note}")
    for e in errors[:20]:
        print(f"  CHECK FAILED: {e}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

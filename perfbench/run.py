"""Benchmark of the mazenav harness, from the root of a source checkout.

    python3 perfbench/run.py --workload eval-http --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` alternates untraced and traced iterations of identical work
and reports the per-layer metrics, including the tracing overhead. Metric
names and units are those declared in BENCHMARK.json. The last line of
stdout is one JSON object: correct, attempted, failed, metrics. The exit
code is non-zero when any output check fails. ``--workload all`` runs every
workload in its own process (so peak RSS is per workload) and prints a
table of their metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MIN_ITERATIONS = 3
# The shared host's speed swings by up to 2x within seconds and drifts over
# minutes, with CPU time equal to wall time, so unscaled timings spread too
# much between runs. Before each set-up and each iteration the benchmark
# times a fixed piece of work (a "mark"), and scales the CPU time of what
# lies between two marks to a host on which that work takes REFERENCE_S,
# about its time on the host of perfbench/baseline.json at full speed.
REFERENCE_S = 0.0025
# A mark is the fastest of these timings, so a burst shorter than one
# timing does not set it.
REFERENCE_SAMPLES = 3


def _reference_work() -> None:
    """A fixed piece of the kind of work the program does: a breadth-first
    search over a 34x34 grid of tuple cells, then its distances written
    out as text and parsed back."""
    size = 34
    dist = {(0, 0): 0}
    queue = collections.deque([(0, 0)])
    while queue:
        x, y = queue.popleft()
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < size and 0 <= ny < size and (nx, ny) not in dist and (7 * nx + 3 * ny) % 11:
                dist[nx, ny] = dist[x, y] + 1
                queue.append((nx, ny))
    text = "\n".join(f"{x},{y}:{d}" for (x, y), d in sorted(dist.items()))
    for line in text.splitlines():
        tuple(map(int, line.replace(":", ",").split(",")))


def _mark(marks: list[float]) -> None:
    samples = []
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        _reference_work()
        samples.append(time.perf_counter() - start)
    marks.append(min(samples))


def _at_reference_speed(wall: float, cpu: float, before: float, after: float) -> float:
    """``wall`` seconds, of which ``cpu`` were this process's CPU time, as
    they would read on a host of reference speed: the CPU time scaled by
    the host's speed at the marks just before and after, the rest (waiting
    on a server, a child process or the disk) left as measured."""
    slowdown = (before + after) / 2 / REFERENCE_S
    return wall - cpu + cpu / slowdown


def _use_checkout_sources() -> str | None:
    """Import the program from this checkout's src/; an error message if not."""
    sys.path.insert(0, str(SRC))
    try:
        import mazenav
    except ImportError as err:
        return f"cannot import mazenav from {SRC}: {err}"
    if Path(mazenav.__file__).resolve().parent != (SRC / "mazenav").resolve():
        return f"mazenav was imported from {mazenav.__file__}, not from {SRC}"
    return None


def _timed_setup(workload, marks: list[float]) -> list[float]:
    """Times of several set-ups, each a fresh-interpreter import of the
    program plus building the workload's inputs, each after a mark."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import mazenav.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        _mark(marks)
        start = time.perf_counter()
        # No timeout: with one, wait() polls in sleeps of up to 50 ms, which
        # would round the measured time up to that grid.
        subprocess.run([sys.executable, "-I", "-c", probe], check=True)
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def _measure(workload, seconds: float, tracer, marks: list[float]) -> dict:
    """Closed-loop iterations until the next one would overrun ``seconds``,
    with a mark before each iteration and one after the last.

    With a tracer, each iteration is followed by a traced one on the same
    inputs, and only the traced iterations feed the per-layer metrics.
    """
    out = {"attempted": 0, "failed": 0, "problems": [], "watches": [],
           "items": 0, "seconds": 0.0, "traced_seconds": 0.0, "iterations": 0}

    def tally(checked) -> None:
        attempted, failed, problems = checked
        out["attempted"] += attempted
        out["failed"] += attempted if problems else failed
        out["problems"] += problems

    start = time.perf_counter()
    i = 0
    while True:
        _mark(marks)
        items, watch, result = workload.iterate(i)
        tally(workload.check(result))
        out["items"] += items
        out["seconds"] += watch.wall
        out["watches"].append(watch)
        if tracer is not None:
            tracer.install()
            try:
                _, traced, result = workload.iterate(i)
            finally:
                tracer.uninstall()
            tally(workload.check(result))
            out["traced_seconds"] += traced.wall
        i += 1
        spent = time.perf_counter() - start
        if i >= MIN_ITERATIONS and spent * (i + 1) / i > seconds:
            break
    _mark(marks)
    out["iterations"] = i
    return out


def _run_one(args, spec: dict) -> int:
    error = _use_checkout_sources()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    tracer = tracing.Tracer() if args.trace else None
    marks: list[float] = []
    try:
        setups = _timed_setup(workload, marks)
        run = _measure(workload, args.seconds, tracer, marks)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    # Set-up j lies between marks j and j+1, iteration i between marks
    # len(setups)+i and len(setups)+i+1. Set-up is taken as all CPU work.
    setup_s = statistics.median(
        _at_reference_speed(t, t, marks[j], marks[j + 1]) for j, t in enumerate(setups))
    base = len(setups)
    iteration_s = statistics.median(
        _at_reference_speed(w.wall, w.cpu, marks[base + i], marks[base + i + 1])
        for i, w in enumerate(run["watches"]))
    per_iteration = run["items"] / run["iterations"]
    print(f"{args.workload} seed={args.seed}: reference work {1000 * statistics.median(marks):.3f} ms"
          f" (median of {len(marks)} marks); unscaled: "
          f"{per_iteration / statistics.median(w.wall for w in run['watches']):.6g} items/s, "
          f"set-up {statistics.median(setups):.6g} s")
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "items_per_ref_s": per_iteration / iteration_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}.jsonl")
        values = tracer.layer_metrics(run["iterations"], workload.concurrency)
        values["trace.overhead_ratio"] = run["traced_seconds"] / run["seconds"] - 1.0
        values["host.reference_ms"] = 1000 * statistics.median(marks)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                         "are not both measured and declared in BENCHMARK.json")

    correct = run["failed"] == 0
    for problem in dict.fromkeys(run["problems"]):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {run['iterations']} iterations, "
          f"{run['attempted']} {workload.item}s checked, {run['failed']} failed")
    for name in units:
        print(f"  {name:<42} {values[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def _run_all(args, names: list[str]) -> int:
    """Every workload in its own process; non-zero if any check failed."""
    status = 0
    table = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(f"{name}: FAILED (exit {proc.returncode})")
            status = 1
            continue
        for metric, value in result["metrics"].items():
            table.append(f"{name:<14} {metric:<42} {value['value']:>14.6g} {value['unit']}")
    print("\n".join(table))
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return _run_all(args, names) if args.workload == "all" else _run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads eval-http gen-solve --seeds 1 10
    python3 perfbench/spread.py --seeds 1 10 --baseline perfbench/baseline.json

Runs run.py once per workload and seed (seeds FIRST..LAST), then prints each
metric's median and its spread: the distance between the first and third
quartiles as a share of the median. A spread at or above the metric's bound
in BENCHMARK.json is flagged. ``--baseline`` also writes the medians, the
quartiles and the machine they were measured on to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs=2, type=int, default=(1, 10), metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    status = 0
    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    # Workloads take turns, seed by seed, so that each meets the same
    # stretches of the host's speed drift.
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        for workload in args.workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, timeout=600,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: checks failed", flush=True)
                status = 1
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    results = {}
    for workload in args.workloads:
        results[workload] = {}
        for name, vals in values[workload].items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bounds[name] else "  SPREAD >= BOUND"
            print(f"  {workload:<14} {name:<14} median {median:<12.6g} spread {spread:.4f}"
                  f" (bound {bounds[name]}){flag}", flush=True)
            results[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                       "runs": len(vals)}
    if args.baseline:
        baseline = {
            "commit": _commit(),
            "python": platform.python_version(),
            "cpu": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "run_seconds": args.seconds,
            "seeds": list(args.seeds),
            "workloads": results,
        }
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness report: repeat the benchmark over several seeds and summarize.

    python3 perfbench/steady.py [--seeds 1-10] [--trace 0|1] [--out FILE.json]
                                [--against OLD.json]

Runs `perfbench/run.py` once per (workload, seed) for every workload of
BENCHMARK.json, with its run_seconds, one process at a time.  A run
whose checks fail still counts, as correct=false, and makes the report
exit 1.  For every metric and workload it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
A bounded end-to-end metric whose spread exceeds its bound is flagged
"unresolved": a change to it smaller than the noise cannot be told apart
from the noise.  With --against, the medians are compared with an
earlier --out file of the same benchmark and a metric whose median got
worse by more than its bound is flagged "worse".  The header records the
machine: cores, CPU model, Python and numpy versions, thread pinning.
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


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=False,
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": probe.stdout.strip() or "unavailable",
        "threads": "child BLAS/OpenMP pools pinned to 1 (see run.py THREAD_VARS)",
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    # run.py exits 1 after printing its result when a check failed; that
    # result is kept.  Any other exit means there is no result to keep.
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write runs and summary as JSON")
    parser.add_argument("--against", default=None, help="earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    earlier = json.loads(Path(args.against).read_text())["summary"] if args.against else {}
    report = {"machine": machine(), "seeds": parse_seeds(args.seeds), "trace": args.trace,
              "runs": {}, "summary": {}}
    print("machine: " + ", ".join(f"{k}={v}" for k, v in report["machine"].items()))
    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in report["seeds"]:
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(result)
            all_ok = all_ok and result["correct"]
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        report["runs"][workload] = runs
        summary = report["summary"][workload] = {}
        print(f"{workload}: {len(runs)} runs")
        print(f"  {'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  status")
        for name, meta in spec.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not values:
                continue
            s = summary[name] = summarize(values)
            bound = meta.get("bound")
            status = ""
            if bound is not None:
                status = "unresolved" if s["spread"] > bound else "ok"
                before = earlier.get(workload, {}).get(name)
                if before and before["median"]:
                    change = s["median"] / before["median"] - 1.0
                    worse = change if meta["better"] == "lower" else -change
                    status += f", {100 * change:+.1f}% vs earlier" + (" WORSE" if worse > bound else "")
            print(f"  {name:44} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:7.3f} {bound if bound is not None else '':>6}  {status}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

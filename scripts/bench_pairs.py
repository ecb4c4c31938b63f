"""Before/after benchmark record: alternating pairs of perfbench runs on two trees.

Runs `perfbench/run.py` of each tree (from that tree's root) on every
workload of BENCHMARK.json for its run_seconds, alternating which tree
goes first in each pair, once per seed 1..10 and once more on the
held-out seed 424242; then, per workload, one traced process per tree
(a run of 0 seconds, which is one untraced and one traced process).
Writes a JSON record with the machine, every run's end-to-end metrics,
the median, quartiles and spread (q3 - q1) / median of each metric per
tree with the status perfbench/steady.py prints ("unresolved" when the
spread exceeds the metric's bound, else "ok"), the ratio of the medians
(after over before) and in how many pairs the second tree was better.
Progress goes to stderr.

With PYTHONDONTWRITEBYTECODE set, a tree holding a __pycache__ under src/
would load cached bytecode while the other compiles tkchar in every
process, which skews every time metric; the script then refuses to start
and names the directories.  Remove them first.

Usage:
    python3 scripts/bench_pairs.py --before ../parent --after . --out BENCH_9.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from steady import machine, summarize  # noqa: E402

PAIRS = 10
HELDOUT_SEED = 424242


def run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(lines[-1])
    return {"seed": seed, "correct": doc["correct"], "failed": doc["failed"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}


def bytecode_caches(trees) -> list[Path]:
    """The __pycache__ directories under src/ of the trees."""
    return sorted(cache for tree in trees for cache in (tree / "src").rglob("__pycache__"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, required=True, help="root of the old tree")
    ap.add_argument("--after", type=Path, required=True, help="root of the new tree")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    caches = bytecode_caches(trees.values()) if os.environ.get("PYTHONDONTWRITEBYTECODE") else []
    if caches:
        print("error: PYTHONDONTWRITEBYTECODE is set, so only a tree without cached bytecode "
              "would compile tkchar per process; remove:", *caches, sep="\n  ", file=sys.stderr)
        return 2
    record = {"machine": machine(), "seconds": seconds, "pairs": PAIRS,
              "heldout_seed": HELDOUT_SEED, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        runs = {"before": [], "after": []}
        for i, seed in enumerate([*range(1, PAIRS + 1), HELDOUT_SEED]):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(run(trees[side], name, seed, seconds, 0))
                print(name, seed, side, runs[side][-1]["metrics"]["wall_s"], file=sys.stderr)
        entry = {"runs": runs, "summary": {}, "after_better_pairs": {}, "median_ratio": {}}
        for metric in bench["end_to_end"]:
            key, lower = metric["name"], metric["better"] == "lower"
            for side in trees:
                stats = summarize([r["metrics"][key] for r in runs[side]])
                stats["status"] = "unresolved" if stats["spread"] > metric["bound"] else "ok"
                entry["summary"].setdefault(side, {})[key] = stats
            wins = sum((a["metrics"][key] < b["metrics"][key]) == lower
                       and a["metrics"][key] != b["metrics"][key]
                       for a, b in zip(runs["after"], runs["before"]))
            entry["after_better_pairs"][key] = f"{wins} of {len(runs['after'])}"
            medians = [entry["summary"][side][key]["median"] for side in ("after", "before")]
            entry["median_ratio"][key] = medians[0] / medians[1] if medians[1] else None
        record["workloads"][name] = entry
    record["traced"] = {
        w["name"]: {side: run(tree, w["name"], 1, 0, 1) for side, tree in trees.items()}
        for w in bench["workloads"]
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

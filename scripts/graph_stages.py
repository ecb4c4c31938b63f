"""Time each stage of `tkchar graph --format json`, and the CLI's own peak RSS.

The stages, each timed once per round:

- build_graph: the exact incidence graph, in this process;
- writer: `json_chunks` drained into a file on /dev/null, as the CLI
  writes it, in this process;
- import tkchar.cli: a fresh interpreter running `import tkchar.cli`;
- cli process: a fresh interpreter running the whole
  `python3 -m tkchar graph -m M -n N --format json` to /dev/null.

The cli process is started by a small intermediate interpreter, which
reaps it with wait4 and reports its wall time and ru_maxrss.  A child
started with vfork/exec begins with its parent's peak RSS as its own, so a
child of this process, which holds the graph and numpy, would report this
process's peak; the intermediate parent holds neither, and the figure is
the CLI's own peak.

Each round runs every stage once, in the order above, so drift of the
host hits all stages alike; the figures are medians over ROUNDS rounds,
after one untimed warm-up round.  A comment line gives the CLI's peak RSS
(median over the rounds).

Usage:
    python3 scripts/graph_stages.py -m 200 -n 300
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tkchar
from tkchar.components import GroupParams, count_irr
from tkchar.graph import build_graph, json_chunks

ROUNDS = 5
SRC = str(Path(tkchar.__file__).resolve().parent.parent)

# Runs argv[1:] with stdout on /dev/null, prints [wall s, ru_maxrss KiB,
# exit code].
REAPER = """
import json, os, subprocess, sys, time
with open(os.devnull, "wb") as null:
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdout=null)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
print(json.dumps([wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]))
"""


def timed(f, *args):
    start = time.perf_counter()
    value = f(*args)
    return time.perf_counter() - start, value


def python(*argv: str) -> str:
    """stdout of a fresh interpreter that imports tkchar from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return subprocess.run(
        [sys.executable, *argv], env=env, check=True, capture_output=True, text=True
    ).stdout


def write(g) -> None:
    with open(os.devnull, "w", encoding="utf-8") as out:
        out.writelines(json_chunks(g))
        out.write("\n")


def one_round(p: GroupParams) -> tuple[dict[str, float], float]:
    """The stage times of one round and the CLI's peak RSS in MiB."""
    t = {}
    t["build_graph"], g = timed(build_graph, p)
    t["writer"] = timed(write, g)[0]
    t["import tkchar.cli"] = timed(python, "-c", "import tkchar.cli")[0]
    cli = ("-m", "tkchar", "graph", "-m", str(p.m), "-n", str(p.n), "--format", "json")
    t["cli process"], maxrss_kib, code = json.loads(python("-c", REAPER, sys.executable, *cli))
    if code != 0:
        sys.exit(f"{cli} exited {code}")
    return t, maxrss_kib / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-m", type=int, required=True)
    ap.add_argument("-n", type=int, required=True)
    args = ap.parse_args()

    p = GroupParams(args.m, args.n)
    arcs = count_irr(p)
    one_round(p)
    rounds = [one_round(p) for _ in range(ROUNDS)]
    rss = statistics.median(r[1] for r in rounds)
    print(f"# (m, n) = ({args.m}, {args.n}), {arcs} arcs, median of {ROUNDS} rounds")
    print(f"# cli peak RSS {rss:.1f} MiB")
    print(f"{'stage':<20} {'seconds':>9} {'us/arc':>10}")
    for stage in rounds[0][0]:
        median = statistics.median(r[0][stage] for r in rounds)
        print(f"{stage:<20} {median:>9.4f} {1e6 * median / arcs:>10.2f}")


if __name__ == "__main__":
    main()

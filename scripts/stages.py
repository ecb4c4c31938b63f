"""Time each stage of `tkchar graph` or `tkchar verify`, and the CLI's own peak RSS.

graph mode: build_graph, the exact incidence graph, in this process; then
the writer and json bytes (below).

verify mode, each stage over all verify.CHUNK-sized batches:

- scalar stream: `stream.draw` once per index, the stream's definition in
  Python ints;
- replica: `stream.replica`, the uint64 array replica of the stream, and
  the count of slow indices, which it leaves to the scalar code;
- scalar completion: the finished `stream.draws` minus the replica, i.e.
  the slow indices completed by the scalar code from their seeded states,
  and the guards (derived);
- builders: `_build_arrays` on the completed draws;
- kernel: `_classify_arrays` on the builders' pairs;
- array tally: `empirical_structure` minus replica, scalar completion, builders
  and kernel, i.e. the expected arc ends (`components.attachment_nodes`
  over the cached label table), the count, maximum and vote arrays and
  each arc end's winner (derived);
- writer and json bytes (below); empirical_structure: the whole call.

Both modes: writer, the document's chunks drained into a file on /dev/null
as the CLI writes them, and json bytes, its size with the final newline
(it is ASCII); the start-up floor, each a fresh interpreter: python -c
pass, import numpy, import tkchar.cli (the standard library and argparse
only) and import tkchar.cli, tkchar.graph|verify (what the subcommand
loads before it runs); cli process, the whole `python3 -m tkchar
graph|verify ...` to /dev/null, with its ru_maxrss and, for verify, its
exit code (1 when a flag is false, for example
"components" when COUNT is below the component count: reported, not
refused).  REAPER, a small intermediate interpreter, starts the CLI and
reaps it with wait4: a child started with vfork/exec begins with its
parent's peak RSS as its own, and this process holds the graph or the
summary, and numpy.

Each round runs every stage once, in that order, so drift of the host hits
all stages alike; the figures are medians over --rounds rounds, after one
untimed warm-up round that builds the per-order tables.  Times are in
seconds, with µs per arc (graph) or per sample (verify) beside.

Usage:
    python3 scripts/stages.py graph -m 200 -n 300
    python3 scripts/stages.py verify -m 30 -n 45 -N 16000 --seed 1
    python3 scripts/stages.py verify -m 1000 -n 999 -N 1000 --rounds 1
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
from tkchar import stream
from tkchar.components import GroupParams, count_irr
from tkchar.graph import build_graph, json_chunks
from tkchar.verify import (
    CHUNK,
    SampleConfig,
    _build_arrays,
    _classify_arrays,
    _stream_args,
    empirical_structure,
    summary_chunks,
)

SRC = str(Path(tkchar.__file__).resolve().parent.parent)
# figures that are not seconds, with their format; they have no per-item column
COUNTS = {"slow indices": "{:.0f}", "json bytes": "{:.0f}", "cli exit": "{:.0f}",
          "cli peak RSS MiB": "{:.1f}"}

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


def drain(chunks) -> int:
    """The chunks and one newline written to /dev/null, as the CLI writes
    them; the document's size."""
    size = 1
    with open(os.devnull, "w", encoding="utf-8") as out:
        for chunk in chunks:
            out.write(chunk)
            size += len(chunk)
        out.write("\n")
    return size


def graph_stages(p: GroupParams) -> dict[str, float]:
    t = {}
    t["build_graph"], g = timed(build_graph, p)
    t["writer"], t["json bytes"] = timed(drain, json_chunks(g))
    return t


def verify_stages(cfg: SampleConfig) -> dict[str, float]:
    p, count = cfg.params, cfg.sample_count
    chunks = [range(s, min(s + CHUNK, count)) for s in range(0, count, CHUNK)]
    seed, args = cfg.seed, _stream_args(cfg)
    t = {"scalar stream": timed(lambda: [stream.draw(seed, i, *args) for i in range(count)])[0]}
    t["replica"], replicas = timed(lambda: [stream.replica(seed, c, *args) for c in chunks])
    t["slow indices"] = sum(int((~r[0]).sum()) for r in replicas)
    stream_s, draws = timed(lambda: [stream.draws(seed, c, *args) for c in chunks])
    t["scalar completion"] = stream_s - t["replica"]
    t["builders"], pairs = timed(lambda: [_build_arrays(p, *d) for d in draws])
    t["kernel"] = timed(lambda: [_classify_arrays(p, a, b, cfg.tol) for a, b in pairs])[0]
    total, summary = timed(empirical_structure, cfg)
    staged = ("replica", "scalar completion", "builders", "kernel")
    t["array tally"] = total - sum(t[s] for s in staged)
    t["writer"], t["json bytes"] = timed(drain, summary_chunks(summary))
    t["empirical_structure"] = total
    return t


def one_round(args: argparse.Namespace) -> dict[str, float]:
    """Every figure of one round, in the order they are printed."""
    p = GroupParams(args.m, args.n)
    cli = (sys.executable, "-m", "tkchar", args.mode, "-m", str(args.m), "-n", str(args.n))
    if args.mode == "graph":
        t = graph_stages(p)
    else:
        t = verify_stages(SampleConfig(params=p, sample_count=args.samples, seed=args.seed))
        cli += ("-N", str(args.samples), "--seed", str(args.seed))
    for source in ("pass", "import numpy", "import tkchar.cli",
                   f"import tkchar.cli, tkchar.{args.mode}"):
        t["python -c pass" if source == "pass" else source] = timed(python, "-c", source)[0]
    t["cli process"], maxrss_kib, code = json.loads(python("-c", REAPER, *cli))
    if code != 0 and (args.mode, code) != ("verify", 1):
        sys.exit(f"{cli} exited {code}")
    if args.mode == "verify":
        t["cli exit"] = code
    t["cli peak RSS MiB"] = maxrss_kib / 1024.0
    return t


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("graph", "verify"))
    ap.add_argument("-m", type=int, required=True)
    ap.add_argument("-n", type=int, required=True)
    ap.add_argument("-N", "--samples", type=int, default=16000, help="verify only")
    ap.add_argument("--seed", type=int, default=1, help="verify only")
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args()

    arcs = count_irr(GroupParams(args.m, args.n))
    one_round(args)
    rounds = [one_round(args) for _ in range(args.rounds)]
    if args.mode == "graph":
        unit, items, run = "arc", arcs, ""
    else:
        unit, items, run = "sample", args.samples, f", N = {args.samples}, seed {args.seed}"
    print(f"# {args.mode} (m, n) = ({args.m}, {args.n}){run}, {arcs} arcs, "
          f"median of {args.rounds} rounds")
    print(f"{'figure':<32} {'value':>12} {'us/' + unit:>10}")
    for name in rounds[0]:
        median = statistics.median(r[name] for r in rounds)
        if name in COUNTS:
            print(f"{name:<32} {COUNTS[name].format(median):>12}")
        else:
            print(f"{name:<32} {median:>12.4f} {1e6 * median / items:>10.2f}")


if __name__ == "__main__":
    main()

"""Time `tkchar verify` at one order: the oracle, its writer and the CLI's own peak RSS.

The figures, each measured once per round:

- empirical_structure: sampling, kernel and array tally, in this process;
- writer: `summary_chunks` drained into a file on /dev/null, as the CLI
  writes the summary, in this process;
- json bytes: the size of the document, with its final newline (it is
  ASCII, so its characters are its bytes);
- cli process: a fresh interpreter running the whole
  `python3 -m tkchar verify -m M -n N -N S --seed SEED` to /dev/null,
  reaped with wait4 by a small intermediate parent (graph_stages.REAPER),
  so that its ru_maxrss is the CLI's own peak;
- cli peak RSS: that ru_maxrss, in MiB.

Times are medians over ROUNDS rounds (default 1); the first round also
builds the per-order tables.  verify exits 1 when a flag is false (for
example "components" when N is below the component count); that is
reported, not refused.

Usage:
    python3 scripts/verify_scale.py -m 1000 -n 999 -N 1000
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from graph_stages import REAPER, python
from tkchar.components import GroupParams, count_irr
from tkchar.verify import SampleConfig, empirical_structure, summary_chunks


def drain(summary) -> int:
    """summary_chunks written to /dev/null, as the CLI writes them; the
    document's size."""
    size = 1
    with open(os.devnull, "w", encoding="utf-8") as out:
        for chunk in summary_chunks(summary):
            out.write(chunk)
            size += len(chunk)
        out.write("\n")
    return size


def one_round(cfg: SampleConfig) -> dict[str, float]:
    p = cfg.params
    row = {}
    start = time.perf_counter()
    summary = empirical_structure(cfg)
    row["empirical_structure s"] = time.perf_counter() - start
    start = time.perf_counter()
    row["json bytes"] = drain(summary)
    row["writer s"] = time.perf_counter() - start
    del summary
    cli = ("-m", "tkchar", "verify", "-m", str(p.m), "-n", str(p.n),
           "-N", str(cfg.sample_count), "--seed", str(cfg.seed))
    row["cli process s"], maxrss_kib, row["cli exit"] = json.loads(
        python("-c", REAPER, sys.executable, *cli)
    )
    if row["cli exit"] not in (0, 1):
        sys.exit(f"{cli} exited {row['cli exit']}")
    row["cli peak RSS MiB"] = maxrss_kib / 1024.0
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-m", type=int, required=True)
    ap.add_argument("-n", type=int, required=True)
    ap.add_argument("-N", "--samples", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args()

    p = GroupParams(args.m, args.n)
    cfg = SampleConfig(params=p, sample_count=args.samples, seed=args.seed)
    rounds = [one_round(cfg) for _ in range(args.rounds)]
    print(f"# (m, n) = ({args.m}, {args.n}), N = {args.samples}, seed {args.seed}, "
          f"{count_irr(p)} arcs, median of {args.rounds} rounds")
    for name in ("empirical_structure s", "writer s", "json bytes", "cli process s",
                 "cli exit", "cli peak RSS MiB"):
        value = statistics.median(r[name] for r in rounds)
        text = f"{value:.0f}" if name in ("json bytes", "cli exit") else f"{value:.4f}"
        print(f"{name:<24} {text:>12}")


if __name__ == "__main__":
    main()

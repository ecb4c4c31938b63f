"""Time each stage of the verify oracle in one process, per sample.

The stages of `empirical_structure`, each over all CHUNK-sized batches of
one configuration:

- draw loop: the scalar stream, `_draw` once per index (the reference
  the batched stream replaces);
- replica: `stream.draws`, the uint64 array replica of the stream;
- slow draws: `_draw_arrays` minus the replica, i.e. the indices the
  replica leaves to numpy, drawn from their seeded states, and the guards
  (derived);
- builders: `_build_arrays` on the completed draws;
- kernel: `_classify_arrays` on the builders' pairs;
- graph: `build_graph`, once per run;
- array tally: `empirical_structure` minus replica, slow draws, builders,
  kernel and graph, i.e. the count, maximum and vote arrays and each arc
  end's winner (derived);
- writer: `summary_chunks` drained into a file on /dev/null, as the CLI
  writes the summary;
- empirical_structure: the whole call.

Each round runs every stage once, in the order above, so drift of the
host hits all stages alike; the figures are medians over ROUNDS rounds,
after one untimed warm-up round that builds the per-order tables.  A
second comment line gives the count of indices left to numpy.

Usage:
    python3 scripts/oracle_stages.py -m 30 -n 45 -N 16000 --seed 1
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

from tkchar import stream
from tkchar.components import GroupParams, count_irr
from tkchar.graph import build_graph
from tkchar.verify import (
    CHUNK,
    SampleConfig,
    _build_arrays,
    _classify_arrays,
    _draw,
    _draw_arrays,
    empirical_structure,
    summary_chunks,
)

ROUNDS = 7


def timed(f, *args):
    start = time.perf_counter()
    value = f(*args)
    return time.perf_counter() - start, value


def write(summary) -> None:
    with open(os.devnull, "w", encoding="utf-8") as out:
        out.writelines(summary_chunks(summary))
        out.write("\n")


def one_round(cfg: SampleConfig) -> tuple[dict[str, float], int]:
    """The stage times of one round and the count of indices left to numpy."""
    p = cfg.params
    chunks = [range(s, min(s + CHUNK, cfg.sample_count)) for s in range(0, cfg.sample_count, CHUNK)]
    args = (cfg.reducible_fraction, p.d // 2 + 1, count_irr(p))
    t = {"draw loop": timed(lambda: [_draw(cfg, i) for i in range(cfg.sample_count)])[0]}
    t["replica"], replicas = timed(lambda: [stream.draws(cfg.seed, c, *args) for c in chunks])
    slow = sum(int((~r[0]).sum()) for r in replicas)
    stream_s, draws = timed(lambda: [_draw_arrays(cfg, c) for c in chunks])
    t["slow draws"] = stream_s - t["replica"]
    t["builders"], pairs = timed(lambda: [_build_arrays(p, *d) for d in draws])
    t["kernel"] = timed(lambda: [_classify_arrays(p, a, b, cfg.tol) for a, b in pairs])[0]
    t["graph"] = timed(build_graph, p)[0]
    total, summary = timed(empirical_structure, cfg)
    staged = ("replica", "slow draws", "builders", "kernel", "graph")
    t["array tally"] = total - sum(t[s] for s in staged)
    t["writer"] = timed(write, summary)[0]
    t["empirical_structure"] = total
    return t, slow


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-m", type=int, required=True)
    ap.add_argument("-n", type=int, required=True)
    ap.add_argument("-N", "--samples", type=int, default=16000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    p = GroupParams(args.m, args.n)
    cfg = SampleConfig(params=p, sample_count=args.samples, seed=args.seed)
    slow = one_round(cfg)[1]
    rounds = [one_round(cfg)[0] for _ in range(ROUNDS)]
    print(f"# (m, n) = ({args.m}, {args.n}), N = {args.samples}, seed {args.seed}, "
          f"median of {ROUNDS} rounds")
    print(f"# {slow} of {args.samples} indices left to numpy ({100 * slow / args.samples:.1f}%)")
    print(f"{'stage':<20} {'seconds':>9} {'us/sample':>10}")
    for stage in rounds[0]:
        median = statistics.median(r[stage] for r in rounds)
        print(f"{stage:<20} {median:>9.4f} {1e6 * median / args.samples:>10.2f}")


if __name__ == "__main__":
    main()

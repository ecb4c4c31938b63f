"""Time each stage of the verify oracle in one process, per sample.

The stages of `empirical_structure`, each over all CHUNK-sized batches of
one configuration:

- draw loop: the scalar stream, `_draw` once per index (the reference
  the batched stream replaces);
- stream: `_draw_arrays`, the array replica with its fallbacks and guard;
- builders: `_build_arrays` on the stream's arrays;
- kernel: `_classify_arrays` on the builders' pairs;
- graph: `build_graph`, once per run;
- tally: `empirical_structure` minus stream, builders, kernel and graph,
  i.e. the counts, maxima, votes and adjacency list (derived);
- summary_to_json: serializing the summary;
- empirical_structure: the whole call.

Each round runs every stage once, in the order above, so drift of the
host hits all stages alike; the figures are medians over ROUNDS rounds,
after one untimed warm-up round that builds the per-order tables.

Usage:
    python3 scripts/oracle_stages.py -m 30 -n 45 -N 16000 --seed 1
"""

from __future__ import annotations

import argparse
import statistics
import time

from tkchar.components import GroupParams
from tkchar.graph import build_graph
from tkchar.verify import (
    CHUNK,
    SampleConfig,
    _build_arrays,
    _classify_arrays,
    _draw,
    _draw_arrays,
    empirical_structure,
    summary_to_json,
)

ROUNDS = 7


def timed(f, *args):
    start = time.perf_counter()
    value = f(*args)
    return time.perf_counter() - start, value


def one_round(cfg: SampleConfig) -> dict[str, float]:
    p = cfg.params
    chunks = [range(s, min(s + CHUNK, cfg.sample_count)) for s in range(0, cfg.sample_count, CHUNK)]
    t = {"draw loop": timed(lambda: [_draw(cfg, i) for i in range(cfg.sample_count)])[0]}
    t["stream"], draws = timed(lambda: [_draw_arrays(cfg, c) for c in chunks])
    t["builders"], pairs = timed(lambda: [_build_arrays(p, *d) for d in draws])
    t["kernel"] = timed(lambda: [_classify_arrays(p, a, b, cfg.tol) for a, b in pairs])[0]
    t["graph"] = timed(build_graph, p)[0]
    total, summary = timed(empirical_structure, cfg)
    t["tally"] = total - t["stream"] - t["builders"] - t["kernel"] - t["graph"]
    t["summary_to_json"] = timed(summary_to_json, summary)[0]
    t["empirical_structure"] = total
    return t


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-m", type=int, required=True)
    ap.add_argument("-n", type=int, required=True)
    ap.add_argument("-N", "--samples", type=int, default=16000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    p = GroupParams(args.m, args.n)
    cfg = SampleConfig(params=p, sample_count=args.samples, seed=args.seed)
    one_round(cfg)
    rounds = [one_round(cfg) for _ in range(ROUNDS)]
    print(f"# (m, n) = ({args.m}, {args.n}), N = {args.samples}, seed {args.seed}, "
          f"median of {ROUNDS} rounds")
    print(f"{'stage':<20} {'seconds':>9} {'us/sample':>10}")
    for stage in rounds[0]:
        median = statistics.median(r[stage] for r in rounds)
        print(f"{stage:<20} {median:>9.4f} {1e6 * median / args.samples:>10.2f}")


if __name__ == "__main__":
    main()

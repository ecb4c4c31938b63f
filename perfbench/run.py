"""End-to-end and per-layer benchmark of the tkchar command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding `src/tkchar`).
The program under test is that tree's `src/tkchar`, run as a child process
`python3 -m tkchar ...` with `PYTHONPATH=src`; nothing is installed.

The load is a closed loop with one client: one CLI process at a time, the
next started when the previous one has exited and its output has been
checked, for about `--seconds` (at least one process).  Children
run with every BLAS/OpenMP thread pool pinned to one thread.  The
workload seed only derives the `--seed` passed to each verify process, so
equal seeds give equal inputs; the graph workload has no random input.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
alternates an untraced and a traced process on the same input
(`perfbench/tracer.py` wraps the layer functions from outside the program)
and reports the per-layer metrics plus the tracing overhead.  Every
process's output is checked; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics, and the exit code is 0
only when every check passed.  See perfbench/README.md for the rationale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import CONSTRUCTS, LAYERS, SPAN_FILE_VAR, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# setup_s is the median over SETUP_REPEATS timed imports before the first
# process and one more before every round, so it samples the whole run.
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120.0

# sha256 of `tkchar graph -m 200 -n 300 --format json` stdout.  The graph
# document is promised to stay byte-identical across refactors.
GRAPH_200_300_SHA256 = "28f60741a6232195e9b8010290291860559635255dbc3a9af2237f4ca34a1aa1"


@dataclass(frozen=True)
class Workload:
    kind: str  # "verify" or "graph"
    m: int
    n: int
    samples: int = 0  # verify only
    sha256: str = ""  # graph only

    def argv(self, seed: int | str) -> list[str]:
        if self.kind == "verify":
            return ["verify", "-m", str(self.m), "-n", str(self.n),
                    "-N", str(self.samples), "--seed", str(seed)]
        return ["graph", "-m", str(self.m), "-n", str(self.n), "--format", "json"]

    def items(self) -> int:
        """Work items per CLI process: samples for verify, arcs for graph."""
        return self.samples if self.kind == "verify" else count_irr(self.m, self.n)


# Verify sample counts: 20,000 rather than acceptance criterion 10's 50,000
# at (4, 6), so a run holds about ten processes for wall_s to take the
# fastest of; every component is still drawn thousands of times.  At
# (30, 45) each of the 638 irreducible components is drawn with probability
# 0.75/638 per sample, so 16,000 samples miss one with probability below
# 1e-5 per process and the "components" flag stays meaningful.
WORKLOADS = {
    "verify_4_6": Workload("verify", 4, 6, samples=20_000),
    "verify_30_45": Workload("verify", 30, 45, samples=16_000),
    "graph_200_300": Workload("graph", 200, 300, sha256=GRAPH_200_300_SHA256),
}


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    stdout: bytes
    stderr: bytes
    spans: bytes
    timed_out: bool


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TKCHAR_TOL", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    env.update(extra or {})
    return env


def run_child(args: list[str], traced: bool = False) -> ChildResult:
    """Run one Python child to completion with its output in files of a
    scratch directory inside the tree, and reap it with wait4 to get its
    own peak RSS and CPU time.  A child still running after
    CHILD_TIMEOUT_S is killed and its result marked timed_out."""
    cmd = [sys.executable, str(TRACER), *args] if traced else [sys.executable, *args]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        spans_path = Path(tmp) / "spans"
        extra = {SPAN_FILE_VAR: str(spans_path)} if traced else {}
        with open(Path(tmp) / "stdout", "w+b") as out, open(Path(tmp) / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=child_env(extra)
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        spans = spans_path.read_bytes() if spans_path.exists() else b""
    return ChildResult(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mib=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
        spans=spans,
        timed_out=wall >= CHILD_TIMEOUT_S,
    )


# --- correctness checks ---------------------------------------------------


def count_irr(m: int, n: int) -> int:
    """Closed-form count of irreducible components, independent of tkchar."""
    return ((m - 1) * (n - 1) + 1) // 2 if m % 2 == 0 and n % 2 == 0 else (m - 1) * (n - 1) // 2


def _strict_json(raw: bytes):
    def reject(token: str):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(raw, parse_constant=reject)


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_verify(w: Workload, seed: int, res: ChildResult) -> dict:
    """Facts about one verify run, or CheckFailed."""
    _require(res.code == 0, f"exit code {res.code}")
    doc = _strict_json(res.stdout)
    _require(isinstance(doc, dict), "output is not a JSON object")
    d = math.gcd(w.m, w.n)
    _require(doc.get("schema") == "tkchar-verify/1", f"schema {doc.get('schema')!r}")
    _require(doc.get("params") == {"m": w.m, "n": w.n, "d": d}, f"params {doc.get('params')}")
    _require(doc.get("seed") == seed and doc.get("sample_count") == w.samples, "seed or sample_count")
    flags = doc.get("flags", {})
    _require(bool(flags) and all(v is True for v in flags.values()), f"flags {flags}")
    _require(doc.get("ok") is True, "ok is not true")
    errors = doc["decode_errors"]
    _require(sum(doc["counts"].values()) == w.samples - errors, "counts do not sum to N - decode_errors")
    on_expected = cast = 0
    for arc in doc["adjacency"]:
        for side, key in enumerate(("observed_t0", "observed_t1")):
            tally = arc[key]
            cast += sum(tally.values())
            on_expected += tally.get(str(arc["expected"][side]), 0)
    return {
        "decode_errors": errors,
        "max_relation_residual": doc["max_relation_residual"],
        "max_classification_residual": doc["max_classification_residual"],
        "votes_cast": cast,
        "votes_on_expected": on_expected,
    }


def check_graph(w: Workload, res: ChildResult) -> dict:
    _require(res.code == 0, f"exit code {res.code}")
    digest = hashlib.sha256(res.stdout).hexdigest()
    _require(digest == w.sha256, f"output sha256 {digest} differs from the recorded one")
    doc = _strict_json(res.stdout)
    d = math.gcd(w.m, w.n)
    _require(doc["params"] == {"m": w.m, "n": w.n, "d": d}, f"params {doc['params']}")
    _require([node["id"] for node in doc["nodes"]] == list(range(d // 2 + 1)), "node ids")
    arcs = doc["arcs"]
    _require(len(arcs) == count_irr(w.m, w.n), f"{len(arcs)} arcs, expected {count_irr(w.m, w.n)}")

    def fold(i: int) -> int:
        j = i % d
        return min(j, (d - j) % d)

    for arc in arcs:
        k, kp = arc["k"], arc["kp"]
        _require(0 < k < w.m and 0 < kp < w.n and (k - kp) % 2 == 0, f"arc label ({k}, {kp})")
        expected = [fold((k - kp) // 2), fold((k + kp) // 2)]
        got = [ep["node"] for ep in arc["endpoints"]]
        _require(got == expected, f"arc ({k}, {kp}) attaches to {got}, expected {expected}")
    _require(len({(a["k"], a["kp"]) for a in arcs}) == len(arcs), "duplicate arcs")
    return {}


def check(w: Workload, seed: int, res: ChildResult) -> dict:
    _require(not res.timed_out, f"killed after running {CHILD_TIMEOUT_S:.0f} s")
    return check_verify(w, seed, res) if w.kind == "verify" else check_graph(w, res)


# --- measurement ------------------------------------------------------------


def check_import() -> dict:
    """Import tkchar.cli once in a fresh interpreter and report versions.

    This first import compiles the bytecode cache, which users pay once, so
    it is not timed; it also confirms the import comes from this tree."""
    probe = (
        "import json, sys, numpy, tkchar.cli; "
        "print(json.dumps({'cli': tkchar.cli.__file__, 'python': sys.version.split()[0], "
        "'numpy': numpy.__version__}))"
    )
    res = run_child(["-c", probe])
    if res.code != 0:
        raise RuntimeError(f"cannot import tkchar.cli from {SRC}: {res.stderr.decode(errors='replace')}")
    info = json.loads(res.stdout)
    if Path(info["cli"]).resolve() != (SRC / "tkchar" / "cli.py").resolve():
        raise RuntimeError(f"tkchar.cli imported from {info['cli']}, not from {SRC}")
    return info


def time_setup() -> float:
    """Wall time of one fresh interpreter importing tkchar.cli."""
    res = run_child(["-c", "import tkchar.cli"])
    if res.code != 0:
        raise RuntimeError("import tkchar.cli failed")
    return res.wall_s


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(traced_runs: list[tuple[dict, dict]], overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics as means over the traced processes; also each
    layer's share of cli.main's total time."""
    k = len(traced_runs)
    metrics: dict[str, dict] = {}
    main_total = sum(t.get("cli.main", {}).get("total_ns", 0) for t, _ in traced_runs)
    shares = {}
    for name in LAYERS:
        calls = sum(t.get(name, {}).get("calls", 0) for t, _ in traced_runs)
        self_ns = sum(t.get(name, {}).get("self_ns", 0) for t, _ in traced_runs)
        metrics[f"{name}.calls"] = _metric(calls / k, "count")
        metrics[f"{name}.self_s"] = _metric(self_ns / k / 1e9, "s")
        metrics[f"{name}.us_per_call"] = _metric(self_ns / calls / 1e3 if calls else 0.0, "us")
        shares[name] = self_ns / main_total if main_total else 0.0
    constructs = sum(c.get(CONSTRUCTS, 0) for _, c in traced_runs)
    metrics[CONSTRUCTS] = _metric(constructs / k, "count")
    metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    return metrics, shares


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    w = WORKLOADS[workload]
    if not (SRC / "tkchar" / "cli.py").is_file():
        print(f"error: no tkchar source tree at {SRC}", file=sys.stderr)
        return 2
    info = check_import()
    setup_walls = [time_setup() for _ in range(SETUP_REPEATS)]
    print(
        f"machine: nproc={os.cpu_count()} python={info['python']} numpy={info['numpy']} "
        f"child threads pinned to 1 via {','.join(THREAD_VARS)}"
    )
    print(f"workload {workload}: tkchar {' '.join(w.argv('S'))}; seed {seed}; "
          f"{'traced' if trace else 'untraced'}; {seconds:g} s")

    seeds = random.Random(seed)
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    rss: list[float] = []
    traced: list[tuple[dict, dict]] = []
    facts: list[dict] = []
    attempted = failed = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        cli_seed = seeds.randrange(2**31)
        setup_walls.append(time_setup())
        for is_traced in ((False, True) if trace else (False,)):
            args = w.argv(cli_seed) if is_traced else ["-m", "tkchar", *w.argv(cli_seed)]
            res = run_child(args, traced=is_traced)
            attempted += w.items()
            try:
                facts.append(check(w, cli_seed, res))
                if is_traced:
                    traced.append(layer_totals(res.spans))
                status = "ok"
            except (CheckFailed, KeyError, TypeError, ValueError) as exc:
                failed += w.items()
                status = f"FAILED: {exc}"
                tail = res.stderr.decode(errors="replace").strip().splitlines()[-3:]
                if tail:
                    status += " | stderr: " + " / ".join(tail)
            print(
                f"  {'traced' if is_traced else 'run'} seed={cli_seed} wall_s={res.wall_s:.4f} "
                f"cpu_s={res.cpu_s:.4f} rss_mib={res.maxrss_mib:.1f} {status}"
            )
            (traced_walls if is_traced else plain_walls).append(res.wall_s)
            if not is_traced:
                rss.append(res.maxrss_mib)
        # Start another round only if it should end by about --seconds, so
        # a run lasts --seconds give or take half a round.
        elapsed = time.perf_counter() - start
        rounds += 1
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break

    fraction = failed / attempted
    print(f"failed_fraction {fraction:.6g} ({failed} of {attempted} items)")
    if facts and w.kind == "verify":
        print(f"max_relation_residual {max(f['max_relation_residual'] for f in facts):.6g}")
        print(f"max_classification_residual {max(f['max_classification_residual'] for f in facts):.6g}")
        cast = sum(f["votes_cast"] for f in facts)
        if cast:
            agreement = sum(f["votes_on_expected"] for f in facts) / cast
            print(f"vote_agreement {agreement:.6g} ({cast} near-limit votes)")

    # The fastest process, not the median: the host switches between speed
    # states that differ by up to 1.6x for seconds to minutes at a time, so
    # a run's median jumps between states while its minimum varies less.
    wall_s = min(plain_walls)
    print(f"median_wall_s {statistics.median(plain_walls):.6g} over {len(plain_walls)} processes")
    if trace:
        overhead = min(traced_walls) / wall_s - 1.0
        metrics, shares = _layer_metrics(traced, overhead) if traced else ({}, {})
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share:
                print(f"share {name} {100 * share:.1f}%")
    else:
        items_per_s = w.items() / wall_s
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "items_per_s": _metric(items_per_s, "items/s"),
            "setup_s": _metric(statistics.median(setup_walls), "s"),
            "peak_rss_mb": _metric(statistics.median(rss), "MiB"),
        }
        label = "samples_per_s" if w.kind == "verify" else "arcs_per_s"
        print(f"{label} {items_per_s:.6g} (items_per_s)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

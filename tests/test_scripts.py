"""Smoke tests of the helper scripts, run as subprocesses like a user would."""

import os
import pathlib
import subprocess
import sys

import pytest

from tkchar import stream
from tkchar.components import GroupParams
from tkchar.graph import build_graph, to_dot, to_json, to_svg_schematic
from tkchar.verify import SampleConfig, _stream_args, empirical_structure, summary_to_json

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_sweep_counts():
    proc = run_script("sweep_counts.py", "--max", "6")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["m", "n", "d", "red", "irr", "loops"]
    pairs = [(m, n) for m in range(2, 7) for n in range(2, m + 1)]
    assert [tuple(int(x) for x in row.split()[:2]) for row in rows] == pairs


def test_render_figures(tmp_path):
    proc = run_script("render_figures.py", "-m", "8", "-n", "12", "-o", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    g = build_graph(GroupParams(8, 12))
    written = {path.name for path in tmp_path.iterdir()}
    assert written == {"graph-8-12.json", "graph-8-12.dot", "graph-8-12.svg"}
    for ext, render in (("json", to_json), ("dot", to_dot), ("svg", to_svg_schematic)):
        assert (tmp_path / f"graph-8-12.{ext}").read_text() == render(g) + "\n"


def run_stages(comment, *argv):
    """The table of scripts/stages.py as {figure: [value]} for counts and
    {figure: [seconds, per item]} for times, in printed order."""
    proc = run_script("stages.py", *argv, "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    first, header, *rows = proc.stdout.splitlines()
    assert first == comment
    assert header.split() == ["figure", "value", "us/arc" if argv[0] == "graph" else "us/sample"]
    figures = {}
    for row in rows:
        figures[row[:32].rstrip()] = [float(column) for column in row[32:].split()]
    return figures


def check_times(figures, items, derived=()):
    """Every time's per-item column is 1e6 * seconds / items, and every time
    not derived as a difference is positive, as is the peak RSS."""
    for name, (seconds, *per_item) in figures.items():
        if per_item:
            # seconds are printed to 0.1 ms, i.e. at most 0.18 us per item here
            assert per_item[0] == pytest.approx(1e6 * seconds / items, abs=0.2), name
            assert seconds > 0 or name in derived, name
    assert figures["cli peak RSS MiB"][0] > 0


def test_graph_stages():
    comment = "# graph (m, n) = (20, 30), 276 arcs, median of 1 rounds"
    figures = run_stages(comment, "graph", "-m", "20", "-n", "30")
    assert list(figures) == [
        "build_graph", "writer", "json bytes", "python -c pass", "import numpy",
        "import tkchar.cli", "import tkchar.cli, tkchar.graph", "cli process", "cli peak RSS MiB",
    ]
    g = build_graph(GroupParams(20, 30))
    assert figures["json bytes"] == [len(to_json(g)) + 1]
    check_times(figures, 276)


VERIFY_CFG = SampleConfig(params=GroupParams(12, 18), sample_count=300, seed=4)


@pytest.fixture(scope="module")
def verify_figures():
    """One run of `stages.py verify`, shared by the stage and the CLI checks."""
    comment = "# verify (m, n) = (12, 18), N = 300, seed 4, 94 arcs, median of 1 rounds"
    return run_stages(comment, "verify", "-m", "12", "-n", "18", "-N", "300", "--seed", "4")


def test_oracle_stages(verify_figures):
    assert list(verify_figures) == [
        "scalar stream", "replica", "slow indices", "scalar completion", "builders", "kernel",
        "array tally", "writer", "json bytes", "empirical_structure",
        "python -c pass", "import numpy", "import tkchar.cli", "import tkchar.cli, tkchar.verify",
        "cli process", "cli exit", "cli peak RSS MiB",
    ]
    cfg = VERIFY_CFG
    fast = stream.replica(cfg.seed, range(300), *_stream_args(cfg))[0]
    assert verify_figures["slow indices"] == [int((~fast).sum())]
    check_times(verify_figures, 300, derived=("scalar completion", "array tally"))


def test_verify_scale(verify_figures):
    summary = empirical_structure(VERIFY_CFG)
    assert verify_figures["json bytes"] == [len(summary_to_json(summary)) + 1]
    assert verify_figures["cli exit"] == [0 if summary.ok else 1]
    assert verify_figures["cli process"][0] > 0
    assert verify_figures["cli peak RSS MiB"][0] > 0


@pytest.mark.parametrize("cached", ["before", "after"])
def test_bench_pairs_refuses_one_sided_bytecode_cache(tmp_path, cached):
    # each tree's perfbench/run.py would leave a mark if bench_pairs ran it
    trees = {}
    for side in ("before", "after"):
        tree = trees[side] = tmp_path / side
        (tree / "src" / "tkchar").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "perfbench" / "run.py").write_text(
            f"open({str(tmp_path / 'started')!r}, 'a').close()\n"
        )
    cache = trees[cached] / "src" / "tkchar" / "__pycache__"
    cache.mkdir()
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--before", str(trees["before"]),
         "--after", str(trees["after"]), "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 2, proc.stderr
    assert str(cache) in proc.stderr
    assert not (tmp_path / "started").exists() and not out.exists()

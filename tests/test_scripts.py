"""Smoke tests of the helper scripts, run as subprocesses like a user would."""

import os
import pathlib
import subprocess
import sys

import pytest

from tkchar import stream
from tkchar.components import GroupParams, count_irr
from tkchar.graph import build_graph, to_dot, to_json, to_svg_schematic
from tkchar.verify import SampleConfig, empirical_structure, summary_to_json

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


def test_oracle_stages():
    proc = run_script("oracle_stages.py", "-m", "4", "-n", "6", "-N", "600", "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    comment, slow, header, *rows = proc.stdout.splitlines()
    assert comment.startswith("# (m, n) = (4, 6), N = 600, seed 2")
    cfg = SampleConfig(params=GroupParams(4, 6), sample_count=600, seed=2)
    fast = stream.draws(cfg.seed, range(600), cfg.reducible_fraction, 2, count_irr(cfg.params))[0]
    assert slow.startswith(f"# {int((~fast).sum())} of 600 indices left to numpy (")
    assert header.split() == ["stage", "seconds", "us/sample"]
    stages = {}
    for row in rows:
        *name, seconds, per_sample = row.split()
        stages[" ".join(name)] = float(seconds)
        # seconds are printed to 0.1 ms, i.e. 0.083 us per sample here
        assert float(per_sample) == pytest.approx(1e6 * float(seconds) / 600, abs=0.1)
    assert list(stages) == [
        "draw loop", "replica", "slow draws", "builders", "kernel", "graph", "array tally",
        "writer", "empirical_structure",
    ]
    assert all(stages[s] > 0 for s in stages if s not in ("slow draws", "array tally"))  # derived


def test_graph_stages():
    proc = run_script("graph_stages.py", "-m", "20", "-n", "30")
    assert proc.returncode == 0, proc.stderr
    comment, rss, header, *rows = proc.stdout.splitlines()
    assert comment.startswith("# (m, n) = (20, 30), 276 arcs, median of")
    assert rss.startswith("# cli peak RSS ") and rss.endswith(" MiB")
    assert float(rss.split()[-2]) > 0
    assert header.split() == ["stage", "seconds", "us/arc"]
    stages = {}
    for row in rows:
        *name, seconds, per_arc = row.split()
        stages[" ".join(name)] = float(seconds)
        # seconds are printed to 0.1 ms, i.e. 0.36 us per arc here
        assert float(per_arc) == pytest.approx(1e6 * float(seconds) / 276, abs=0.2)
    assert list(stages) == ["build_graph", "writer", "import tkchar.cli", "cli process"]
    assert all(seconds > 0 for seconds in stages.values())


def test_verify_scale():
    proc = run_script("verify_scale.py", "-m", "12", "-n", "18", "-N", "300", "--seed", "4")
    assert proc.returncode == 0, proc.stderr
    comment, *rows = proc.stdout.splitlines()
    assert comment == "# (m, n) = (12, 18), N = 300, seed 4, 94 arcs, median of 1 rounds"
    figures = {}
    for row in rows:
        *name, value = row.split()
        figures[" ".join(name)] = float(value)
    assert list(figures) == [
        "empirical_structure s", "writer s", "json bytes", "cli process s", "cli exit",
        "cli peak RSS MiB",
    ]
    cfg = SampleConfig(params=GroupParams(12, 18), sample_count=300, seed=4)
    summary = empirical_structure(cfg)
    assert figures["json bytes"] == len(summary_to_json(summary)) + 1
    assert figures["cli exit"] == (0 if summary.ok else 1)
    assert all(figures[name] > 0 for name in figures if name != "cli exit")


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

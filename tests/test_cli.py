"""Command-line interface: outputs, exit codes, determinism."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tkchar.graph
import tkchar.verify
from tkchar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestComponents:
    def test_trefoil_text(self, capsys):
        code, out, _ = run(capsys, "components", "-m", "3", "-n", "2")
        assert code == 0
        assert "1 reducible ([-2,2]), 1 irreducible interval" in out
        assert "red:0" in out and "irr:1,1" in out
        assert "closed-interval" in out and "open-interval" in out

    def test_json_mode_counts(self, capsys):
        code, out, _ = run(capsys, "components", "-m", "4", "-n", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["nodes"]) == 2 and len(doc["arcs"]) == 8

    def test_small_order_usage_error(self, capsys):
        code, _, err = run(capsys, "components", "-m", "1", "-n", "2")
        assert code == 2
        assert "error" in err.lower()

    def test_eigen_data_listed(self, capsys):
        _, out, _ = run(capsys, "components", "-m", "6", "-n", "9")
        assert "lambda=exp(i*pi*1/6)" in out
        assert "gcd d = 3" in out


class TestGraph:
    def test_dot_trefoil(self, capsys):
        code, out, _ = run(capsys, "graph", "-m", "3", "-n", "2", "--format", "dot")
        assert code == 0
        assert out.count("[shape=") == 1
        assert out.count(" -- ") == 1

    def test_svg_file_output(self, tmp_path, capsys):
        target = tmp_path / "y.svg"
        code, out, _ = run(capsys, "graph", "-m", "4", "-n", "6", "--format", "svg", "-o", str(target))
        assert code == 0 and out == ""
        svg = target.read_text(encoding="utf-8")
        assert svg.count('<line class="node"') == 2
        assert svg.count('class="arc"') == 8

    def test_json_circle_node(self, capsys):
        code, out, _ = run(capsys, "graph", "-m", "6", "-n", "9", "--format", "json")
        assert code == 0
        assert "circle" in out

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "graph", "-m", "8", "-n", "12", "--format", "json")
        _, out2, _ = run(capsys, "graph", "-m", "8", "-n", "12", "--format", "json")
        assert out1 == out2

    def test_out_of_memory_usage_error(self, capsys, monkeypatch):
        # an order whose arrays do not fit is a usage error, not a failed
        # verification or a traceback
        def refuse(p):
            raise MemoryError()

        monkeypatch.setattr(tkchar.graph, "build_graph", refuse)
        code, out, err = run(capsys, "graph", "-m", "1000000000000", "-n", "3")
        assert (code, out, err) == (2, "", "error: out of memory\n")


class TestRep:
    def test_irreducible_traces(self, capsys):
        code, out, _ = run(
            capsys, "rep", "-m", "3", "-n", "2", "-k", "1", "--kp", "1",
            "-t", "0.5", "--words", "x,y,xyXY",
        )
        assert code == 0
        values = [float(line.split("=")[1]) for line in out.splitlines() if "tr(" in line]
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[1] == pytest.approx(0.0, abs=1e-12)
        assert values[2] == pytest.approx(-1.0, abs=1e-12)
        assert "A =" in out and "B =" in out

    def test_reducible_diagonal(self, capsys):
        code, out, _ = run(capsys, "rep", "-m", "3", "-n", "2", "--red", "--t-angle", "1/12")
        assert code == 0
        assert "red:0" in out
        # diagonal pair: off-diagonal entries are exactly zero
        for line in out.splitlines():
            if line.startswith(("A =", "B =")):
                assert ", -0+0j]" in line or ", 0+0j]" in line

    def test_t_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "rep", "-m", "3", "-n", "2", "-k", "1", "--kp", "1", "-t", "1.5"
        )
        assert code == 2 and "t must lie strictly between" in err

    def test_red_requires_angle(self, capsys):
        code, _, err = run(capsys, "rep", "-m", "3", "-n", "2", "--red")
        assert code == 2 and "--t-angle" in err

    def test_missing_labels(self, capsys):
        code, _, _ = run(capsys, "rep", "-m", "3", "-n", "2", "-t", "0.5")
        assert code == 2

    def test_bad_word_rejected(self, capsys):
        code, _, err = run(
            capsys, "rep", "-m", "3", "-n", "2", "-k", "1", "--kp", "1",
            "-t", "0.5", "--words", "xzy",
        )
        assert code == 2 and "unknown letter" in err

    @pytest.mark.parametrize("words", ["", ","])
    def test_empty_word_list_rejected(self, capsys, words):
        # an empty --words is refused, never read as the default words
        code, out, err = run(
            capsys, "rep", "-m", "3", "-n", "2", "-k", "1", "--kp", "1",
            "-t", "0.5", "--words", words,
        )
        assert (code, out) == (2, "") and "empty word list" in err

    def test_bad_angle_rejected(self, capsys):
        code, _, _ = run(capsys, "rep", "-m", "3", "-n", "2", "--red", "--t-angle", "pi/12")
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--red", "--index", "1", "--t-angle", "1/6", "-k", "1", "--kp", "3", "-t", "0.5"],
             "--red takes no -k, --kp or -t"),
            (["--red", "--t-angle", "1/6", "-t", "0.5"], "--red takes no -k, --kp or -t"),
            (["-k", "1", "--kp", "1", "-t", "0.5", "--t-angle", "1/6", "--index", "1"],
             "--t-angle and --index need --red"),
            (["-k", "1", "--kp", "1", "-t", "0.5", "--index", "0"],
             "--t-angle and --index need --red"),
        ],
        ids=["irr-flags-with-red", "t-with-red", "red-flags-without-red", "index-without-red"],
    )
    def test_other_mode_flags_rejected(self, capsys, flags, message):
        # a flag of the other mode is refused, never silently ignored
        code, out, err = run(capsys, "rep", "-m", "4", "-n", "6", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestVerify:
    def test_trefoil_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "-m", "3", "-n", "2", "-N", "2000", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "tkchar-verify/1"
        assert doc["ok"] is True
        assert sorted(doc["counts"]) == ["irr:1,1", "red:0"]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "summary.json"
        code, out, _ = run(
            capsys, "verify", "-m", "3", "-n", "2", "-N", "300", "--seed", "1",
            "-o", str(target),
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["sample_count"] == 300

    def test_deterministic_output(self, capsys):
        args = ("verify", "-m", "4", "-n", "6", "-N", "500", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_corrupted_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("TKCHAR_TOL", "1e-18")
        code, out, _ = run(capsys, "verify", "-m", "3", "-n", "2", "-N", "400", "--seed", "1")
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_unparseable_tolerance_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TKCHAR_TOL", "not-a-number")
        code, _, err = run(capsys, "verify", "-m", "3", "-n", "2", "-N", "10")
        assert code == 2 and "TKCHAR_TOL" in err

    def test_bad_sample_count(self, capsys):
        code, _, _ = run(capsys, "verify", "-m", "3", "-n", "2", "-N", "0")
        assert code == 2

    def test_negative_seed_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "-m", "3", "-n", "2", "-N", "10", "--seed", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "seed" in err

    def test_seed_past_64_bits_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "-m", "3", "-n", "2", "--seed", str(2**64))
        assert (code, out) == (2, "")
        assert err == f"error: seed must be below 2**64, got {2**64}\n"

    def test_too_many_components_refused_at_once(self):
        # about 10**12 irreducible components: refused before any table is built
        argv = ["verify", "-m", "1000000000000", "-n", "3", "-N", "10"]
        proc = subprocess.run(
            [sys.executable, "-m", "tkchar", *argv], capture_output=True, text=True, timeout=10
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: (1000000000000, 3) has 999999999999 irreducible components, "
            "more than the 2**32 the stream can draw from\n"
        )

    def test_labels_out_of_memory_usage_error(self, capsys, monkeypatch):
        # below the component limit, an order whose label table does not fit
        # fails at once: the labels come before the O(m + n) root tables
        def refuse(p):
            raise MemoryError("Unable to allocate 14.9 GiB")

        def root(*args):
            raise AssertionError("root table built before the labels")

        monkeypatch.setattr(tkchar.verify, "irr_labels", refuse)
        monkeypatch.setattr(tkchar.verify, "root", root)
        tkchar.verify._irr_tables.cache_clear()
        code, out, err = run(capsys, "verify", "-m", "1000000000", "-n", "3", "-N", "10")
        assert (code, out, err) == (2, "", "error: Unable to allocate 14.9 GiB\n")

    def test_large_order_adjacency(self, capsys):
        # d = 100: every near-limit vote lands on build_graph's endpoint
        _, out, _ = run(capsys, "verify", "-m", "200", "-n", "300", "-N", "1000", "--seed", "1")
        doc = json.loads(out)
        assert doc["flags"]["adjacency"] is True
        assert all(arc["ok"] for arc in doc["adjacency"])

    @pytest.mark.parametrize("raw", ["nan", "inf", "-1", "0"])
    def test_non_positive_or_non_finite_tolerance_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("TKCHAR_TOL", raw)
        code, out, err = run(capsys, "verify", "-m", "3", "-n", "2", "-N", "10")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "TKCHAR_TOL" in err


# sha256 of stdout, recorded before the SU(2)-only kernel refactor; any
# change to these documents has to be deliberate and explained.  The verify
# entries were re-recorded when the reducible decoder moved onto the graph's
# fold rule: only max_classification_residual changed, and it fell.  The
# last three verify entries were recorded from the Counter tally and the
# json.dumps writer, before the array tally and summary_chunks replaced
# them.  An entry is the sha256 of a run that exits 0, or (exit code,
# sha256); leading NAME=value items of the key set environment variables.
GOLDEN_SHA256 = {
    ("graph", "-m", "6", "-n", "9", "--format", "json"):
        "34c02b4b66400dae01daab97d329ce7598a539ab1886c9d23bd6ba2794b24752",
    ("graph", "-m", "6", "-n", "9", "--format", "dot"):
        "0604d0c2f53f35c81490844e4a58bd3c051e16e2e537dcc2115ba1aec05eef68",
    ("graph", "-m", "6", "-n", "9", "--format", "svg"):
        "00d3e3c914212d277872805aa4fb95c035cfc5490f755ab01802de56b3252ba1",
    ("graph", "-m", "5", "-n", "3", "--format", "json"):
        "ab83da8474bf16e1365543b859b6d6fe2bb28a7a310413d6ddaf1393307a2710",
    # even d: endpoints on the self-paired Red(d/2) take the involution branch
    ("graph", "-m", "8", "-n", "12", "--format", "json"):
        "9226fd4d71594f5a3f81143e0963b96832c56f880565a7cef995b9e8cc7cb77f",
    ("graph", "-m", "12", "-n", "18", "--format", "json"):
        "569dc0e650fc00514e3610347e2cdb7d26beb6907d11274c967864afa8862a6a",
    # the benchmark's graph_200_300 document (29,751 arcs, 9.6 MB)
    ("graph", "-m", "200", "-n", "300", "--format", "json"):
        "28f60741a6232195e9b8010290291860559635255dbc3a9af2237f4ca34a1aa1",
    ("verify", "-m", "4", "-n", "6", "-N", "2000", "--seed", "7"):
        "e6e206b02d22b22ea09a54d09b25d687c90c8fe88ab225e4a0721a9f6cb5267c",
    # d = 6 with the self-paired Red(3)
    ("verify", "-m", "12", "-n", "18", "-N", "2000", "--seed", "5"):
        "21285da3b8d92cdc309213399175c0d825755e7b2ed8c678f120d5b862db8d4b",
    # coprime orders, d = 1
    ("verify", "-m", "7", "-n", "4", "-N", "2000", "--seed", "2"):
        "37c810d0e91dc480383e70cb81d21b40998fa301e873c40c96969c84d06e0073",
    # |a| or |b| > 100: the reducible builder's t ** b switches from repeated
    # multiplication to exp/log in CPython's complex power
    ("verify", "-m", "2", "-n", "202", "-N", "2000", "--seed", "1"):
        "7fc2a66b538063ccb99087f22aacc0e21de14b1d78987218b36de4b72b1764d8",
    ("verify", "-m", "202", "-n", "2", "-N", "2000", "--seed", "1"):
        "6c7d930e6611966b5350a8c82f2018c1731c4b44aace85c602fd7beef65580c7",
    # b = 100, the last exponent CPython's complex power takes by repeated
    # multiplication
    ("verify", "-m", "2", "-n", "200", "-N", "2000", "--seed", "1"):
        "ddc2ffd56cc9fb2b7bc76f793e9eb443345b89816e9417843d96ba7ad2ee15e2",
    # d = 100: every near-limit vote's expected node (29,751 arcs); too few
    # samples to see every component, so verify exits 1
    ("verify", "-m", "200", "-n", "300", "-N", "1000", "--seed", "1"):
        (1, "a6b40a922369ae2ca6ef455b6fcbdcf96b4e9b988c5274f77085b5dd15eb2e18"),
    # the benchmark's verify_30_45 order and sample count (638 arcs)
    ("verify", "-m", "30", "-n", "45", "-N", "16000", "--seed", "1"):
        "25ac0b60e3cd678f1444f7459a56a36dc4f753f5ca553be0866b88cf23076b54",
    # d = 20: too few samples to see every component, so "components" is
    # false and verify exits 1; "red:10" sorts before "red:2"
    ("verify", "-m", "40", "-n", "60", "-N", "4000", "--seed", "3"):
        (1, "311a076866f635e0d738e9072e5890eeb742b350561cd316845631cb0bacf67d"),
    # an absurd tolerance: 49 decode errors, "residuals" false, exit 1
    ("TKCHAR_TOL=1e-18", "verify", "-m", "3", "-n", "2", "-N", "400", "--seed", "1"):
        (1, "685878c9c241dd7ce8822831f6f55c2a07c9243792af1e13b504c54dc3e15ab4"),
}


def golden(argv) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of a GOLDEN_SHA256 entry; a bare
    digest means exit 0."""
    want = GOLDEN_SHA256[argv]
    return (0, want) if isinstance(want, str) else want


def run_golden(capsys, monkeypatch, argv, *extra):
    """run an entry of GOLDEN_SHA256, whose leading NAME=value items are
    environment variables."""
    while "=" in argv[0]:
        name, _, value = argv[0].partition("=")
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    return run(capsys, *argv, *extra)


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256), ids=" ".join)
def test_golden_output_bytes(capsys, monkeypatch, argv):
    code, out, _ = run_golden(capsys, monkeypatch, argv)
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == golden(argv)


def test_graph_file_output_matches_stdout_golden(tmp_path, capsys):
    argv = ("graph", "-m", "200", "-n", "300", "--format", "json")
    target = tmp_path / "g.json"
    code, out, _ = run(capsys, *argv, "-o", str(target))
    assert code == 0 and out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN_SHA256[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "-m", "30", "-n", "45", "-N", "16000", "--seed", "1"),
        ("verify", "-m", "40", "-n", "60", "-N", "4000", "--seed", "3"),
    ],
    ids=" ".join,
)
def test_verify_file_output_matches_stdout_golden(tmp_path, capsys, monkeypatch, argv):
    target = tmp_path / "summary.json"
    code, out, _ = run_golden(capsys, monkeypatch, argv, "-o", str(target))
    assert out == ""
    assert (code, hashlib.sha256(target.read_bytes()).hexdigest()) == golden(argv)


class TestPlumbing:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tkchar", "components", "-m", "3", "-n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "1 reducible" in proc.stdout

    # stdout buffered, as it is by default, so small documents fail only
    # when stdout is flushed
    BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    @staticmethod
    def assert_stdout_usage_error(code, err, reason):
        # exit 1 means "verification failed"; a stdout that cannot be written
        # is a usage error, reported once, with no traceback at any flush
        assert code == 2
        assert err == f"error: cannot write stdout: {reason}\n"

    @pytest.mark.parametrize(
        "argv", [("graph", "-m", "3", "-n", "2"), ("components", "-m", "3", "-n", "2")],
        ids=lambda argv: argv[0],
    )
    def test_full_stdout_usage_error(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "tkchar", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=self.BUFFERED,
            )
        self.assert_stdout_usage_error(proc.returncode, proc.stderr, "No space left on device")

    def test_closed_pipe_usage_error(self):
        # the 9.6 MB document outgrows the pipe, so the CLI is still writing
        with subprocess.Popen(
            [sys.executable, "-m", "tkchar", "graph", "-m", "200", "-n", "300"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self.BUFFERED,
        ) as proc:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            err = proc.stderr.read()
            self.assert_stdout_usage_error(proc.wait(timeout=60), err, "Broken pipe")

    @pytest.mark.parametrize(
        "argv",
        [("graph", "-m", "3", "-n", "2"), ("verify", "-m", "3", "-n", "2", "-N", "10", "--seed", "1")],
        ids=lambda argv: argv[0],
    )
    def test_closed_pipe_on_both_fds_usage_error(self, argv):
        # `tkchar ... 2>&1 | head`: the error line cannot be written either,
        # and the exit code stays 2, not 1 (verification failed) or 120
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tkchar", *argv],
                stdout=write,
                stderr=write,
                env=self.BUFFERED,
                timeout=60,
            )
        finally:
            os.close(write)
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("graph", "-m", "3", "-n", "2"),
            ("verify", "-m", "3", "-n", "2", "-N", "10", "--seed", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_output_usage_error(self, tmp_path, capsys, argv):
        # exit 1 means "verification failed"; an unwritable -o is a usage error
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "-o", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write") and str(target) in err
        assert not target.exists()
        # an empty -o names no file; it is not stdout
        code, out, err = run(capsys, *argv, "-o", "")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write")

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    @pytest.mark.parametrize(
        "argv",
        [("graph", "-m", "6", "-n", "9"), ("components", "-m", "6", "-n", "9", "--format", "json")],
        ids=lambda argv: argv[0],
    )
    def test_non_finite_graph_refused_before_writing(self, tmp_path, capsys, monkeypatch, argv, to_file):
        # the streamed document is refused whole: no partial stdout, no file
        build = tkchar.graph.build_graph

        def nan_graph(p):
            g = build(p)
            s_real = g.s_real.copy()
            s_real[-1, 1] = np.nan
            return dataclasses.replace(g, s_real=s_real)

        monkeypatch.setattr(tkchar.graph, "build_graph", nan_graph)
        target = tmp_path / "g.json"
        code, out, err = run(capsys, *argv, *(("-o", str(target)) if to_file else ()))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "non-finite" in err
        assert not target.exists()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_non_finite_summary_refused_before_writing(self, tmp_path, capsys, monkeypatch, to_file):
        # a NaN residual from the kernel makes a NaN maximum, which the
        # streamed summary refuses whole: exit 2, no partial stdout, no file
        classify_arrays = tkchar.verify._classify_arrays

        def nan_residual(*args):
            out = classify_arrays(*args)
            out.residual[np.flatnonzero(out.reason == tkchar.verify.OK)[:1]] = np.nan
            return out

        monkeypatch.setattr(tkchar.verify, "_classify_arrays", nan_residual)
        target = tmp_path / "summary.json"
        argv = ("verify", "-m", "4", "-n", "6", "-N", "300", "--seed", "1")
        code, out, err = run(capsys, *argv, *(("-o", str(target)) if to_file else ()))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "non-finite" in err
        assert not target.exists()

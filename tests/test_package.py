"""The package namespace: lazy public names and the modules each subcommand loads."""

import importlib
import json
import subprocess
import sys

import pytest

import tkchar

# Runs graph, records which heavy modules are loaded, then runs verify.
CLI_PROBE = """
import json, sys
from tkchar.cli import main

heavy = ("tkchar.verify", "tkchar.reps", "tkchar.stream", "numpy.random")
loaded = {}
code = main(["graph", "-m", "6", "-n", "9"])
loaded["graph"] = [m for m in heavy if m in sys.modules]
code += main(["verify", "-m", "4", "-n", "6", "-N", "300", "--seed", "1"])
loaded["verify"] = [m for m in heavy if m in sys.modules]
print(json.dumps({"code": code, "loaded": loaded}), file=sys.stderr)
"""


def run_python(source):
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def cli_probe():
    return json.loads(run_python(CLI_PROBE).stderr.splitlines()[-1])


def test_graph_loads_no_oracle_modules(cli_probe):
    assert cli_probe["code"] == 0
    assert cli_probe["loaded"]["graph"] == []


def test_verify_loads_no_numpy_random(cli_probe):
    # the stream is computed without numpy's Generator
    assert cli_probe["loaded"]["verify"] == ["tkchar.verify", "tkchar.reps", "tkchar.stream"]


def test_verify_loads_no_json():
    # the summary is written by summary_chunks' templates, not json.dumps
    proc = run_python(
        "import sys\n"
        "from tkchar.cli import main\n"
        "code = main(['verify', '-m', '4', '-n', '6', '-N', '300', '--seed', '1'])\n"
        "print(code, 'json' in sys.modules, file=sys.stderr)\n"
    )
    assert proc.stderr.split() == ["0", "False"]


def loaded_after(source):
    """The numpy and tkchar modules loaded by source in a fresh interpreter,
    and what it prints to stderr."""
    proc = run_python(
        f"{source}\n"
        "import sys\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'tkchar')))\n"
    )
    return proc.stdout.split(), proc.stderr


def test_import_cli_loads_only_the_standard_library():
    assert loaded_after("import tkchar.cli")[0] == ["tkchar", "tkchar.cli"]


@pytest.mark.parametrize(
    "argv, code, stderr",
    [(["--help"], 0, ""), (["graph", "-m", "4"], 2, "the following arguments are required: -n")],
    ids=["help", "usage-error"],
)
def test_cli_exits_before_loading_numpy(argv, code, stderr):
    loaded, err = loaded_after(
        "import contextlib, io\n"
        "from tkchar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}\n"
    )
    assert loaded == ["tkchar", "tkchar.cli"]
    assert stderr in err


def test_import_loads_no_submodule():
    proc = run_python(
        "import sys, tkchar; print(sorted(m for m in sys.modules if m.startswith('tkchar')))"
    )
    assert proc.stdout.split() == ["['tkchar']"]


def test_from_import_of_submodule():
    run_python(
        "import sys, tkchar\n"
        "from tkchar import stream\n"
        "assert stream is sys.modules['tkchar.stream']\n"
    )


def test_public_names_resolve_to_submodule_objects():
    assert tkchar.__all__ == sorted(set(tkchar.__all__))
    for name in tkchar.__all__:
        module = importlib.import_module(f"tkchar.{tkchar._SUBMODULE[name]}")
        assert getattr(tkchar, name) is getattr(module, name), name


def test_star_import():
    namespace = {}
    exec("from tkchar import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(tkchar.__all__)
    assert namespace["build_graph"] is tkchar.graph.build_graph


def test_dir_and_unknown_name():
    assert set(tkchar.__all__) <= set(dir(tkchar))
    with pytest.raises(AttributeError, match="no_such_name"):
        tkchar.no_such_name

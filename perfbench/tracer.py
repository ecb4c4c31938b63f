"""Run the tkchar CLI with spans recorded at the boundaries between its layers.

    PYTHONPATH=src PERFBENCH_SPAN_FILE=<path> python3 perfbench/tracer.py <tkchar arguments>

The program is not modified: before `tkchar.cli.main` runs, the public
functions listed in LAYERS are replaced by timing wrappers wherever the
`tkchar.cli`, `tkchar.verify` and `tkchar.graph` namespaces refer to them,
which is where the modules call each other.  A call that a module makes
inside its own namespace elsewhere (for instance `reps.evaluate_word`
calling `su2.mat_pow`) is not a layer boundary and stays untimed, so it
counts as self time of its caller.  `RootOfUnity.__post_init__` gets a
plain counter instead of spans, since it runs about 40 times per arc.

Spans (name, parent, start, end) are kept in memory and written once, after
the CLI returns, to the file named by PERFBENCH_SPAN_FILE: one JSON
header line, then the spans as native int64 quadruples.  `layer_totals`
turns that payload back into calls and self time per layer.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter_ns

# "<module>.<function>" of every timed layer function, module without "tkchar.".
LAYERS = (
    "cli.main",
    "verify.empirical_structure",
    "verify.sample_pair",
    "verify.classify",
    "verify.summary_to_json",
    "reps.build_irr",
    "reps.build_red_noncoprime",
    "reps.cross_ratio_of_pair",
    "reps.evaluate_word",
    "su2.mat_pow",
    "su2.conjugate_by",
    "su2.is_reducible_pair",
    "components.enumerate_irr",
    "graph.build_graph",
    "graph.red_coordinate",
    "graph.to_json",
)
CONSTRUCTS = "roots.RootOfUnity.constructs"
SPAN_FILE_VAR = "PERFBENCH_SPAN_FILE"


def _layer_name(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    qualname = getattr(obj, "__qualname__", None)
    if not module.startswith("tkchar.") or qualname is None:
        return None
    return f"{module[len('tkchar.'):]}.{qualname}"


class Recorder:
    """In-memory span store; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")  # name id, parent span, start ns, end ns
        self.stack = [-1]
        self.constructs = 0

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((name_id, stack[-1], perf_counter_ns(), 0))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[4 * idx + 3] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the LAYERS functions in the namespaces that call across layers."""
        # Imported here so that run.py can use this module without tkchar.
        from tkchar import cli, graph, roots, verify

        wrapped = {}
        for module in (cli, verify, graph):
            for attr, value in list(vars(module).items()):
                name = _layer_name(value) if callable(value) else None
                if name not in LAYERS:
                    continue
                if value not in wrapped:
                    wrapped[value] = self.wrap(name, value)
                setattr(module, attr, wrapped[value])

        original = roots.RootOfUnity.__post_init__
        recorder = self

        def counted(obj) -> None:
            recorder.constructs += 1
            original(obj)

        roots.RootOfUnity.__post_init__ = counted

    def payload(self) -> bytes:
        header = {"names": self.names, "counters": {CONSTRUCTS: self.constructs}}
        return json.dumps(header).encode() + b"\n" + self.spans.tobytes()


def layer_totals(payload: bytes) -> tuple[dict[str, dict[str, int]], dict[str, int]]:
    """Per layer: calls, self_ns (span time minus direct child spans) and
    total_ns; plus the counters.  Layers never called are absent."""
    head, sep, body = payload.partition(b"\n")
    if not sep:
        raise ValueError("span payload has no header line")
    meta = json.loads(head)
    spans = array("q")
    spans.frombytes(body)
    count = len(spans) // 4
    self_ns = [0] * count
    for i in range(count):
        parent = spans[4 * i + 1]
        dur = spans[4 * i + 3] - spans[4 * i + 2]
        self_ns[i] += dur
        if parent >= 0:
            self_ns[parent] -= dur
    totals: dict[str, dict[str, int]] = {}
    for i in range(count):
        name = meta["names"][spans[4 * i]]
        entry = totals.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += self_ns[i]
        entry["total_ns"] += spans[4 * i + 3] - spans[4 * i + 2]
    return totals, meta["counters"]


def main(argv: list[str]) -> int:
    path = os.environ[SPAN_FILE_VAR]
    recorder = Recorder()
    recorder.install()
    from tkchar import cli

    try:
        return cli.main(argv)
    finally:
        with open(path, "wb") as out:
            out.write(recorder.payload())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

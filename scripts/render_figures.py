"""Render the component graph of G(m, n) in every output format.

Writes graph-mN.json, graph-mN.dot, and graph-mN.svg into the output
directory, plus a short text summary of nodes and arcs to stdout.

The script imports tkchar from the src/ directory of its own tree.

Usage:
    python3 scripts/render_figures.py -m 6 -n 9 -o figures/
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from tkchar.components import GroupParams  # noqa: E402
from tkchar.graph import build_graph, to_dot, to_json, to_svg_schematic  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-m", type=int, required=True)
    ap.add_argument("-n", type=int, required=True)
    ap.add_argument("-o", "--output", type=pathlib.Path, default=pathlib.Path("figures"))
    args = ap.parse_args()

    p = GroupParams(args.m, args.n)
    g = build_graph(p)
    args.output.mkdir(parents=True, exist_ok=True)
    stem = f"graph-{p.m}-{p.n}"
    for ext, render in (("json", to_json), ("dot", to_dot), ("svg", to_svg_schematic)):
        path = args.output / f"{stem}.{ext}"
        path.write_text(render(g) + "\n")
        print(f"wrote {path}")

    print(f"\nG({p.m},{p.n}): gcd d = {p.d}")
    for node in g.nodes:
        print(f"  Red({node.id.i}): {node.su2_topology}")
    print(f"  {len(g.arcs)} irreducible arcs")
    for arc in g.arcs:
        e0, e1 = arc.endpoints
        print(
            f"    ({arc.component.k},{arc.component.kp}): "
            f"Red({e0.node}) s={e0.s_real:+.6f}  --  Red({e1.node}) s={e1.s_real:+.6f}"
        )


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: components (enumerate with topology labels), graph (JSON, DOT
or SVG serialization of the incidence graph), rep (build explicit matrices
and print characters), verify (run the sampling oracle and report, for a
seed in [0, 2**64) and at most 2**32 irreducible components).  Each
subcommand imports its own modules when it runs, so this module loads only
the standard library, and --help and usage errors exit before numpy loads.

Exit codes: 0 success, 1 verification failure, 2 usage error (including
an -o path or a stdout that cannot be written, such as a closed pipe or a
full disk, and an order too large for memory), 3 internal error (any other
exception, whose traceback goes to stderr).  The environment variable
TKCHAR_TOL overrides the global numerical tolerance; it must be a finite
number > 0.
All randomness is seeded; every subcommand is byte-deterministic given its
flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the text chunks and one newline to stdout or to the file out.

    Each chunk is one write (one system call on an unbuffered stdout), so
    callers pass whole documents or large chunks, never a line at a time.
    A stdout or out that cannot be written raises ValueError."""
    if out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.write("\n")
            sys.stdout.flush()  # a document smaller than the buffer fails only here
        except OSError as exc:
            # fd 1 on /dev/null, so the flush at exit of what is left in
            # stdout's buffer (closed pipe, full disk) fails no second time
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise ValueError(f"cannot write stdout: {exc.strerror or exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(chunks)
            f.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _fmt_matrix(name: str, mat) -> str:
    e = mat.entries()
    return (
        f"{name} = [[{_fmt_complex(e[0])}, {_fmt_complex(e[1])}],\n"
        f"     [{_fmt_complex(e[2])}, {_fmt_complex(e[3])}]]"
    )


def cmd_components(args: argparse.Namespace, tol: float) -> int:
    from .components import GroupParams, count_irr, enumerate_irr, enumerate_red, irr_info
    from .graph import build_graph, json_chunks

    p = GroupParams(args.m, args.n)
    if args.format == "json":
        _emit(json_chunks(build_graph(p)), args.output)
        return 0
    reds = enumerate_red(p)
    irrs = enumerate_irr(p)
    lines = [f"G({p.m},{p.n}): gcd d = {p.d}"]
    for info in reds:
        lines.append(f"  red:{info.id.i}  su2={info.su2_topology}  sl2c={info.sl2c_topology}")
    for comp in irrs:
        info = irr_info(p, comp)
        lam, mu = info.eigen_data
        lines.append(
            f"  irr:{comp.k},{comp.kp}  su2={info.su2_topology}  sl2c={info.sl2c_topology}"
            f"  lambda=exp(i*pi*{lam.num}/{lam.den})  mu=exp(i*pi*{mu.num}/{mu.den})"
        )
    if p.d == 1:
        plural = "" if count_irr(p) == 1 else "s"
        lines.append(f"{len(reds)} reducible ([-2,2]), {count_irr(p)} irreducible interval{plural}")
    else:
        lines.append(f"{len(reds)} reducible, {count_irr(p)} irreducible")
    _emit(["\n".join(lines)], args.output)
    return 0


def cmd_graph(args: argparse.Namespace, tol: float) -> int:
    from .components import GroupParams
    from .graph import build_graph, json_chunks, to_dot, to_svg_schematic

    g = build_graph(GroupParams(args.m, args.n))
    if args.format == "json":
        _emit(json_chunks(g), args.output)
    else:
        render = to_dot if args.format == "dot" else to_svg_schematic
        _emit([render(g)], args.output)
    return 0


def cmd_rep(args: argparse.Namespace, tol: float) -> int:
    if args.red and (args.k, args.kp, args.t) != (None, None, None):
        raise ValueError("--red takes no -k, --kp or -t")
    if not args.red and (args.t_angle, args.index) != (None, None):
        raise ValueError("--t-angle and --index need --red")
    from .components import GroupParams
    from .reps import DEFAULT_WORDS, Word, build_irr, build_red_noncoprime, evaluate_word
    from .roots import root
    from .su2 import trace

    p = GroupParams(args.m, args.n)
    words = DEFAULT_WORDS
    if args.words is not None:
        words = tuple(Word.parse(chunk) for chunk in args.words.split(",") if chunk)
        if not words:
            raise ValueError("empty word list")
    if args.red:
        if args.t_angle is None:
            raise ValueError("--red requires --t-angle c/N")
        num_s, _, den_s = args.t_angle.partition("/")
        try:
            t = root(int(num_s), int(den_s))
        except ValueError as exc:
            raise ValueError(f"bad --t-angle {args.t_angle!r}: {exc}") from exc
        index = args.index or 0
        a, b = build_red_noncoprime(p, index, complex(t))
        header = f"component red:{index}  t = exp(i*pi*{t.num}/{t.den})"
    else:
        if args.k is None or args.kp is None or args.t is None:
            raise ValueError("irreducible rep needs -k, --kp and -t (or use --red)")
        a, b = build_irr(p, args.k, args.kp, args.t)
        header = f"component irr:{args.k},{args.kp}  t = {args.t:.12g}"
    lines = [header, _fmt_matrix("A", a), _fmt_matrix("B", b), "characters:"]
    for w in words:
        tr = trace(evaluate_word(w, a, b)).real
        lines.append(f"  tr({w}) = {tr:.12g}")
    _emit(["\n".join(lines)], args.output)
    return 0


def cmd_verify(args: argparse.Namespace, tol: float) -> int:
    from .components import GroupParams
    from .verify import SampleConfig, empirical_structure, summary_chunks

    cfg = SampleConfig(
        params=GroupParams(args.m, args.n),
        sample_count=args.samples,
        seed=args.seed,
        reducible_fraction=args.fraction,
        tol=tol,
    )
    summary = empirical_structure(cfg)
    _emit(summary_chunks(summary), args.output)
    return 0 if summary.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tkchar",
        description="Character variety components, incidence graph and "
        "representation oracle for the groups <x, y | x^m = y^n>.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("-m", type=int, required=True, help="order of the first generator power")
        sp.add_argument("-n", type=int, required=True, help="order of the second generator power")
        sp.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    sp = sub.add_parser("components", help="list components with topology labels")
    add_common(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_components)

    sp = sub.add_parser("graph", help="emit the incidence graph")
    add_common(sp)
    sp.add_argument("--format", choices=("json", "dot", "svg"), default="json")
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("rep", help="build explicit matrices and print characters")
    add_common(sp)
    sp.add_argument("-k", type=int, default=None, help="first eigenvalue exponent")
    sp.add_argument("--kp", type=int, default=None, help="second eigenvalue exponent")
    sp.add_argument("-t", type=float, default=None, help="interior coordinate in (0, 1)")
    sp.add_argument("--red", action="store_true", help="build a reducible (diagonal) pair")
    sp.add_argument("--index", type=int, default=None, help="reducible component index (0)")
    sp.add_argument("--t-angle", default=None, help="circle coordinate exp(i*pi*c/N) as c/N")
    sp.add_argument("--words", default=None, help="comma-separated words over x,y,X,Y")
    sp.set_defaults(func=cmd_rep)

    sp = sub.add_parser("verify", help="run the sampling oracle and print the JSON summary")
    add_common(sp)
    sp.add_argument("-N", "--samples", type=int, default=1000, help="number of samples")
    sp.add_argument("--seed", type=int, default=0, help="stream seed in [0, 2**64)")
    sp.add_argument("--fraction", type=float, default=0.25, help="reducible sampling fraction")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    from .su2 import DEFAULT_TOL, check_tol

    raw_tol = os.environ.get("TKCHAR_TOL")
    try:
        tol = float(raw_tol) if raw_tol is not None else DEFAULT_TOL
        check_tol(tol)
    except ValueError as exc:
        print(f"error: TKCHAR_TOL={raw_tol!r}: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, tol)
    except (ValueError, MemoryError) as exc:
        # an order too large for memory is a usage error, not a failed check
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

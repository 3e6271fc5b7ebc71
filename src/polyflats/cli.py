"""Command-line interface.

Exit codes:

* 0 success.
* 1 semantic failure: axioms, conditions or round trip do not hold, or the
  library raised a ``PolyflatsError`` that is not an ``InputError``, as a
  construction does when it refuses its input.
* 2 unreadable or malformed input: an ``InputError`` or an ``OSError``.

Any other exception is a bug in the library and ends in a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import files
from .constructions import (
    BadParameters,
    InfiltrationSpec,
    graphic_matroid,
    helgason_expand,
    infiltrate,
    random_polymatroid,
    uniform_matroid,
)
from .convolution import convolve, convolve_lattices, verify_main_theorem
from .lattice import check_conditions
from .model import InputError, PolyflatsError
from .polymatroid import (
    check_polymatroid,
    coloops,
    cyclic_flats,
    loops,
    reconstruction_failure,
)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit_polymatroid(f, out) -> None:
    doc = files.polymatroid_text(f)
    if out:
        Path(out).write_text(doc, encoding="utf-8")
    else:
        sys.stdout.write(doc)


def _cmd_check(args) -> int:
    f = files.read_polymatroid(args.polymatroid)
    report = check_polymatroid(f)
    print(f"nonnegative: {_yes(report.nonnegative)}")
    print(f"monotone: {_yes(report.monotone)}")
    print(f"submodular: {_yes(report.submodular)}")
    print(f"integer-valued: {_yes(report.integer_valued)}")
    print(f"matroid: {_yes(report.is_matroid)}")
    if report.is_polymatroid:
        print(f"loops: {f.ground.describe(loops(f))}")
        print(f"coloops: {f.ground.describe(coloops(f))}")
        return 0
    print(f"witness: {report.witness.describe(f.ground)}")
    return 1


def _cmd_cyclic_flats(args) -> int:
    f = files.read_polymatroid(args.polymatroid)
    report = check_polymatroid(f)
    if not report.is_polymatroid:
        print(f"not a polymatroid: {report.witness.describe(f.ground)}")
        return 1
    lattice, mu = cyclic_flats(f)
    print(f"cyclic flats: {len(lattice)}")
    # the same labels the lattice file and the DOT text read
    named = files._member_labels(lattice.ground, lattice.members)[0]
    for labels, rank in zip(named, lattice.ranks):
        print(f"  {{{','.join(labels)}}} rank {files.format_rational(rank)}")
    if args.lattice:
        files.write_lattice(lattice, args.lattice)
    if args.measure:
        files.write_measure(mu, args.measure)
    if args.dot:
        Path(args.dot).write_text(files.lattice_dot(lattice), encoding="utf-8")
    return 0


def _read_pair(lattice_path, measure_path):
    lattice = files.read_lattice(lattice_path)
    mu = files.read_measure(measure_path, lattice.ground)
    return lattice, mu


def _cmd_axioms(args) -> int:
    lattice, mu = _read_pair(args.lattice, args.measure)
    report = check_conditions(lattice, mu)
    for line in report.lines(lattice.ground):
        print(line)
    return 0 if report.theorem_conditions_pass() else 1


def _cmd_convolve(args) -> int:
    lattice, mu = _read_pair(args.lattice, args.measure)
    _emit_polymatroid(convolve(lattice, mu), args.output)
    return 0


def _cmd_convolve2(args) -> int:
    first = files.read_lattice(args.first)
    second = files.read_lattice(args.second)
    _emit_polymatroid(convolve_lattices(first, second), args.output)
    return 0


def _cmd_verify(args) -> int:
    lattice, mu = _read_pair(args.lattice, args.measure)
    report = verify_main_theorem(lattice, mu)
    # Every line is formatted before any is printed, so a value too long to
    # write leaves stdout empty.
    lines = report.conditions.lines(lattice.ground)
    lines.append(f"polymatroid: {_yes(report.is_polymatroid)}")
    lines.append(f"lattice recovered: {_yes(report.lattice_recovered)}")
    lines.append(f"measure recovered: {_yes(report.measure_recovered)}")
    lines += [f"mismatch: {m.describe(lattice.ground)}" for m in report.mismatches]
    if report.outside_top:
        lines.append(f"outside top member: {', '.join(report.outside_top)}")
    print("\n".join(lines))
    return 0 if report.round_trip_ok else 1


def _cmd_reconstruct(args) -> int:
    f = files.read_polymatroid(args.polymatroid)
    report = check_polymatroid(f)
    if not report.is_polymatroid:
        print(f"not a polymatroid: {report.witness.describe(f.ground)}")
        return 1
    bad = reconstruction_failure(f)
    if bad is None:
        print("reconstruction: exact")
        return 0
    print(f"reconstruction differs at {f.ground.describe(bad)}")
    return 1


def _cmd_helgason(args) -> int:
    f = files.read_polymatroid(args.polymatroid)
    factor, emap = helgason_expand(f)
    print(f"expanded ground: {emap.expanded.n} elements")
    _emit_polymatroid(factor, args.output)
    if args.map:
        Path(args.map).write_text(
            files.dumps_canonical(files.expansion_to_doc(emap)), encoding="utf-8"
        )
    return 0


def _cmd_infiltrate(args) -> int:
    host = files.read_polymatroid(args.host)
    guest = files.read_polymatroid(args.guest)
    spec = InfiltrationSpec(host, args.pivot, guest)
    _emit_polymatroid(infiltrate(spec), args.output)
    return 0


def _cmd_gen(args) -> int:
    if args.family == "uniform":
        f = uniform_matroid(args.k, args.n)
    elif args.family == "graphic":
        edges = []
        for chunk in args.edges.split(","):
            left, _, right = chunk.partition("-")
            try:
                edges.append((int(left), int(right)))
            except ValueError:
                raise BadParameters(f"bad edge {chunk!r}; expected u-v") from None
        f = graphic_matroid(args.vertices, edges)
    else:
        f = random_polymatroid(args.seed, args.n, mode=args.mode)
    _emit_polymatroid(f, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyflats",
        description="Polymatroid cyclic-flat and lattice-convolution workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the polymatroid axiom checks on a rank file")
    p.add_argument("polymatroid")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("cyclic-flats", help="extract the cyclic-flat lattice and measure")
    p.add_argument("polymatroid")
    p.add_argument("--lattice", help="write the lattice file here")
    p.add_argument("--measure", help="write the measure file here")
    p.add_argument("--dot", help="write a DOT Hasse diagram here")
    p.set_defaults(func=_cmd_cyclic_flats)

    p = sub.add_parser("axioms", help="check the lattice/measure conditions")
    p.add_argument("lattice")
    p.add_argument("measure")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("convolve", help="convolve a ranked lattice with a measure")
    p.add_argument("lattice")
    p.add_argument("measure")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("convolve2", help="convolve two ranked lattices")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_convolve2)

    p = sub.add_parser("verify", help="full convolve / re-extract round trip")
    p.add_argument("lattice")
    p.add_argument("measure")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reconstruct", help="rebuild a polymatroid from its cyclic flats")
    p.add_argument("polymatroid")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("helgason", help="matroid factor by block expansion")
    p.add_argument("polymatroid")
    p.add_argument("-o", "--output")
    p.add_argument("--map", help="write the block map here")
    p.set_defaults(func=_cmd_helgason)

    p = sub.add_parser("infiltrate", help="replace one element by a whole polymatroid")
    p.add_argument("host")
    p.add_argument("pivot")
    p.add_argument("guest")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_infiltrate)

    p = sub.add_parser("gen", help="generate corpus polymatroids")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("uniform")
    g.add_argument("-k", type=int, required=True)
    g.add_argument("-n", type=int, required=True)
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser("graphic")
    g.add_argument("--vertices", type=int, required=True)
    g.add_argument("--edges", required=True, help="comma-joined u-v pairs, e.g. 0-1,1-2,0-2")
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser("random")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--mode", choices=("sum", "table"), default="sum")
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen)

    return parser


# Built once: each parse fills a fresh namespace and leaves the parser as is.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolyflatsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())

"""Command-line front end: RMSE tables, pointwise evaluation, mesh dumps,
and cross-sections, emitted as CSV. All commands are deterministic; the
thread count only affects wall time, never the output bytes.

Exit codes: 0 success, 2 usage or domain error, 1 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import experiments as ex
from .bivariate import vectorized

__all__ = ["main", "entry"]

OUT_DIR_ENV = "DISKBERN_OUT_DIR"

_OPERATORS = ("Cbar", "Bbar", "Bstancu-disk")

# CSV rows formatted and written at once
_BLOCK = 4096


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n list {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("n values must be positive integers")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad count {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"count must be >= 1, got {value}")
    return value


def _floats(name: str, form: str):
    """argparse type for as many comma-separated floats as form has
    fields; a malformed value is reported with its name and form."""
    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(map(float, text.split(",")))
        except ValueError:
            values = ()
        if len(values) != form.count(",") + 1:
            raise argparse.ArgumentTypeError(f"bad {name} {text!r}, expected {form}")
        return values
    return parse


def _resolve_function(spec: str):
    if spec.startswith("const:"):
        value = float(spec.split(":", 1)[1])
        return spec, vectorized(lambda x, y: np.full_like(x, value))
    if spec in ex.BUILTINS:
        return spec, ex.BUILTINS[spec]
    raise ValueError(f"unknown function {spec!r}; use example1..example4 or const:<v>")


def _out_path(name: str, out: str | None) -> Path:
    if out is not None:
        return Path(out)
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / name


def _write_csv(path: Path, header: list[str], rows: Iterable[tuple]) -> None:
    """One line per row, floats as %.9g and anything else as str; every
    row has the types of the first one. The rows are formatted and written
    _BLOCK at a time, so any iterable of them streams.
    """
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w") as out:
        out.write(",".join(header) + "\n")
        if first is None:
            return
        template = ",".join("%.9g" if isinstance(v, float) else "%s" for v in first) + "\n"
        out.write(template % first)
        while block := [template % row for row in islice(rows, _BLOCK)]:
            out.write("".join(block))


def cmd_table(args) -> int:
    report_c, report_b = ex.run_example(args.example, args.n, threads=args.threads)
    rows = [(n, rc, rb) for (n, rc), (_, rb) in zip(report_c.entries, report_b.entries)]
    path = _out_path(f"table_example{args.example}.csv", args.out)
    _write_csv(path, ["n", "rmse_C", "rmse_B"], rows)
    print(path)
    return 0


def cmd_eval(args) -> int:
    _, f = _resolve_function(args.fn)
    x, y = args.point
    op = ex.disk_operator(args.op, args.n)
    value = float(op(f, [(x, y)], threads=args.threads)[0])
    print(f"{value:.12g}")
    return 0


def _mesh_rows(mesh: ex.MeshSpec) -> Iterator[tuple]:
    """(x, y, k, j) of each chord-mesh point, or (x, y, quadrant, k, j) of
    each quadrant-mesh point, built _BLOCK points at a time."""
    a = 0
    for prefix, ks, js in mesh.label_segments():  # points a, a+1, ... have these labels
        for b in range(0, ks.size, _BLOCK):
            x, y = mesh.points[a + b:a + b + _BLOCK].T.tolist()
            yield from zip(x, y, *map(repeat, prefix),
                           ks[b:b + _BLOCK].tolist(), js[b:b + _BLOCK].tolist())
        a += ks.size


def cmd_mesh(args) -> int:
    if args.kind == "stancu":
        mesh = ex.mesh_stancu_disk(args.n)
        header = ["x", "y", "k", "j"]
    else:
        mesh = ex.mesh_quadrant_disk(args.n, dedup=args.dedup)
        header = ["x", "y", "quadrant", "k", "j"]
    path = _out_path(f"mesh_{args.kind}_{args.n}.csv", args.out)
    _write_csv(path, header, _mesh_rows(mesh))
    print(path)
    return 0


def cmd_section(args) -> int:
    fid, f = _resolve_function(args.fn)
    x0, y0, x1, y1 = args.segment
    rows = ex.cross_section(args.op, f, args.n, segment=((x0, y0), (x1, y1)),
                            samples=args.samples, threads=args.threads)
    header = ["s", "x", "y", "f"] + [f"op_{n}" for n in args.n]
    path = _out_path(f"section_{args.op}_{fid}.csv", args.out)
    _write_csv(path, header, rows)
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskbern",
        description="Bernstein-type approximation on the unit disk",
    )
    parser.add_argument("--threads", type=_positive_int, default=os.cpu_count(),
                        help="parallel mesh sweep width (output-invariant)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="reproduce an RMSE table")
    p.add_argument("--example", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--n", type=_parse_n_list, default=list(ex.DEFAULT_N_LIST))
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("eval", help="evaluate an operator at one point")
    p.add_argument("--op", choices=_OPERATORS, required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--point", type=_floats("point", "x,y"), required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mesh", help="emit a mesh as CSV")
    p.add_argument("--kind", choices=("stancu", "quadrant"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("section", help="cross-section along a segment")
    p.add_argument("--op", choices=_OPERATORS, required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--n", type=_parse_n_list, required=True)
    p.add_argument("--segment", type=_floats("segment", "x0,y0,x1,y1"),
                   default=(-1.0, 0.0, 1.0, 0.0),
                   help="x0,y0,x1,y1 (default: x-axis diameter)")
    p.add_argument("--samples", type=_positive_int, default=801)
    p.add_argument("--out")
    p.set_defaults(func=cmd_section)

    return parser


def _attach_coordinates(argv: list[str]) -> list[str]:
    """argv with "--point V" and "--segment V", or an abbreviation such as
    "--poi V", joined into one token "--point=V" or "--poi=V": argparse
    would take a V such as -0.5,0.1 for an option. argparse resolves or
    rejects a joined abbreviation as it would the split one, so "--s",
    which also abbreviates --samples, still exits 2."""
    out = []
    for arg in argv:
        last = out[-1] if out else ""
        if len(last) > 2 and ("--point".startswith(last) or "--segment".startswith(last)):
            arg = f"{out.pop()}={arg}"
        out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_coordinates(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command-line front end: assemble (STL + manifest export), flow
(frame-load grids), and enumerate (screen all candidate tilings).

Exit codes: 0 success, 2 invalid input (also one too large for memory),
3 IO failure, 4 unconverged flow.
All file outputs are deterministic; floats are written with fixed
6-decimal formatting.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import assembly, blocking, enumeration, flows

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_UNCONVERGED = 4


def _parse_scale(text: str) -> tuple:
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError("scale must be one or three comma-separated numbers")
    return tuple(parts)


def load_tiling(path) -> assembly.TruchetTiling:
    """Read a tiling from JSON: {"rows", "cols", "orientations" row-major}."""
    with open(path, "r", encoding="ascii") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("tiling JSON must be an object with rows, cols and orientations")
    for key in ("rows", "cols", "orientations"):
        if key not in data:
            raise ValueError(f"tiling JSON lacks {key!r}")
    rows, cols = data["rows"], data["cols"]
    if type(rows) is not int or type(cols) is not int:
        raise ValueError("rows and cols must be integers")
    flat = np.asarray(data["orientations"])
    if flat.shape != (rows * cols,):
        raise ValueError("orientations must hold rows*cols entries")
    return assembly.TruchetTiling(rows, cols, flat.reshape(rows, cols))


def _resolve_tiling(args: argparse.Namespace) -> assembly.TruchetTiling:
    if (args.group is None) == (args.tiling_path is None):
        raise ValueError("exactly one of --group and --tiling is required")
    if args.tiling_path is not None:
        t = load_tiling(args.tiling_path)
    else:
        if args.rows is None or args.cols is None:
            raise ValueError("--group needs --rows and --cols")
        t = assembly.tiling_from_group(args.group, args.rows, args.cols)
    if not assembly.validate_tiling(t):
        raise ValueError("invalid tiling: adjacent colors clash")
    return t


def cmd_assemble(args: argparse.Namespace) -> int:
    t = _resolve_tiling(args)
    a = assembly.build_assembly(t, gap=args.gap, scale=args.scale)
    manifest = assembly.export_assembly(a, args.out)
    print(f"wrote {len(manifest['blocks'])} blocks to {args.out}")
    return EXIT_OK


def cmd_flow(args: argparse.Namespace) -> int:
    t = _resolve_tiling(args)
    A = flows.transfer_matrix(blocking.dbg_combinatorial(t))
    x = flows.initial_load(t)
    if args.method == "closed_form":
        result = flows.closed_form(A, x)
    else:
        result = flows.iterate(A, x, tol=args.tol, max_iter=args.max_iter)
    if not result.converged:
        print(
            f"flow did not converge after {result.iterations} iterations; "
            f"residual core mass {result.residual_core_mass:.6e}",
            file=sys.stderr,
        )
        return EXIT_UNCONVERGED
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    flows.write_flow_csv(result, t.rows, t.cols, out / "flow.csv")
    flows.write_flow_json(result, t.rows, t.cols, out / "flow.json")
    if args.svg:
        flows.write_flow_svg(result, t.rows, t.cols, out / "flow.svg")
    print(f"total={result.total_frame_mass():.6f}")
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.rows is None or args.cols is None:
        raise ValueError("enumerate needs --rows and --cols")
    exponent = args.rows + args.cols - 3
    if exponent > args.cap:
        print(
            f"m+n-3 = {exponent} exceeds cap {args.cap}; "
            f"rerun with --cap {exponent} to proceed",
            file=sys.stderr,
        )
        return EXIT_INVALID
    if args.top_k < 0:
        raise ValueError("--top-k must be nonnegative")
    assembly.check_gap_scale(args.gap, args.scale, args.rows, args.cols)
    t0 = time.perf_counter()
    cands = enumeration.enumerate_tilings(args.rows, args.cols)
    ranked = enumeration.screen(cands, args.metric)
    wall = time.perf_counter() - t0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    enumeration.write_ranking_csv(ranked, out / "ranking.csv")
    enumeration.write_ranking_json(ranked, args.rows, args.cols, args.metric, out / "ranking.json")
    if args.top_k > 0:
        enumeration.export_top_k(ranked, args.top_k, out, gap=args.gap, scale=args.scale)
    print(f"candidates={len(ranked)} wall_clock={wall:.2f}s")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interlock",
        description="Topological interlocking assemblies of the versatile "
        "block: generation, load-flow analysis, and design-space screening.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tiling_source(p):
        p.add_argument("--group", choices=("p1", "pg", "p4"), help="wallpaper pattern")
        p.add_argument("--tiling", dest="tiling_path", help="tiling JSON file")
        p.add_argument("--rows", type=int)
        p.add_argument("--cols", type=int)
        p.add_argument("--out", default="interlock_out", help="output directory")

    pa = sub.add_parser("assemble", help="place blocks and export STL + manifest")
    add_tiling_source(pa)
    pa.add_argument("--gap", type=float, default=0.0)
    pa.add_argument("--scale", type=_parse_scale, default=(1.0, 1.0, 1.0))

    pf = sub.add_parser("flow", help="propagate loads to the frame")
    add_tiling_source(pf)
    pf.add_argument("--tol", type=float, default=1e-12)
    pf.add_argument("--max-iter", type=int, default=10**6)
    pf.add_argument("--method", choices=("iterate", "closed_form"), default="iterate")
    pf.add_argument("--svg", action="store_true", help="also write an SVG heatmap")

    pe = sub.add_parser("enumerate", help="screen all candidate tilings")
    pe.add_argument("--rows", type=int, required=True)
    pe.add_argument("--cols", type=int, required=True)
    pe.add_argument("--metric", choices=enumeration.METRICS, default="max_load")
    pe.add_argument("--top-k", type=int, default=0, help="export STL for the k best")
    pe.add_argument("--cap", type=int, default=20, help="max allowed m+n-3")
    pe.add_argument("--gap", type=float, default=0.0)
    pe.add_argument("--scale", type=_parse_scale, default=(1.0, 1.0, 1.0))
    pe.add_argument("--out", default="interlock_out")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its usage or error message
        return int(exc.code or 0)
    handlers = {
        "assemble": cmd_assemble,
        "flow": cmd_flow,
        "enumerate": cmd_enumerate,
    }
    try:
        return handlers[args.command](args)
    except flows.FlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCONVERGED
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        print(f"error: not enough memory for this input: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

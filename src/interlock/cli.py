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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import assembly, blocking, enumeration, flows

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_UNCONVERGED = 4


@dataclass
class RunConfig:
    command: str
    group: str = None
    tiling_path: str = None
    rows: int = None
    cols: int = None
    gap: float = 0.0
    scale: tuple = (1.0, 1.0, 1.0)
    tol: float = 1e-12
    max_iter: int = 10**6
    method: str = "iterate"
    metric: str = "max_load"
    top_k: int = 0
    cap: int = 20
    out: str = "interlock_out"
    svg: bool = False


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
    rows, cols = data["rows"], data["cols"]
    if type(rows) is not int or type(cols) is not int:
        raise ValueError("rows and cols must be integers")
    flat = np.asarray(data["orientations"])
    if flat.shape != (rows * cols,):
        raise ValueError("orientations must hold rows*cols entries")
    return assembly.TruchetTiling(rows, cols, flat.reshape(rows, cols))


def _resolve_tiling(cfg: RunConfig) -> assembly.TruchetTiling:
    if (cfg.group is None) == (cfg.tiling_path is None):
        raise ValueError("exactly one of --group and --tiling is required")
    if cfg.tiling_path is not None:
        t = load_tiling(cfg.tiling_path)
    else:
        if cfg.rows is None or cfg.cols is None:
            raise ValueError("--group needs --rows and --cols")
        t = assembly.tiling_from_group(cfg.group, cfg.rows, cfg.cols)
    if not assembly.validate_tiling(t):
        raise ValueError("invalid tiling: adjacent colors clash")
    return t


def cmd_assemble(cfg: RunConfig) -> int:
    t = _resolve_tiling(cfg)
    a = assembly.build_assembly(t, gap=cfg.gap, scale=cfg.scale)
    manifest = assembly.export_assembly(a, cfg.out)
    print(f"wrote {len(manifest['blocks'])} blocks to {cfg.out}")
    return EXIT_OK


def cmd_flow(cfg: RunConfig) -> int:
    t = _resolve_tiling(cfg)
    A = flows.transfer_matrix(blocking.dbg_combinatorial(t))
    x = flows.initial_load(t)
    if cfg.method == "closed_form":
        result = flows.closed_form(A, x)
    else:
        result = flows.iterate(A, x, tol=cfg.tol, max_iter=cfg.max_iter)
    if not result.converged:
        print(
            f"flow did not converge after {result.iterations} iterations; "
            f"residual core mass {result.residual_core_mass:.6e}",
            file=sys.stderr,
        )
        return EXIT_UNCONVERGED
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    flows.write_flow_csv(result, t.rows, t.cols, out / "flow.csv")
    flows.write_flow_json(result, t.rows, t.cols, out / "flow.json")
    if cfg.svg:
        flows.write_flow_svg(result, t.rows, t.cols, out / "flow.svg")
    print(f"total={result.total_frame_mass():.6f}")
    return EXIT_OK


def cmd_enumerate(cfg: RunConfig) -> int:
    if cfg.rows is None or cfg.cols is None:
        raise ValueError("enumerate needs --rows and --cols")
    exponent = cfg.rows + cfg.cols - 3
    if exponent > cfg.cap:
        print(
            f"m+n-3 = {exponent} exceeds cap {cfg.cap}; "
            f"rerun with --cap {exponent} to proceed",
            file=sys.stderr,
        )
        return EXIT_INVALID
    if cfg.top_k < 0:
        raise ValueError("--top-k must be nonnegative")
    assembly.check_gap_scale(cfg.gap, cfg.scale)
    t0 = time.perf_counter()
    cands = enumeration.enumerate_tilings(cfg.rows, cfg.cols)
    ranked = enumeration.screen(cands, cfg.metric)
    wall = time.perf_counter() - t0
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    enumeration.write_ranking_csv(ranked, out / "ranking.csv")
    enumeration.write_ranking_json(ranked, cfg.rows, cfg.cols, cfg.metric, out / "ranking.json")
    if cfg.top_k > 0:
        enumeration.export_top_k(ranked, cfg.top_k, out, gap=cfg.gap, scale=cfg.scale)
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


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for field in vars(cfg):
        if hasattr(args, field):
            setattr(cfg, field, getattr(args, field))
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its usage or error message
        return int(exc.code or 0)
    cfg = _config_from_args(args)
    handlers = {
        "assemble": cmd_assemble,
        "flow": cmd_flow,
        "enumerate": cmd_enumerate,
    }
    try:
        return handlers[cfg.command](cfg)
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

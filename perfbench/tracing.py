"""Spans around the public functions of each interlock module, recorded
from the benchmark's side for its traced run.

Each function is wrapped on the module attribute its caller looks up at
call time, so a name imported with `from .x import f` is wrapped in the
module that imported it.  A span is (name, start_ns, end_ns, parent index,
value), where the value is a count taken at the boundary: pairs tested,
triangles tested, bytes written, candidates, iterations or a hit.  Byte
counts are taken when the tracer exits, after the traced pass has ended, so
that stat calls and directory walks do not fall inside the program's spans.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from functools import partial, wraps
from pathlib import Path

from interlock import _kernels, assembly, blocking, cli, enumeration, flows, mesh


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _size_of_tree(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


# These values are callables that Tracer.__exit__ resolves to byte counts.
def _file_bytes(index, key):
    return lambda args, kwargs, result: partial(os.path.getsize, _arg(args, kwargs, index, key))


def _tree_bytes(index, key):
    return lambda args, kwargs, result: partial(_size_of_tree, _arg(args, kwargs, index, key))


# (module, attribute, span name, value taken from (args, kwargs, result))
POINTS = (
    (cli, "main", "cli.main", None),
    (cli, "load_tiling", "cli.load_tiling", None),
    (enumeration, "enumerate_tilings", "enumeration.enumerate_tilings",
     lambda args, kwargs, result: len(result.tilings)),
    (enumeration, "evaluate", "enumeration.evaluate", None),
    (enumeration, "screen", "enumeration.screen", None),
    (enumeration, "write_ranking_csv", "enumeration.write_ranking", _file_bytes(1, "path")),
    (enumeration, "write_ranking_json", "enumeration.write_ranking", _file_bytes(4, "path")),
    (enumeration, "export_top_k", "enumeration.export_top_k", None),
    (enumeration, "build_assembly", "assembly.build_assembly", None),
    (enumeration, "export_assembly", "assembly.export_assembly", _tree_bytes(1, "outdir")),
    (enumeration, "validate_tiling", "assembly.validate_tiling", None),
    (flows, "transfer_matrix", "flows.transfer_matrix", None),
    (flows, "closed_form", "flows.closed_form", None),
    (flows, "iterate", "flows.iterate", lambda args, kwargs, result: result.iterations),
    (flows, "write_flow_csv", "flows.write_flow", None),
    (flows, "write_flow_json", "flows.write_flow", None),
    (flows, "write_flow_svg", "flows.write_flow", None),
    (flows, "flow_metrics", "flows.flow_metrics", None),
    (blocking, "dbg_combinatorial", "blocking.dbg_combinatorial", None),
    (blocking, "dbg_geometric", "blocking.dbg_geometric", None),
    (blocking, "overlap", "blocking.overlap", lambda args, kwargs, result: int(bool(result))),
    (blocking, "validate_tiling", "assembly.validate_tiling", None),
    (mesh, "overlap", "mesh.overlap", None),
    (mesh, "point_in_mesh", "mesh.point_in_mesh", None),
    (assembly, "write_stl", "mesh.write_stl", _file_bytes(1, "path")),
    (assembly, "build_assembly", "assembly.build_assembly", None),
    (assembly, "export_assembly", "assembly.export_assembly", _tree_bytes(1, "outdir")),
    (assembly, "validate_tiling", "assembly.validate_tiling", None),
    (_kernels, "tri_cross_any", "kernels.tri_cross_any",
     lambda args, kwargs, result: len(args[0]) * len(args[1])),
    (_kernels, "ray_hits", "kernels.ray_hits", lambda args, kwargs, result: len(args[2])),
    (_kernels, "point_tris_dist", "kernels.point_tris_dist", None),
)


class Tracer:
    """While entered, every function in POINTS records spans into `spans`;
    on exit the original functions are put back and the deferred byte
    counts are taken."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, value):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[4] = value(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for module, attr, name, value in POINTS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, value))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        for span in self.spans:
            if callable(span[4]):
                span[4] = span[4]()


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass.  `busy_s` sums a layer's
    span durations, `self_s` subtracts the time its direct child spans
    cover, and `calls` counts spans."""
    calls, busy, covered, values = Counter(), Counter(), Counter(), Counter()
    rays_under = Counter()
    for name, start, end, parent, value in spans:
        calls[name] += 1
        busy[name] += end - start
        if value is not None:
            values[name] += value
        if parent >= 0:
            covered[spans[parent][0]] += end - start
            if name == "kernels.ray_hits":
                rays_under[parent] += 1

    def busy_s(*names):
        return sum(busy[n] for n in names) * 1e-9

    def self_s(*names):
        return sum(busy[n] - covered[n] for n in names) * 1e-9

    def ratio(num, den):
        return num / den if den else 0.0

    overlap = ("mesh.overlap", "blocking.overlap")
    overlap_calls = calls["mesh.overlap"] + calls["blocking.overlap"]
    return {
        "cli.main.busy_s": busy_s("cli.main"),
        "cli.load_tiling.busy_s": busy_s("cli.load_tiling"),
        "enumeration.enumerate_tilings.busy_s": busy_s("enumeration.enumerate_tilings"),
        "enumeration.evaluate.busy_s": busy_s("enumeration.evaluate"),
        "enumeration.evaluate.self_s": self_s("enumeration.evaluate"),
        "enumeration.screen.self_s": self_s("enumeration.screen"),
        "enumeration.write_ranking.busy_s": busy_s("enumeration.write_ranking"),
        "enumeration.write_ranking.bytes": values["enumeration.write_ranking"],
        "enumeration.export_top_k.busy_s": busy_s("enumeration.export_top_k"),
        "enumeration.candidates": values["enumeration.enumerate_tilings"],
        "flows.transfer_matrix.busy_s": busy_s("flows.transfer_matrix"),
        "flows.closed_form.busy_s": busy_s("flows.closed_form"),
        "flows.iterate.busy_s": busy_s("flows.iterate"),
        "flows.iterate.iterations": values["flows.iterate"],
        "flows.write_flow.busy_s": busy_s("flows.write_flow"),
        "flows.flow_metrics.calls": calls["flows.flow_metrics"],
        "flows.flow_metrics.busy_s": busy_s("flows.flow_metrics"),
        "blocking.dbg_combinatorial.busy_s": busy_s("blocking.dbg_combinatorial"),
        "blocking.dbg_geometric.busy_s": busy_s("blocking.dbg_geometric"),
        "blocking.dbg_geometric.self_s": self_s("blocking.dbg_geometric"),
        "blocking.overlap.hit_ratio": ratio(values["blocking.overlap"], calls["blocking.overlap"]),
        "mesh.overlap.calls": overlap_calls,
        "mesh.overlap.busy_s": busy_s(*overlap),
        "mesh.overlap.self_s": self_s(*overlap),
        "mesh.overlap.aabb_pass_ratio": ratio(calls["kernels.tri_cross_any"], overlap_calls),
        "mesh.point_in_mesh.calls": calls["mesh.point_in_mesh"],
        "mesh.point_in_mesh.busy_s": busy_s("mesh.point_in_mesh"),
        "mesh.write_stl.calls": calls["mesh.write_stl"],
        "mesh.write_stl.busy_s": busy_s("mesh.write_stl"),
        "mesh.write_stl.bytes": values["mesh.write_stl"],
        "assembly.build_assembly.busy_s": busy_s("assembly.build_assembly"),
        "assembly.export_assembly.self_s": self_s("assembly.export_assembly"),
        "assembly.export_assembly.bytes": values["assembly.export_assembly"],
        "assembly.validate_tiling.calls": calls["assembly.validate_tiling"],
        "assembly.validate_tiling.busy_s": busy_s("assembly.validate_tiling"),
        "kernels.tri_cross_any.calls": calls["kernels.tri_cross_any"],
        "kernels.tri_cross_any.busy_s": busy_s("kernels.tri_cross_any"),
        "kernels.tri_cross_any.pair_tests": values["kernels.tri_cross_any"],
        "kernels.ray_hits.calls": calls["kernels.ray_hits"],
        "kernels.ray_hits.busy_s": busy_s("kernels.ray_hits"),
        "kernels.ray_hits.tri_tests": values["kernels.ray_hits"],
        "kernels.ray_hits.retries": sum(n - 1 for n in rays_under.values()),
        "kernels.point_tris_dist.calls": calls["kernels.point_tris_dist"],
        "kernels.point_tris_dist.busy_s": busy_s("kernels.point_tris_dist"),
    }


def write_spans(passes, path: Path) -> None:
    """All spans of the traced passes, one CSV row each; `parent` is the
    row's index within its pass, -1 for a root span."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("pass,name,start_ns,end_ns,parent,value\n")
        for number, spans in enumerate(passes, start=1):
            for name, start, end, parent, value in spans:
                fh.write(f"{number},{name},{start},{end},{parent},{'' if value is None else value}\n")

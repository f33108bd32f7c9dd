"""The package's public surface, and the parts of it the benchmark relies on."""

import importlib.util
from pathlib import Path

import interlock
from interlock import assembly, blocking

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves():
    assert [name for name in interlock.__all__ if not hasattr(interlock, name)] == []
    namespace = {}
    exec("from interlock import *", namespace)
    assert set(interlock.__all__) <= set(namespace)


def test_every_traced_point_resolves():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.POINTS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_graph_arcs_are_sets_of_python_int_pairs():
    """The benchmark does set algebra on ``arcs`` and hashes
    ``repr(sorted(arcs))``, so the digest must not see numpy scalars."""
    t = assembly.tiling_from_group("p4", 4, 4)
    for g in (blocking.dbg_combinatorial(t),
              blocking.dbg_geometric(assembly.build_assembly(t), blocking.DOWN)):
        assert type(g.arcs) is frozenset
        text = repr(sorted(g.arcs))
        assert "int64" not in text and text.startswith("[(1, 1), (2, 2)")

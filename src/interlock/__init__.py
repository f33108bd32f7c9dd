"""Topological interlocking assemblies of the versatile block.

Construct the block, lay it out over wallpaper-symmetric Truchet tilings,
derive directional blocking graphs, propagate loads to the frame, and
enumerate/screen the whole design space of valid tilings.
"""

from ._kernels import BACKEND
from .assembly import (
    Assembly,
    TruchetTiling,
    build_assembly,
    count_assemblies,
    core_indices,
    export_assembly,
    frame_indices,
    rotate_tiling,
    tiling_from_group,
    validate_tiling,
)
from .block import VersatileBlock, oriented_block, versatile_block
from .blocking import BlockingGraph, dbg_combinatorial, dbg_geometric
from .enumeration import (
    CandidateSet,
    canonicalize,
    enumerate_tilings,
    screen,
)
from .flows import (
    FlowError,
    FlowResult,
    TransferMatrix,
    closed_form,
    flow_metrics,
    initial_load,
    iterate,
    step,
    transfer_matrix,
)
from .mesh import (
    TriMesh,
    cross_section_area,
    euler_characteristic,
    overlap,
    read_stl,
    read_stl_soup,
    signed_volume,
    validate_mesh,
    write_obj,
    write_stl,
)

__version__ = "0.1.0"

__all__ = [
    "Assembly",
    "BACKEND",
    "BlockingGraph",
    "CandidateSet",
    "FlowError",
    "FlowResult",
    "TransferMatrix",
    "TriMesh",
    "TruchetTiling",
    "VersatileBlock",
    "build_assembly",
    "canonicalize",
    "closed_form",
    "count_assemblies",
    "core_indices",
    "cross_section_area",
    "dbg_combinatorial",
    "dbg_geometric",
    "enumerate_tilings",
    "euler_characteristic",
    "export_assembly",
    "flow_metrics",
    "frame_indices",
    "initial_load",
    "iterate",
    "oriented_block",
    "overlap",
    "read_stl",
    "read_stl_soup",
    "rotate_tiling",
    "screen",
    "signed_volume",
    "step",
    "tiling_from_group",
    "transfer_matrix",
    "validate_mesh",
    "validate_tiling",
    "versatile_block",
    "write_obj",
    "write_stl",
]

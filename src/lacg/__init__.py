"""Column generation for the CVRP with local-area route pricing."""

from .instances import (
    Instance, CostMatrix, InstanceError, SplitMix64,
    generate_instance, cost_matrix, read_instance, write_instance,
    START_DEPOT, END_DEPOT,
)
from .neighbors import NeighborSets, build_la_neighbors, augment_ng
from .routes import (
    Route, DualSolution, make_route, route_cost, reduced_cost,
    special_indices, is_elementary, is_kq_route, is_ng_route, is_la_route,
    trim_to_elementary,
)
from .arcs import (
    LaArc, ComponentPathTable, ArcIndex,
    compute_component_paths, build_arc_index,
)
from .pricing import (
    PricingResult, compute_heuristic, solve_la_pricing,
)
from .dssr import CycleChoice, DssrResult, price_elementary, select_cycle
from .rmp import (
    Column, RmpSolution, make_column, initial_columns, solve_rmp,
    lagrangian_bound, dump_columns,
)
from .driver import CgConfig, CgResult, CgTrace, solve

__all__ = [
    "Instance", "CostMatrix", "InstanceError", "SplitMix64",
    "generate_instance", "cost_matrix", "read_instance", "write_instance",
    "START_DEPOT", "END_DEPOT",
    "NeighborSets", "build_la_neighbors", "augment_ng",
    "Route", "DualSolution", "make_route", "route_cost", "reduced_cost",
    "special_indices", "is_elementary", "is_kq_route", "is_ng_route",
    "is_la_route", "trim_to_elementary",
    "LaArc", "ComponentPathTable", "ArcIndex",
    "compute_component_paths", "build_arc_index",
    "PricingResult",
    "compute_heuristic", "solve_la_pricing",
    "CycleChoice", "DssrResult", "price_elementary", "select_cycle",
    "Column", "RmpSolution", "make_column", "initial_columns", "solve_rmp",
    "lagrangian_bound", "dump_columns",
    "CgConfig", "CgResult", "CgTrace", "solve",
]

__version__ = "0.1.0"

"""Toric graph associahedra vs. weighted pointed stable curves.

Decides, for a finite simple graph, whether the toric variety of its graph
associahedron is a moduli space of weighted stable rational curves, produces
the explicit weights when it is, and cross-validates fans, tubings, weight
inequalities and dual trees with exact arithmetic.
"""

__version__ = "0.1.0"

from .epsrational import (
    EPS,
    EpsRational,
    default_eps,
    parse_eps_rational,
    preservation_threshold,
    record_comparisons,
)
from .fans import (
    Fan,
    FanError,
    Ray,
    build_graph_fan,
    f_vector,
    is_complete,
    is_smooth,
)
from .graphs import (
    ConeStructure,
    Graph,
    GraphError,
    UnsupportedGraphError,
    bits_of,
    classify_iterated_cone,
    complete,
    complete_bipartite,
    complete_multipartite,
    cone,
    connected_graphs_up_to_iso,
    cycle,
    discrete,
    from_edges,
    mask_of,
    parse_edge_list,
    parse_graph,
    path,
    star,
    tubes,
    universal_vertices,
)
from .moduli import (
    StableTree,
    count_stable_trees,
    divisor_tube_correspondence,
    enumerate_stable_trees,
    nodal_divisors,
)
from .obstructions import (
    LinearSystem,
    ObstructionWitness,
    feasible,
    obstruction_a,
    obstruction_b,
    w1w2_system,
)
from .tubings import proper_tubes, verify_fan_tubing_bijection
from .weights import (
    WeightVector,
    check_w1_w2,
    is_valid,
    mark_of_vertex,
    parse_weight_vector,
    remark_weights,
)

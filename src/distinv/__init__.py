"""Exact distance-based graph invariants and a claim-verification harness.

The package computes the Wiener index, the first and second Zagreb
eccentricity indices, and their supporting invariants over exact integer and
rational arithmetic, and machine-checks a catalog of comparison claims over
exhaustively enumerated and randomly sampled graph families.
"""

__version__ = "0.1.0"

from .graphs import (
    DisconnectedGraphError,
    DistanceData,
    FormatError,
    Graph,
    GraphError,
    all_pairs_distances,
    complement,
    emit_graph6,
    from_edge_list,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from .invariants import CSV_HEADER, InvariantReport, full_report
from .families import (
    FamilyError,
    FamilySpec,
    a_k,
    attach_pendant_paths_at,
    attach_pendants_at,
    build_family,
    cartesian_product,
    complete,
    cycle,
    double_star,
    figure1,
    hypercube,
    parse_family_spec,
    path,
    star,
    thm29_construction,
)
from .sweeps import (
    SweepError,
    SweepSpec,
    SweepSummary,
    enumerate_connected_graphs,
    enumerate_trees,
    fold_sweep,
    iter_sweep,
    parse_sweep_spec,
    sample_diameter2_graphs,
)
from .ud import (
    UdCertificate,
    eccentric_set,
    find_ud_certificate,
    is_ud_pair,
    transmission_gap,
    transmission_gap_equality_set,
)
from .theorems import (
    ALL_UNARY_IDS,
    CheckReport,
    TheoremVerdict,
    UNARY_CHECKS,
    check_c44,
    check_product_identities,
    check_t42,
    check_t43,
    check_t52,
    check_t54,
    hunt,
)

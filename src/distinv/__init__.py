"""Exact distance-based graph invariants and a claim-verification harness.

The package computes the Wiener index, the first and second Zagreb
eccentricity indices, and their supporting invariants over exact integer and
rational arithmetic, and machine-checks a catalog of comparison claims over
exhaustively enumerated and randomly sampled graph families.

Every name below is imported on first use (PEP 562), so ``import distinv``
loads no submodule, and a command loads only the modules it runs.
"""

__version__ = "0.1.0"

# each exported name, by the submodule that defines it
_EXPORTS = {
    "graphs": (
        "DisconnectedGraphError", "DistanceData", "FormatError", "Graph",
        "GraphError", "all_pairs_distances", "complement", "emit_graph6",
        "from_edge_list", "induced_subgraph", "parse_edge_list", "parse_graph6",
    ),
    "invariants": ("CSV_HEADER", "InvariantReport", "full_report"),
    "families": (
        "FamilyError", "FamilySpec", "a_k", "attach_pendant_paths_at",
        "attach_pendants_at", "build_family", "cartesian_product", "complete",
        "cycle", "double_star", "figure1", "hypercube", "parse_family_spec",
        "path", "star", "thm29_construction",
    ),
    "sweeps": (
        "SweepError", "SweepSpec", "SweepSummary", "fold_sweep", "iter_sweep",
        "parse_sweep_spec",
    ),
    "ud": (
        "UdCertificate", "find_ud_certificate", "is_ud_pair",
        "transmission_gap", "transmission_gap_equality_set",
    ),
    "theorems": (
        "ALL_UNARY_IDS", "CheckReport", "TheoremVerdict", "UNARY_CHECKS",
        "check_c44", "check_product_identities", "check_t42", "check_t43",
        "check_t52", "check_t54", "hunt",
    ),
}  # fmt: skip
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_ORIGIN]


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _ORIGIN:
        value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

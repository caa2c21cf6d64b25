"""Exact clique cover width, bandwidth, and width-certified clique sums.

The toolkit computes, for small graphs: exact bandwidth and exact clique
cover width with verifiable witnesses, the clique number and induced
star number feeding the classical width inequalities, and a constructive
composition that turns ordered clique covers of two graphs glued along a
shared clique into a width-certified cover of the composed graph.
"""

from .composition import (
    SpanCheck,
    WidthCertificate,
    ceil_three_halves,
    compose_covers,
    edge_span_claim_check,
    format_certificate,
    parse_certificate,
    sequence_width,
    verify_certificate,
)
from .experiment import CSV_HEADER, ExperimentConfig, run_experiment
from .generators import (
    CliqueSumInstance,
    complete_graph,
    path_graph,
    path_sum_instance,
    random_clique_sum_instance,
    random_graph,
    star_graph,
)
from .graph import (
    Graph,
    clique_number,
    clique_sum,
    clique_sum_map,
    format_edge_list,
    is_clique,
    parse_edge_list,
    star_number,
)
from .layout import (
    CoverCheck,
    LinearOrdering,
    OrderedCliqueCover,
    cover_graph,
    cover_width,
    format_cover,
    format_ordering,
    ordering_width,
    parse_cover,
    parse_ordering,
    validate_cover,
)
from .solvers import (
    DEFAULT_BW_LIMIT,
    DEFAULT_CCW_LIMIT,
    BandwidthResult,
    CcwResult,
    InequalityReport,
    bandwidth_exact,
    ccw_exact,
    check_inequality_chain,
    format_bandwidth_result,
    format_ccw_result,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthResult",
    "CcwResult",
    "CliqueSumInstance",
    "CoverCheck",
    "CSV_HEADER",
    "DEFAULT_BW_LIMIT",
    "DEFAULT_CCW_LIMIT",
    "ExperimentConfig",
    "Graph",
    "InequalityReport",
    "LinearOrdering",
    "OrderedCliqueCover",
    "SpanCheck",
    "WidthCertificate",
    "bandwidth_exact",
    "ccw_exact",
    "ceil_three_halves",
    "check_inequality_chain",
    "clique_number",
    "clique_sum",
    "clique_sum_map",
    "complete_graph",
    "compose_covers",
    "cover_graph",
    "cover_width",
    "edge_span_claim_check",
    "format_bandwidth_result",
    "format_ccw_result",
    "format_certificate",
    "format_cover",
    "format_edge_list",
    "format_ordering",
    "is_clique",
    "ordering_width",
    "parse_certificate",
    "parse_cover",
    "parse_edge_list",
    "parse_ordering",
    "path_graph",
    "path_sum_instance",
    "random_clique_sum_instance",
    "random_graph",
    "run_experiment",
    "sequence_width",
    "star_graph",
    "star_number",
    "validate_cover",
    "verify_certificate",
]

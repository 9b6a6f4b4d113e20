"""Brute-force oracles and theorem/stability checkers."""

from .enumerate import ENUMERATION_CEILING, enumerate_graphs
from .profile import graph_profiles
from .reports import CSV_COLUMNS, SCHEMA_VERSION, reports_csv, reports_json
from .stability import (
    EmbeddingCertificate,
    StabilityReport,
    classify_matching_stability,
    classify_stability,
    embeds_in_host,
    host_label,
    listed_hosts,
    matching_hosts,
    matching_stability_threshold,
    stability_threshold,
    validate_embedding,
)
from .suite import matching_stability_suite, stability_suite
from .theorems import TheoremReport, brute_ex, brute_ex_matching, check_input_graph

__all__ = [
    "ENUMERATION_CEILING",
    "enumerate_graphs",
    "graph_profiles",
    "CSV_COLUMNS",
    "SCHEMA_VERSION",
    "reports_csv",
    "reports_json",
    "EmbeddingCertificate",
    "StabilityReport",
    "classify_matching_stability",
    "classify_stability",
    "embeds_in_host",
    "listed_hosts",
    "matching_hosts",
    "matching_stability_threshold",
    "stability_threshold",
    "validate_embedding",
    "host_label",
    "matching_stability_suite",
    "stability_suite",
    "TheoremReport",
    "brute_ex",
    "brute_ex_matching",
    "check_input_graph",
]

"""Weighted directed bipartite AS-IXP peering graph analysis."""

__version__ = "0.1.0"

from .analysis import (
    StabilityReport,
    beta_stability_sweep,
    classification_metrics,
    classify_countries,
    eums_coverage,
    top_hypergiants,
    traffic_receivers,
)
from .clustering import (
    ClusterProfile,
    Partition,
    cluster_profiles,
    cross_weights,
    louvain_bipartite,
    modularity,
)
from .graph import (
    BetaParams,
    BreakpointFit,
    PeeringGraph,
    build_graph,
    fit_breakpoint,
)
from .ingest import (
    RawSnapshot,
    TrafficClass,
    capacity_timeseries,
    load_as_countries,
    load_market_shares,
    parse_snapshot,
    validate_snapshot,
)
from .spectral import (
    ChangeMatrix,
    GoogleMatrix,
    PageRankVector,
    RankTable,
    ReducedGoogleMatrix,
    censor_diagonal,
    google_matrix,
    pagerank,
    rank_table,
    reduced_google_matrix,
    relative_change,
)

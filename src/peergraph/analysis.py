"""Ecosystem analyses on top of the capacity graph and its spectral metrics.

Covers the country attribution of ASes from their IXP memberships, its
validation against registration data, the extraction of highly diffusive
ASes (reverse PageRank) and of per-country traffic receivers (forward
PageRank), end-user market-share coverage and the beta sensitivity sweep.
Every analysis takes a built :class:`~peergraph.graph.PeeringGraph`; the
outside data are the plain dicts that
:func:`~peergraph.ingest.load_as_countries` and
:func:`~peergraph.ingest.load_market_shares` return.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import BetaParams, PeeringGraph
from .ingest import CLASSES, TrafficClass
from .spectral import (
    DEFAULT_ALPHA,
    DEFAULT_TOL,
    RankTable,
    google_matrix,
    pagerank,
    rank_positions,
    rank_table,
)

TIED = "Tied"

# PeeringDB business types; the access-network filter used for traffic receivers.
TYPE_ISP = "Cable/DSL/ISP"
TYPE_NSP = "NSP"
TYPE_NOT_DISCLOSED = "Not Disclosed"
DEFAULT_RECEIVER_TYPES = frozenset({TYPE_ISP, TYPE_NOT_DISCLOSED})
RECEIVERS_PER_COUNTRY = 4
PROBES_PER_CLASS = 4


def classify_countries(g: PeeringGraph, rule: str = "strict") -> tuple[str, ...]:
    """Assign each AS the country of the majority of its IXPs.

    Returns one ISO country code, or "Tied" when no country wins, per AS
    in node order (aligned with ``g.asn``).  IXPs without a country label
    do not vote.  Under the default strict rule an AS is "Tied" unless one
    country holds more than half of the votes; ``rule="plurality"`` only
    requires a unique maximum.  Under either rule a winner is unique.

    The votes are counted in one pass over the edge columns: each
    (AS, country) pair is one integer, and ``np.unique`` counts them.
    """
    if rule not in ("strict", "plurality"):
        raise ValueError("rule must be 'strict' or 'plurality'")
    codes: dict[str, int] = {}
    ixp_code = np.array(
        [codes.setdefault(c, len(codes)) if c else -1 for c in g.ixp_country], dtype=np.int64
    )
    country = ixp_code[g.edge_ixp - g.n_as]
    voting = country >= 0
    voter = g.edge_as[voting]
    pairs, counts = np.unique(voter * len(codes) + country[voting], return_counts=True)
    pair_as, pair_country = np.divmod(pairs, max(len(codes), 1))

    # Per AS, its pairs by descending count: the first is the top country.
    order = np.lexsort((-counts, pair_as))
    pair_as, pair_country, counts = pair_as[order], pair_country[order], counts[order]
    first = np.flatnonzero(np.diff(pair_as, prepend=-1) != 0)
    has_second = np.diff(pair_as, append=-1)[first] == 0
    top = np.zeros(g.n_as, dtype=np.int64)
    top[pair_as[first]] = counts[first]
    second = np.zeros(g.n_as, dtype=np.int64)
    second[pair_as[first[has_second]]] = counts[first[has_second] + 1]
    if rule == "strict":
        wins = top * 2 > np.bincount(voter, minlength=g.n_as)
    else:
        wins = top > second

    names = list(codes)
    assignment = [TIED] * g.n_as
    winners = first[wins[pair_as[first]]]
    for a, c in zip(pair_as[winners].tolist(), pair_country[winners].tolist()):
        assignment[a] = names[c]
    return tuple(assignment)


@dataclass(frozen=True)
class CountryMetrics:
    country: str
    precision: float
    recall: float
    f1: float
    support: int


def classification_metrics(
    g: PeeringGraph,
    assignment: Sequence[str],
    as_country: Mapping[int, str],
    countries: Sequence[str],
) -> tuple[CountryMetrics, ...]:
    """Per-country precision/recall/F1 against the registration dataset.

    ``assignment`` holds one prediction per AS of ``g`` in node order, as
    :func:`classify_countries` returns it, and ``as_country`` maps AS
    numbers to their registration country.  Returns one row per entry of
    ``countries``, in that order.  Only ASes present in ``as_country``
    are evaluated.  "Tied" counts as a negative prediction for
    every country.  Hits, predictions and truths are counted once each;
    a country's false positives are its predictions minus its hits and its
    false negatives its truths minus its hits.
    """
    pairs = [
        (predicted, as_country[asn])
        for asn, predicted in zip(g.asn.tolist(), assignment, strict=True)
        if asn in as_country
    ]
    hits = Counter(p for p, t in pairs if p == t)
    predicted = Counter(p for p, _ in pairs)
    actual = Counter(t for _, t in pairs)
    rows = []
    for country in countries:
        tp = hits[country]
        fp = predicted[country] - tp
        fn = actual[country] - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        rows.append(
            CountryMetrics(
                country=country,
                precision=precision,
                recall=recall,
                f1=f1,
                support=tp + fn,
            )
        )
    return tuple(rows)


def top_hypergiants(
    g: PeeringGraph,
    k: int = 20,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
) -> RankTable:
    """Top-k ASes by reverse PageRank (IXPs excluded, ranks re-numbered).

    ``g.asn[table.index]`` are their AS numbers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > g.n_as:
        raise ValueError(f"k={k} exceeds the number of AS nodes ({g.n_as})")
    pr = pagerank(google_matrix(g, alpha, "reverse"), tol=tol)
    return rank_table(pr, keep=np.arange(g.n_nodes) < g.n_as).top(k)


def traffic_receivers(
    g: PeeringGraph,
    assignment: Sequence[str],
    countries: Sequence[str],
    hypergiant_asns: Iterable[int],
    exclusions: Iterable[int] = (),
    types: frozenset[str] | set[str] = DEFAULT_RECEIVER_TYPES,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
) -> dict[str, RankTable]:
    """Top traffic-receiving access networks per country by forward PageRank.

    ``assignment`` holds one country per AS in node order, as
    :func:`classify_countries` returns it.  Candidates are the ASes
    assigned to the country whose business type is in ``types``;
    hypergiants and the manual exclusion list never qualify.  One
    candidate mask over the nodes is ANDed with each country's
    assignment, and each table keeps the top :data:`RECEIVERS_PER_COUNTRY`
    AS node indices; countries without a qualifying AS map to an empty
    table.
    """
    pr = pagerank(google_matrix(g, alpha, "forward"), tol=tol)
    banned = np.isin(g.asn, [*hypergiant_asns, *exclusions])
    candidate = np.zeros(g.n_nodes, dtype=bool)
    candidate[: g.n_as] = ~banned & np.isin(np.array(g.as_type, dtype=object), list(types))
    assigned = np.full(g.n_nodes, None, dtype=object)
    assigned[: g.n_as] = assignment
    return {
        country: rank_table(pr, keep=candidate & (assigned == country)).top(RECEIVERS_PER_COUNTRY)
        for country in countries
    }


def eums_coverage(
    g: PeeringGraph,
    receivers: Mapping[str, RankTable],
    shares: Mapping[tuple[int, str], float],
) -> dict[str, float]:
    """Aggregated end-user market share of the identified receivers per country.

    The tables hold AS node indices of ``g``, and ``shares`` maps
    (AS number, country) to a market share in percent; an AS missing from
    ``shares`` contributes zero.
    """
    coverage: dict[str, float] = {}
    for country, table in receivers.items():
        total = 0.0
        for asn in g.asn[table.index].tolist():
            total += shares.get((asn, country), 0.0)
        coverage[country] = total
    return coverage


@dataclass(frozen=True)
class StabilityRow:
    asn: int
    name: str
    traffic_class: TrafficClass
    pr_value: float
    pr_rank: int
    rpr_value: float
    rpr_rank: int
    delta_pr_rank: int
    delta_rpr_rank: int
    delta_pr_value: float
    delta_rpr_value: float


@dataclass(frozen=True)
class StabilityReport:
    """The probe rows, the grid, and the total PageRank iterations of the sweep."""

    rows: tuple[StabilityRow, ...]
    grid_heavy: tuple[float, ...]
    grid_mostly: tuple[float, ...]
    iterations: int


def default_probes(g: PeeringGraph) -> tuple[int, ...]:
    """The :data:`PROBES_PER_CLASS` best-provisioned ASes of each traffic class."""
    capacity = g.capacity[: g.n_as]
    # By class, then descending capacity, then ascending AS number.
    order = np.lexsort((g.asn, -capacity, g.as_class))
    probes: list[int] = []
    for code in range(len(CLASSES)):
        best = order[g.as_class[order] == code][:PROBES_PER_CLASS]
        probes.extend(g.asn[best].tolist())
    return tuple(probes)


# Coefficients of the solved points behind a grid point along one axis,
# nearest first, by how many there are: none, then constant, then linear
# extrapolation.  Each nonempty set sums to 1.
_STENCIL = ((), (1.0,), (2.0, -1.0))


def _extrapolated_start(
    default: np.ndarray, before: Sequence[Sequence[np.ndarray]], row: Sequence[np.ndarray]
) -> np.ndarray:
    """Start vector for the next grid point of ``row``, from the points solved around it.

    ``row`` holds the vectors solved so far in the current grid row, and
    ``before`` the rows above it, nearest first; the point's column is
    ``len(row)``.  With ``E_i`` and ``E_j`` the extrapolations along the
    two axes (:data:`_STENCIL`), the start is ``E_i V + E_j V - E_i E_j V``,
    or ``default`` at the first point.  The coefficients sum to 1, so the
    start sums to at least 1 once clipped at 0.
    """
    j = len(row)
    ci, cj = _STENCIL[min(len(before), 2)], _STENCIL[min(j, 2)]
    if not ci and not cj:
        return default
    start = np.zeros_like(default)
    for a, c in enumerate(ci):
        start += c * before[a][j]
    for b, c in enumerate(cj):
        start += c * row[j - 1 - b]
    for a, c in enumerate(ci):
        for b, d in enumerate(cj):
            start -= c * d * before[a][j - 1 - b]
    return np.maximum(start, 0.0, out=start)


def beta_stability_sweep(
    g: PeeringGraph,
    grid_heavy: Sequence[float],
    grid_mostly: Sequence[float],
    probes: Sequence[int] | None = None,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
) -> StabilityReport:
    """Rank sensitivity of probe ASes over a (beta_heavy, beta_mostly) grid.

    The default point is ``g.beta``; each grid point keeps its
    ``balanced`` coefficient.  Each point builds the operator of ``g`` in
    both directions under its beta (:func:`google_matrix`), over the edges
    of the built graph, and only the probes are ranked
    (:func:`rank_positions`).  The sweep is a continuation solve: in each
    direction the default point starts from the uniform vector, and grid
    point (i, j) (i over ``grid_heavy``, j over ``grid_mostly``) starts
    from a second-order extrapolation of the points already solved in its
    row and column (:func:`_extrapolated_start`); the first grid point
    starts from the default point's vector.  Extrapolation is by grid
    index, not by beta spacing, so any grid order works.  The start only
    changes how many iterations a point takes, not its fixed point.  At
    most three grid rows of vectors are held at a time.

    The report carries the ranks at the default point plus the maximum
    rank variation (and, for diagnostics, the maximum value variation)
    over the whole grid, and the total PageRank iterations.
    ``beta_heavy = 1`` is excluded: it silences heavy-outbound ASes
    entirely.  ``probes`` defaults to :func:`default_probes`; a probe that
    is not an AS of the graph raises ``ValueError``.
    """
    grid_h = tuple(b for b in grid_heavy if b < 1.0)
    grid_m = tuple(grid_mostly)
    if not grid_h or not grid_m:
        raise ValueError("sweep grids must be non-empty (beta_heavy=1 is excluded)")

    probe_asns = tuple(probes) if probes is not None else default_probes(g)
    missing = next((asn for asn in probe_asns if not g.contains_as(asn)), None)
    if missing is not None:
        raise ValueError(f"probe AS{missing} is not a node of the graph")
    idx = np.array([g.as_index(asn) for asn in probe_asns], dtype=np.int64)

    ranks = {"forward": [], "reverse": []}
    values = {"forward": [], "reverse": []}
    iterations = 0

    def solve(direction: str, beta: BetaParams, start: np.ndarray | None) -> np.ndarray:
        nonlocal iterations
        pr = pagerank(google_matrix(g, alpha, direction, beta), tol=tol, start=start)
        iterations += pr.iterations
        # Row 0 of each table is the default point, the other rows the grid.
        ranks[direction].append(rank_positions(pr.P, idx))
        values[direction].append(pr.P[idx])
        return pr.P

    for direction in ("forward", "reverse"):
        default = solve(direction, g.beta, None)
        before: list[list[np.ndarray]] = []
        for bh in grid_h:
            row: list[np.ndarray] = []
            for bm in grid_m:
                beta = BetaParams(balanced=g.beta.balanced, mostly=bm, heavy=bh)
                row.append(solve(direction, beta, _extrapolated_start(default, before, row)))
            before = [row, *before[:1]]
    pr_ranks, rpr_ranks = np.stack(ranks["forward"]), np.stack(ranks["reverse"])
    pr_vals, rpr_vals = np.stack(values["forward"]), np.stack(values["reverse"])

    rows = []
    for j, asn in enumerate(probe_asns):
        i = int(idx[j])
        rows.append(
            StabilityRow(
                asn=asn,
                name=g.as_name[i],
                traffic_class=CLASSES[g.as_class[i]],
                pr_value=float(pr_vals[0, j]),
                pr_rank=int(pr_ranks[0, j]),
                rpr_value=float(rpr_vals[0, j]),
                rpr_rank=int(rpr_ranks[0, j]),
                delta_pr_rank=int(np.ptp(pr_ranks[1:, j])),
                delta_rpr_rank=int(np.ptp(rpr_ranks[1:, j])),
                delta_pr_value=float(np.ptp(pr_vals[1:, j])),
                delta_rpr_value=float(np.ptp(rpr_vals[1:, j])),
            )
        )
    return StabilityReport(
        rows=tuple(rows),
        grid_heavy=grid_h,
        grid_mostly=grid_m,
        iterations=iterations,
    )

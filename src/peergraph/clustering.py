"""Community detection on the symmetrized graph with bipartite modularity.

The directed weights are folded into ``A = W + W^T`` and partitioned with
a greedy Louvain scheme that optimizes the bipartite (two-mode)
modularity

    Q = (1/m) * sum over AS-IXP pairs in the same community of
        (A[i, j] - k_i * d_j / m)

where ``k`` and ``d`` are the weighted degrees of the two sides and ``m``
is the total cross-side edge weight.  The null model only allows
cross-side pairs, so same-side co-membership neither costs nor rewards.

Local moves require a strictly positive gain; on ties the node keeps its
current community, and candidate communities are scanned in ascending id
so the whole procedure is deterministic for a fixed visit order.
"""
from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .graph import PeeringGraph, node_metrics

_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class SymmetrizedGraph:
    """Undirected weighted view of a peering graph (or any bipartite graph)."""

    A: sparse.csr_matrix
    is_as: np.ndarray  # True on the AS side
    labels: tuple[str, ...]

    @property
    def n_nodes(self) -> int:
        return self.A.shape[0]


def symmetrize(g: PeeringGraph) -> SymmetrizedGraph:
    """Fold the directed weights: an edge with port size ps and coefficient
    beta contributes ``(2 - beta) * ps`` to the undirected weight."""
    A = (g.W + g.W.T).tocsr()
    A.sort_indices()
    is_as = np.zeros(g.n_nodes, dtype=bool)
    is_as[: g.n_as] = True
    return SymmetrizedGraph(A=A, is_as=is_as, labels=g.labels)


@dataclass(frozen=True)
class Partition:
    """Node communities (contiguous ids from 0) and the achieved modularity.

    ``history`` records the modularity after each aggregation pass; it is
    non-decreasing.
    """

    labels: tuple[str, ...]
    communities: np.ndarray
    modularity: float
    history: tuple[float, ...]

    @property
    def n_communities(self) -> int:
        return int(self.communities.max()) + 1 if self.communities.size else 0


def modularity(sym: SymmetrizedGraph, communities: np.ndarray) -> float:
    """Bipartite modularity of a partition over the symmetrized graph."""
    k = np.asarray(sym.A.sum(axis=1)).ravel()
    m = k.sum() / 2.0
    if m <= 0:
        return 0.0
    coo = sym.A.tocoo()
    cross = sym.is_as[coo.row] & ~sym.is_as[coo.col]  # each undirected edge once
    same = communities[coo.row] == communities[coo.col]
    edge_term = float(coo.data[cross & same].sum())

    n_comm = int(communities.max()) + 1
    mass_as = np.zeros(n_comm)
    mass_ixp = np.zeros(n_comm)
    np.add.at(mass_as, communities[sym.is_as], k[sym.is_as])
    np.add.at(mass_ixp, communities[~sym.is_as], k[~sym.is_as])
    null_term = float((mass_as * mass_ixp).sum()) / m
    return (edge_term - null_term) / m


def _local_moves(
    A: sparse.csr_matrix,
    side: np.ndarray,
    k: np.ndarray,
    m: float,
    order: Sequence[int],
    init_comm: np.ndarray,
    max_sweeps: int = 1_000,
) -> tuple[np.ndarray, bool]:
    """One Louvain level: greedy single-node moves until none improves.

    Starts from ``init_comm`` (singletons at the first level, the
    inherited communities after an aggregation).  Gains are kept unscaled
    (modularity gain times m); the sign is all that matters for
    acceptance.  Returns the assignment and whether any move happened.
    """
    n = A.shape[0]
    comm = init_comm.copy()
    # Opposite-side degree mass per community, one array per node side.
    mass = [np.zeros(n), np.zeros(n)]
    for i in range(n):
        mass[side[i]][comm[i]] += k[i]

    indptr, indices, data = A.indptr, A.indices, A.data
    any_move = False
    for _ in range(max_sweeps):
        moved = False
        for i in order:
            own = side[i]
            opp_mass = mass[1 - own]
            current = comm[i]
            link: dict[int, float] = defaultdict(float)
            for ptr in range(indptr[i], indptr[i + 1]):
                link[comm[indices[ptr]]] += data[ptr]
            base_link = link.get(current, 0.0)
            base_null = k[i] * opp_mass[current] / m
            best_gain = 0.0
            best_comm = current
            for c in sorted(link):
                if c == current:
                    continue
                gain = (link[c] - base_link) - (k[i] * opp_mass[c] / m - base_null)
                if gain > best_gain + _GAIN_EPS:
                    best_gain = gain
                    best_comm = c
            if best_comm != current:
                mass[own][current] -= k[i]
                mass[own][best_comm] += k[i]
                comm[i] = best_comm
                moved = True
                any_move = True
        if not moved:
            break
    return comm, any_move


def _aggregate(
    A: sparse.csr_matrix,
    side: np.ndarray,
    comm: np.ndarray,
) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse each (community, side) pair into one super node.

    Keeping the two sides separate preserves the bipartite structure, the
    side degrees and therefore the modularity of any coarser partition.
    Returns the aggregated matrix, the side of each super node, the
    node -> super node map and the community each super node came from
    (the starting assignment of the next level).
    """
    pairs: dict[tuple[int, int], int] = {}
    node_map = np.empty(A.shape[0], dtype=np.int64)
    for i in range(A.shape[0]):
        key = (int(comm[i]), int(side[i]))
        if key not in pairs:
            pairs[key] = len(pairs)
        node_map[i] = pairs[key]
    coo = A.tocoo()
    agg = sparse.csr_matrix(
        (coo.data, (node_map[coo.row], node_map[coo.col])),
        shape=(len(pairs), len(pairs)),
    )
    agg.sum_duplicates()
    agg.sort_indices()
    new_side = np.empty(len(pairs), dtype=np.int64)
    origin_comm = np.empty(len(pairs), dtype=np.int64)
    for (community, s), super_id in pairs.items():
        new_side[super_id] = s
        origin_comm[super_id] = community
    return agg, new_side, node_map, origin_comm


def louvain_bipartite(
    sym: SymmetrizedGraph,
    seed: int = 0,
    shuffle: bool = False,
) -> Partition:
    """Greedy Louvain with bipartite modularity.

    The visit order is ascending node id by default; ``shuffle=True``
    randomizes it with ``seed`` for robustness studies.  Passes alternate
    local moves and community aggregation until a pass produces no merge.
    """
    A = sym.A.tocsr().astype(np.float64)
    side = np.where(sym.is_as, 0, 1)
    m = float(A.sum()) / 2.0
    n = sym.n_nodes

    node_of = np.arange(n)  # original node -> current-level node
    if m <= 0:
        return Partition(
            labels=sym.labels, communities=node_of, modularity=0.0, history=(0.0,)
        )

    rng = random.Random(seed)
    history: list[float] = []
    final = node_of.copy()
    init_comm = np.arange(A.shape[0])
    while True:
        k = np.asarray(A.sum(axis=1)).ravel()
        order = list(range(A.shape[0]))
        if shuffle:
            rng.shuffle(order)
        comm, moved = _local_moves(A, side, k, m, order, init_comm)

        relabel: dict[int, int] = {}
        for c in comm:
            if int(c) not in relabel:
                relabel[int(c)] = len(relabel)
        comm = np.array([relabel[int(c)] for c in comm], dtype=np.int64)

        final = comm[node_of]
        history.append(modularity(sym, final))
        if not moved:
            break
        A, side, node_map, init_comm = _aggregate(A, side, comm)
        node_of = node_map[node_of]

    return Partition(
        labels=sym.labels,
        communities=final,
        modularity=history[-1],
        history=tuple(history),
    )


@dataclass(frozen=True)
class ClusterProfile:
    community: int
    country_counts: tuple[tuple[str, int], ...]  # (country, #IXPs), count-descending
    n_countries: int
    capacity_share_pct: float
    ixp_share_pct: float
    n_ixps: int
    n_as: int


def cluster_profiles(partition: Partition, g: PeeringGraph) -> tuple[ClusterProfile, ...]:
    """Per-community IXP statistics, ordered by descending capacity share.

    The capacity share is the fraction of the total IXP port capacity held
    by the community's exchanges; shares over all communities sum to 100.
    IXPs without a country label are left out of the frequency table.
    """
    if partition.communities.shape[0] != g.n_nodes:
        raise ValueError("partition does not cover this graph")
    metrics = node_metrics(g)
    total_capacity = float(metrics.port_capacity[g.n_as :].sum())
    total_ixps = g.n_ixp

    countries: dict[int, Counter] = defaultdict(Counter)
    capacity: dict[int, float] = defaultdict(float)
    ixp_count: dict[int, int] = defaultdict(int)
    as_count: dict[int, int] = defaultdict(int)
    for i in range(g.n_nodes):
        c = int(partition.communities[i])
        if i < g.n_as:
            as_count[c] += 1
            continue
        country = g.ixp_country[i - g.n_as]
        ixp_count[c] += 1
        capacity[c] += float(metrics.port_capacity[i])
        if country:
            countries[c][country] += 1

    profiles = []
    for c in range(partition.n_communities):
        table = tuple(
            sorted(countries[c].items(), key=lambda item: (-item[1], item[0]))
        )
        profiles.append(
            ClusterProfile(
                community=c,
                country_counts=table,
                n_countries=len(table),
                capacity_share_pct=100.0 * capacity[c] / total_capacity
                if total_capacity
                else 0.0,
                ixp_share_pct=100.0 * ixp_count[c] / total_ixps if total_ixps else 0.0,
                n_ixps=ixp_count[c],
                n_as=as_count[c],
            )
        )
    profiles.sort(key=lambda p: (-p.capacity_share_pct, p.community))
    return tuple(profiles)

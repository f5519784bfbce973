"""Community detection on the symmetrized graph with bipartite modularity.

The directed weights are folded into the CSR matrix ``A = W + W^T``,
whose first ``n_as`` nodes are the AS side, and partitioned with a
greedy Louvain scheme (Blondel et al. 2008) that optimizes the bipartite
(two-mode) modularity of Barber (2007)

    Q = (1/m) * sum over AS-IXP pairs in the same community of
        (A[i, j] - k_i * d_j / m)

where ``k`` and ``d`` are the weighted degrees of the two sides and ``m``
is the total cross-side edge weight.  The null model only allows
cross-side pairs, so same-side co-membership neither costs nor rewards.

Local moves require a strictly positive gain; on ties the node keeps its
current community, and candidate communities are scanned in ascending id
so the whole procedure is deterministic for a fixed visit order.
Communities are node-aligned int64 columns numbered by first appearance.

scipy is imported where a sparse matrix is built (:func:`_aggregate`); the
other sparse matrices here come from the graph's weight matrix.
"""
from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .graph import PeeringGraph

if TYPE_CHECKING:
    from scipy import sparse

_GAIN_EPS = 1e-12


def symmetrize(g: PeeringGraph) -> sparse.csr_matrix:
    """The undirected weights ``A = W + W^T`` as CSR with sorted indices.

    An edge with port size ps and coefficient beta contributes
    ``(2 - beta) * ps``.  Node order is the graph's: ASes are nodes
    ``0 .. g.n_as - 1``.
    """
    A = (g.W + g.W.T).tocsr()
    A.sort_indices()
    return A


@dataclass(frozen=True)
class Partition:
    """Node communities (contiguous ids from 0) and the achieved modularity.

    ``communities`` is aligned with the nodes of the partitioned matrix.
    ``history`` records the modularity after each aggregation pass; it is
    non-decreasing.
    """

    communities: np.ndarray
    modularity: float
    history: tuple[float, ...]

    @property
    def n_communities(self) -> int:
        return int(self.communities.max()) + 1 if self.communities.size else 0


def modularity(A: sparse.spmatrix, n_as: int, communities: np.ndarray) -> float:
    """Bipartite modularity of a partition of the symmetric matrix ``A``.

    Nodes ``0 .. n_as - 1`` are the AS side, the rest the IXP side.
    """
    k = np.asarray(A.sum(axis=1)).ravel()
    m = k.sum() / 2.0
    if m <= 0:
        return 0.0
    coo = A.tocoo()
    cross = (coo.row < n_as) & (coo.col >= n_as)  # each undirected edge once
    same = communities[coo.row] == communities[coo.col]
    edge_term = float(coo.data[cross & same].sum())

    n_comm = int(communities.max()) + 1
    mass_as = np.bincount(communities[:n_as], weights=k[:n_as], minlength=n_comm)
    mass_ixp = np.bincount(communities[n_as:], weights=k[n_as:], minlength=n_comm)
    null_term = float((mass_as * mass_ixp).sum()) / m
    return (edge_term - null_term) / m


def _first_seen(keys: np.ndarray) -> np.ndarray:
    """Number the distinct keys 0, 1, ... in the order of their first appearance."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    number = np.empty(first.size, dtype=np.int64)
    number[np.argsort(first)] = np.arange(first.size)
    return number[inverse]


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
    # Degree mass per community, one list per node side.
    mass = [
        np.bincount(init_comm[side == s], weights=k[side == s], minlength=n).tolist()
        for s in (0, 1)
    ]
    # Python lists: indexing them one element at a time is far cheaper
    # than indexing numpy arrays, and the float arithmetic is the same.
    indptr, indices, data = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    k, side, comm = k.tolist(), side.tolist(), init_comm.tolist()
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
    return np.array(comm, dtype=np.int64), any_move


def _aggregate(
    A: sparse.csr_matrix,
    side: np.ndarray,
    comm: np.ndarray,
) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse each (community, side) pair into one super node.

    Keeping the two sides separate preserves the bipartite structure, the
    side degrees and therefore the modularity of any coarser partition.
    Super nodes are numbered by the first node of each pair, keyed
    ``2 * comm + side``.  Returns the aggregated matrix, the side of each
    super node, the node -> super node map and the community each super
    node came from (the starting assignment of the next level).
    """
    from scipy import sparse

    node_map = _first_seen(2 * comm + side)
    n_super = int(node_map.max()) + 1
    coo = A.tocoo()
    agg = sparse.csr_matrix(
        (coo.data, (node_map[coo.row], node_map[coo.col])),
        shape=(n_super, n_super),
    )
    agg.sum_duplicates()
    agg.sort_indices()
    new_side = np.empty(n_super, dtype=np.int64)
    new_side[node_map] = side
    origin_comm = np.empty(n_super, dtype=np.int64)
    origin_comm[node_map] = comm
    return agg, new_side, node_map, origin_comm


def louvain_bipartite(
    A: sparse.spmatrix,
    n_as: int,
    seed: int = 0,
    shuffle: bool = False,
) -> Partition:
    """Greedy Louvain with bipartite modularity on the symmetric matrix ``A``.

    Nodes ``0 .. n_as - 1`` are the AS side, the rest the IXP side.  The
    visit order is ascending node id by default; ``shuffle=True``
    randomizes it with ``seed`` for robustness studies.  Passes alternate
    local moves and community aggregation until a pass produces no merge.
    Communities are numbered by their first node.
    """
    n = A.shape[0]
    level = A.tocsr().astype(np.float64)
    side = (np.arange(n) >= n_as).astype(np.int64)
    m = float(level.sum()) / 2.0

    node_of = np.arange(n)  # original node -> current-level node
    if m <= 0:
        return Partition(communities=node_of, modularity=0.0, history=(0.0,))

    rng = random.Random(seed)
    history: list[float] = []
    init_comm = node_of.copy()
    while True:
        k = np.asarray(level.sum(axis=1)).ravel()
        order = list(range(level.shape[0]))
        if shuffle:
            rng.shuffle(order)
        comm, moved = _local_moves(level, side, k, m, order, init_comm)
        comm = _first_seen(comm)
        final = comm[node_of]
        history.append(modularity(A, n_as, final))
        if not moved:
            break
        level, side, node_map, init_comm = _aggregate(level, side, comm)
        node_of = node_map[node_of]

    return Partition(communities=final, modularity=history[-1], history=tuple(history))


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
    ixp_capacity = g.capacity[g.n_as :]
    total_capacity = float(ixp_capacity.sum())
    total_ixps = g.n_ixp

    n_comm = partition.n_communities
    as_comm = partition.communities[: g.n_as]
    ixp_comm = partition.communities[g.n_as :]
    as_count = np.bincount(as_comm, minlength=n_comm).tolist()
    ixp_count = np.bincount(ixp_comm, minlength=n_comm).tolist()
    capacity = np.bincount(ixp_comm, weights=ixp_capacity, minlength=n_comm).tolist()
    countries = [Counter() for _ in range(n_comm)]
    for c, country in zip(ixp_comm.tolist(), g.ixp_country):
        if country:
            countries[c][country] += 1

    profiles = []
    for c in range(n_comm):
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

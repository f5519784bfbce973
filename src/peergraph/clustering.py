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

Every entry of ``A`` joins an AS to an IXP, and aggregation keeps it so.
A node's gain then reads only the other side, so each sweep decides all
AS moves at once and then all IXP moves, bit-equal to visiting the nodes
one at a time in ascending order.  A node takes the first community, in
ascending id, whose gain beats the best so far (from 0) by ``_GAIN_EPS``;
on ties it stays.  Communities are numbered by first appearance.

scipy is imported where a sparse matrix is built (:func:`symmetrize` and
:func:`_aggregate`).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import PeeringGraph

if TYPE_CHECKING:
    from scipy import sparse

_GAIN_EPS = 1e-12


def symmetrize(g: PeeringGraph) -> sparse.csr_matrix:
    """The undirected weights ``A = W + W^T`` as CSR with sorted indices.

    Each edge puts the sum of its two directed weights at (AS, IXP) and at
    (IXP, AS): an edge with port size ps and coefficient beta contributes
    ``(2 - beta) * ps``.  Node order is the graph's: ASes are nodes
    ``0 .. g.n_as - 1``.
    """
    from scipy import sparse

    into_as, into_ixp = g.edge_weights(g.beta)
    weight = into_as + into_ixp
    rows = np.concatenate([g.edge_as, g.edge_ixp])
    cols = np.concatenate([g.edge_ixp, g.edge_as])
    n = g.n_nodes
    A = sparse.csr_matrix((np.concatenate([weight, weight]), (rows, cols)), shape=(n, n))
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
    n_first: int,
    k: np.ndarray,
    m: float,
    init_comm: np.ndarray,
    max_sweeps: int = 1_000,
) -> tuple[np.ndarray, bool]:
    """One Louvain level: greedy single-node moves until none improves.

    Nodes ``0 .. n_first - 1`` are one side and the rest the other.  Each
    sweep decides a whole side from the state before any of its nodes
    moves, with the float operations of a node-at-a-time loop: link weights
    summed per (node, community) in CSR order, and the mass updates in node
    order through one ``np.add.at``.  The ``_GAIN_EPS`` scan runs in rounds,
    each giving every node its first community that beats its best gain so
    far.  Starts from ``init_comm``; gains are unscaled (modularity gain
    times m).  Returns the assignment and whether any move happened.
    """
    n = A.shape[0]
    comm = init_comm.copy()
    sides = ((0, n_first), (n_first, n))
    mass = [np.bincount(comm[lo:hi], weights=k[lo:hi], minlength=n) for lo, hi in sides]
    any_move = False
    for _ in range(max_sweeps):
        moved = False
        for own, (lo, hi) in enumerate(sides):
            span = slice(A.indptr[lo], A.indptr[hi])
            node = np.repeat(np.arange(lo, hi), np.diff(A.indptr[lo : hi + 1]))
            key, pair = np.unique(node * n + comm[A.indices[span]], return_inverse=True)
            link = np.bincount(pair, weights=A.data[span])
            node, cand = np.divmod(key, n)
            stay = cand == comm[node]
            base_link = np.zeros(n)
            base_link[node[stay]] = link[stay]
            kn, opp = k[node], mass[1 - own]
            gain = (link - base_link[node]) - (kn * opp[cand] / m - kn * opp[comm[node]] / m)
            best_gain, best = np.zeros(n), comm.copy()
            live = np.flatnonzero(~stay)
            while True:
                live = live[gain[live] > best_gain[node[live]] + _GAIN_EPS]
                if not live.size:
                    break
                first = live[np.diff(node[live], prepend=-1) != 0]
                best_gain[node[first]] = gain[first]
                best[node[first]] = cand[first]
            movers = lo + np.flatnonzero(best[lo:hi] != comm[lo:hi])
            if movers.size:
                steps = np.column_stack([comm[movers], best[movers]]).ravel()
                np.add.at(mass[own], steps, np.column_stack([-k[movers], k[movers]]).ravel())
                comm[movers] = best[movers]
                moved = any_move = True
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


def louvain_bipartite(A: sparse.spmatrix, n_as: int) -> Partition:
    """Greedy Louvain with bipartite modularity on the symmetric matrix ``A``.

    Nodes ``0 .. n_as - 1`` are the AS side, the rest the IXP side; an
    entry between two nodes of one side raises ``ValueError``.  Passes
    alternate local moves and community aggregation until a pass produces
    no move.  Communities are numbered by their first node.
    """
    level = A.tocsr().astype(np.float64)
    n = level.shape[0]
    if level.shape[1] != n:
        raise ValueError(f"A must be square, got shape {level.shape}")
    row = np.repeat(np.arange(n), np.diff(level.indptr))
    same = np.flatnonzero((row < n_as) == (level.indices < n_as))
    if same.size:
        i, j = row[same[0]], level.indices[same[0]]
        raise ValueError(f"A[{i}, {j}] joins two nodes of the same side")
    side = (np.arange(n) >= n_as).astype(np.int64)
    m = float(level.sum()) / 2.0

    node_of = np.arange(n)  # original node -> current-level node
    if m <= 0:
        return Partition(communities=node_of, modularity=0.0, history=(0.0,))

    history: list[float] = []
    init_comm = node_of.copy()
    while True:
        k = np.asarray(level.sum(axis=1)).ravel()
        n_first = int(np.count_nonzero(side == 0))  # aggregation keeps ASes first
        comm, moved = _local_moves(level, n_first, k, m, init_comm)
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

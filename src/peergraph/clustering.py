"""Community detection on the AS-IXP edge list with bipartite modularity.

Each edge weighs the sum of its two directed weights (:func:`cross_weights`).
A greedy Louvain scheme (Blondel et al. 2008) optimizes the bipartite
(two-mode) modularity of Barber (2007)

    Q = (1/m) * sum over AS-IXP pairs in the same community of
        (w[i, j] - k_i * d_j / m)

where ``w`` is the edge weight (0 off the edges), ``k`` and ``d`` are the
weighted degrees of the two sides and ``m`` is the total edge weight.  The
null model only allows cross-side pairs, so same-side co-membership neither
costs nor rewards.

Every level is such an edge list: strictly ascending (AS, IXP) node pairs,
each once, with the ASes numbered first.  The AS side's rows are the edges
in that order, the IXP side's rows the edges sorted by (IXP, AS).  A degree
is the ``np.add.reduceat`` of its row and ``m`` half the ``np.sum`` of the
AS rows' weights then the IXP rows', the order of a CSR matrix's row sums
and total.  A super edge is the ``bincount`` of its edges in edge order.

A node's gain reads only the other side, so each sweep decides all AS
moves at once and then all IXP moves, bit-equal to visiting the nodes one
at a time in ascending order.  A node takes the first community, in
ascending id, whose gain beats the best so far (from 0) by ``_GAIN_EPS``;
on ties it stays.  Communities are numbered by first appearance.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import PeeringGraph

_GAIN_EPS = 1e-12


def cross_weights(g: PeeringGraph) -> np.ndarray:
    """The undirected weight ``into_as + into_ixp`` of every edge, in edge order.

    An edge with port size ps and coefficient beta weighs ``(2 - beta) * ps``.
    """
    into_as, into_ixp = g.edge_weights(g.beta)
    return into_as + into_ixp


@dataclass(frozen=True)
class Partition:
    """Node communities (contiguous ids from 0) and the achieved modularity.

    ``communities`` is aligned with the nodes of the partitioned edge list:
    the ASes ``0 .. n_as - 1``, then the IXPs.  ``history`` records the
    modularity after each aggregation pass; it is non-decreasing.
    """

    communities: np.ndarray
    modularity: float
    history: tuple[float, ...]

    @property
    def n_communities(self) -> int:
        return int(self.communities.max()) + 1 if self.communities.size else 0


def _rows(edge_as: np.ndarray, edge_ixp: np.ndarray, weight: np.ndarray) -> tuple:
    """The (node, neighbour, weight) rows of the AS side and of the IXP side."""
    by_ixp = np.lexsort((edge_as, edge_ixp))
    return (edge_as, edge_ixp, weight), (edge_ixp[by_ixp], edge_as[by_ixp], weight[by_ixp])


def _degrees(rows: tuple, n: int) -> np.ndarray:
    """The weighted degree of each of ``n`` nodes, one ``np.add.reduceat`` per side."""
    k = np.zeros(n)
    for node, _, weight in rows:
        start = np.flatnonzero(np.diff(node, prepend=-1))
        k[node[start]] = np.add.reduceat(weight, start)
    return k


def modularity(edge_as, edge_ixp, weight, n_as: int, communities: np.ndarray) -> float:
    """Bipartite modularity of a partition of the ascending (AS, IXP) edges.

    Nodes ``0 .. n_as - 1`` are the AS side, the rest of ``communities`` the IXP side.
    """
    k = _degrees(_rows(edge_as, edge_ixp, weight), communities.size)
    m = k.sum() / 2.0
    if m <= 0:
        return 0.0
    edge_term = float(weight[communities[edge_as] == communities[edge_ixp]].sum())

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
    rows: tuple, n_first: int, k: np.ndarray, m: float, init_comm: np.ndarray,
    max_sweeps: int = 1_000,
) -> tuple[np.ndarray, bool]:
    """One Louvain level: greedy single-node moves until none improves.

    ``rows`` are the two sides' (node, neighbour, weight) rows from
    :func:`_rows`; nodes ``0 .. n_first - 1`` are the AS side and the rest
    the IXP side.  Each sweep decides a whole side from the state before
    any of its nodes moves, with the float operations of a node-at-a-time
    loop: link weights summed per (node, community) in row order, and the
    mass updates in node order through one ``np.add.at``.  The
    ``_GAIN_EPS`` scan runs in rounds, each giving every node its first
    community that beats its best gain so far.  Starts from ``init_comm``;
    gains are unscaled (modularity gain times m).  Returns the assignment
    and whether any move happened.
    """
    n = k.size
    comm = init_comm.copy()
    sides = ((0, n_first), (n_first, n))
    mass = [np.bincount(comm[lo:hi], weights=k[lo:hi], minlength=n) for lo, hi in sides]
    any_move = False
    for _ in range(max_sweeps):
        moved = False
        for own, ((lo, hi), (row, neighbour, weight)) in enumerate(zip(sides, rows)):
            key, pair = np.unique(row * n + comm[neighbour], return_inverse=True)
            link = np.bincount(pair, weights=weight)
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


def _aggregate(edges: tuple, side: np.ndarray, comm: np.ndarray) -> tuple:
    """Collapse each (community, side) pair into one super node.

    Keeping the two sides separate preserves the bipartite structure, the
    side degrees and therefore the modularity of any coarser partition.
    Super nodes are numbered by the first node of each pair, keyed
    ``2 * comm + side``, so the AS super nodes come first.  A super edge
    weighs the ``bincount`` of its edges' weights in edge order.  Returns
    the super edges as (AS, IXP, weight) in ascending (AS, IXP) order, the
    side of each super node, the node -> super node map and the community
    each super node came from (the starting assignment of the next level).
    """
    edge_as, edge_ixp, weight = edges
    node_map = _first_seen(2 * comm + side)
    n_super = int(node_map.max()) + 1
    key, pair = np.unique(node_map[edge_as] * n_super + node_map[edge_ixp], return_inverse=True)
    super_as, super_ixp = np.divmod(key, n_super)
    new_side = np.empty(n_super, dtype=np.int64)
    new_side[node_map] = side
    origin_comm = np.empty(n_super, dtype=np.int64)
    origin_comm[node_map] = comm
    return (super_as, super_ixp, np.bincount(pair, weights=weight)), new_side, node_map, origin_comm


def louvain_bipartite(edge_as, edge_ixp, weight, n_as: int, n_nodes: int) -> Partition:
    """Greedy Louvain with bipartite modularity on an AS-IXP edge list.

    Nodes ``0 .. n_as - 1`` are the AS side and ``n_as .. n_nodes - 1`` the
    IXP side.  The edges must be strictly ascending (AS, IXP) pairs, as a
    :class:`PeeringGraph` holds them; ``ValueError`` names the first edge
    that is not.  Passes alternate local moves and community aggregation
    until a pass produces no move.  Communities are numbered by their first
    node.
    """
    edge_as = np.asarray(edge_as, dtype=np.int64)
    edge_ixp = np.asarray(edge_ixp, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    bad = (edge_as < 0) | (edge_as >= n_as) | (edge_ixp < n_as) | (edge_ixp >= n_nodes)
    key = edge_as * n_nodes + edge_ixp
    bad[1:] |= key[1:] <= key[:-1]
    if bad.any():
        e = int(np.argmax(bad))
        raise ValueError(
            f"edge {e} = ({edge_as[e]}, {edge_ixp[e]}) is not a strictly ascending "
            f"(AS, IXP) pair with 0 <= AS < {n_as} <= IXP < {n_nodes}"
        )
    side = (np.arange(n_nodes) >= n_as).astype(np.int64)
    edges = (edge_as, edge_ixp, weight)
    rows = _rows(*edges)
    m = float(np.concatenate([rows[0][2], rows[1][2]]).sum()) / 2.0

    node_of = np.arange(n_nodes)  # original node -> current-level node
    if m <= 0:
        return Partition(communities=node_of, modularity=0.0, history=(0.0,))

    history: list[float] = []
    init_comm = node_of.copy()
    while True:
        n_first = int(np.count_nonzero(side == 0))  # aggregation keeps ASes first
        comm, moved = _local_moves(rows, n_first, _degrees(rows, side.size), m, init_comm)
        comm = _first_seen(comm)
        final = comm[node_of]
        history.append(modularity(edge_as, edge_ixp, weight, n_as, final))
        if not moved:
            break
        edges, side, node_map, init_comm = _aggregate(edges, side, comm)
        rows = _rows(*edges)
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

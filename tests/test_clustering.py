"""Symmetrization, bipartite-modularity Louvain, cluster profiles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from peergraph.clustering import (
    Partition,
    _aggregate,
    _first_seen,
    cluster_profiles,
    louvain_bipartite,
    modularity,
    symmetrize,
)
from peergraph.graph import build_graph
from peergraph.ingest import TrafficClass

from conftest import make_snapshot, random_snapshot
from oracles import (
    best_partition_exhaustive,
    bipartite_modularity_direct,
    dict_aggregate,
    dict_first_seen,
    dict_louvain,
    loop_weight_matrix,
)
from test_graphio import BETAS

TC = TrafficClass


def as_mask(n_nodes: int, n_as: int) -> np.ndarray:
    """The AS side of a node order whose first ``n_as`` nodes are ASes."""
    return np.arange(n_nodes) < n_as


def biclique(as_ids, ixp_ids, weight=10.0):
    return [(a, x, weight) for a in as_ids for x in ixp_ids]


# --- symmetrization ---


def test_balanced_edge_doubles():
    snap = make_snapshot([(1, TC.BALANCED)], [(1, "DE")], [(1, 1, 10.0)])
    g = build_graph(snap)
    A = symmetrize(g)
    assert A[g.as_index(1), g.ixp_index(1)] == 20.0


def test_heavy_outbound_edge_sums_both_directions():
    snap = make_snapshot([(1, TC.HEAVY_OUTBOUND)], [(1, "DE")], [(1, 1, 100.0)])
    g = build_graph(snap)
    A = symmetrize(g)
    assert A[g.as_index(1), g.ixp_index(1)] == 100.0 + (1.0 - 0.95) * 100.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), beta=BETAS)
def test_symmetrization_is_exact(seed, beta):
    snap = random_snapshot(np.random.default_rng(seed))
    A = symmetrize(build_graph(snap, beta))
    Wl = loop_weight_matrix(snap, beta)
    expected = (Wl + Wl.T).tocsr()
    expected.sort_indices()
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, part), getattr(expected, part)), part
    assert (A != A.T).nnz == 0


# --- modularity evaluation ---


def test_modularity_matches_direct_evaluation():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = build_graph(random_snapshot(rng, max_as=10, max_ixp=5))
        A = symmetrize(g)
        communities = rng.integers(0, 3, size=g.n_nodes)
        mine = modularity(A, g.n_as, communities)
        oracle = bipartite_modularity_direct(
            A.toarray(), as_mask(g.n_nodes, g.n_as), communities
        )
        assert mine == pytest.approx(oracle, abs=1e-12)


# --- Louvain ---


def test_two_disconnected_bicliques_two_communities():
    snap = make_snapshot(
        [(1, TC.BALANCED), (2, TC.BALANCED), (3, TC.BALANCED), (4, TC.BALANCED)],
        [(101, "DE"), (102, "DE"), (103, "US"), (104, "US")],
        biclique([1, 2], [101, 102]) + biclique([3, 4], [103, 104]),
    )
    g = build_graph(snap)
    A = symmetrize(g)
    partition = louvain_bipartite(A, g.n_as)
    assert partition.n_communities == 2
    # communities must coincide with the connected components
    _, comps = connected_components(A, directed=False)
    for c in range(2):
        nodes = np.flatnonzero(partition.communities == c)
        assert len(set(comps[nodes])) == 1


def test_single_edge_modularity_consistent_with_brute_force():
    snap = make_snapshot([(1, TC.BALANCED)], [(1, "DE")], [(1, 1, 10.0)])
    g = build_graph(snap)
    A, is_as = symmetrize(g), as_mask(g.n_nodes, g.n_as)
    partition = louvain_bipartite(A, g.n_as)
    best_q, _ = best_partition_exhaustive(A.toarray(), is_as)
    # every partition of a single edge scores exactly zero
    assert best_q == pytest.approx(0.0, abs=1e-15)
    assert partition.modularity == pytest.approx(best_q, abs=1e-12)
    assert partition.modularity == pytest.approx(
        bipartite_modularity_direct(A.toarray(), is_as, partition.communities),
        abs=1e-12,
    )


def test_partition_ids_contiguous(fixture_graph):
    partition = louvain_bipartite(symmetrize(fixture_graph), fixture_graph.n_as)
    seen = set(int(c) for c in partition.communities)
    assert seen == set(range(partition.n_communities))
    assert partition.communities.shape[0] == fixture_graph.n_nodes


def test_modularity_non_decreasing_per_pass():
    rng = np.random.default_rng(22)
    for _ in range(20):
        g = build_graph(random_snapshot(rng, max_as=15, max_ixp=6))
        partition = louvain_bipartite(symmetrize(g), g.n_as)
        history = partition.history
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        assert partition.modularity == history[-1]


def test_louvain_deterministic(fixture_graph):
    A = symmetrize(fixture_graph)
    p1 = louvain_bipartite(A, fixture_graph.n_as, seed=0)
    p2 = louvain_bipartite(A, fixture_graph.n_as, seed=0)
    assert np.array_equal(p1.communities, p2.communities)
    assert p1.modularity == p2.modularity


def test_louvain_near_optimal_on_tiny_graphs():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n_as = int(rng.integers(1, 5))
        n_ixp = int(rng.integers(1, 9 - n_as))
        n = n_as + n_ixp
        A = np.zeros((n, n))
        for i in range(n_as):
            for j in range(n_as, n):
                if rng.random() < 0.6:
                    w = float(rng.integers(1, 10))
                    A[i, j] = A[j, i] = w
        if A.sum() == 0:
            continue
        partition = louvain_bipartite(sparse.csr_matrix(A), n_as)
        best_q, _ = best_partition_exhaustive(A, as_mask(n, n_as))
        assert partition.modularity >= 0.95 * best_q - 1e-12


def test_shuffled_order_still_valid(fixture_graph):
    g = fixture_graph
    A = symmetrize(g)
    partition = louvain_bipartite(A, g.n_as, seed=3, shuffle=True)
    direct = bipartite_modularity_direct(
        A.toarray(), as_mask(g.n_nodes, g.n_as), partition.communities
    )
    assert partition.modularity == pytest.approx(direct, abs=1e-12)


@st.composite
def bipartite_matrices(draw):
    """A symmetric AS-IXP matrix and its AS count.

    Either the symmetrized graph of a ``random_snapshot`` or a dense matrix
    of small integer weights, whose few weight levels make equal gains
    common.
    """
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = build_graph(random_snapshot(rng, max_as=50, max_ixp=15))
        return symmetrize(g), g.n_as
    n_as, n_ixp = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    cross = draw(arrays(np.int64, (n_as, n_ixp), elements=st.integers(0, 3)))
    A = np.zeros((n_as + n_ixp, n_as + n_ixp))
    A[:n_as, n_as:] = cross
    A[n_as:, :n_as] = cross.T
    return sparse.csr_matrix(A), n_as


@settings(max_examples=150, deadline=None)
@given(bipartite_matrices(), st.booleans(), st.integers(0, 7))
def test_louvain_matches_dict_oracle(matrix, shuffle, seed):
    A, n_as = matrix
    partition = louvain_bipartite(A, n_as, seed=seed, shuffle=shuffle)
    communities, q, history = dict_louvain(A, n_as, seed=seed, shuffle=shuffle)
    assert partition.communities.dtype == np.int64
    assert partition.communities.tolist() == communities.tolist()
    assert partition.history == history
    assert partition.modularity == q


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_aggregate_matches_dict_numbering(data):
    n = data.draw(st.integers(1, 30))
    comm = data.draw(arrays(np.int64, n, elements=st.integers(0, 6)))
    side = data.draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    weights = data.draw(arrays(np.int64, (n, n), elements=st.integers(0, 3)))
    A = sparse.csr_matrix((weights + weights.T).astype(np.float64))
    assert _first_seen(comm).tolist() == dict_first_seen(comm.tolist()).tolist()
    agg, new_side, node_map, origin_comm = _aggregate(A, side, comm)
    ref_agg, ref_side, ref_map, ref_comm = dict_aggregate(A, side, comm)
    assert agg.shape == ref_agg.shape
    for part in ("indptr", "indices", "data"):
        assert getattr(agg, part).tolist() == getattr(ref_agg, part).tolist()
    assert new_side.tolist() == ref_side.tolist()
    assert node_map.tolist() == ref_map.tolist()
    assert origin_comm.tolist() == ref_comm.tolist()


# --- cluster profiles ---


def test_single_community_gets_all_shares(fixture_graph):
    # force everything into one community
    single = Partition(
        communities=np.zeros(fixture_graph.n_nodes, dtype=np.int64),
        modularity=0.0,
        history=(0.0,),
    )
    profiles = cluster_profiles(single, fixture_graph)
    assert len(profiles) == 1
    assert profiles[0].capacity_share_pct == pytest.approx(100.0)
    assert profiles[0].ixp_share_pct == pytest.approx(100.0)


def test_capacity_split_shares():
    # two disconnected bicliques with IXP capacity 30 vs 70
    snap = make_snapshot(
        [(1, TC.BALANCED), (2, TC.BALANCED)],
        [(101, "DE"), (102, "US")],
        [(1, 101, 30.0), (2, 102, 70.0)],
    )
    g = build_graph(snap)
    partition = louvain_bipartite(symmetrize(g), g.n_as)
    profiles = cluster_profiles(partition, g)
    shares = sorted(p.capacity_share_pct for p in profiles)
    assert shares == [pytest.approx(30.0), pytest.approx(70.0)]
    assert profiles[0].capacity_share_pct >= profiles[-1].capacity_share_pct


def test_profile_shares_sum_to_hundred(fixture_graph):
    partition = louvain_bipartite(symmetrize(fixture_graph), fixture_graph.n_as)
    profiles = cluster_profiles(partition, fixture_graph)
    assert sum(p.capacity_share_pct for p in profiles) == pytest.approx(100.0, abs=1e-9)
    assert sum(p.ixp_share_pct for p in profiles) == pytest.approx(100.0, abs=1e-9)


def test_profile_country_tables(fixture_graph):
    partition = louvain_bipartite(symmetrize(fixture_graph), fixture_graph.n_as)
    profiles = cluster_profiles(partition, fixture_graph)
    total_ixps = sum(p.n_ixps for p in profiles)
    assert total_ixps == fixture_graph.n_ixp
    for p in profiles:
        assert p.n_countries == len(p.country_counts)
        assert sum(n for _, n in p.country_counts) <= p.n_ixps

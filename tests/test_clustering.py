"""Edge weights, bipartite-modularity Louvain, cluster profiles."""
from __future__ import annotations

import re

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
    cross_weights,
    louvain_bipartite,
    modularity,
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


def symmetric_matrix(snap, g) -> sparse.csr_matrix:
    """``W + W^T`` of the graph ``g`` of ``snap``, from the loop-built ``W``."""
    Wl = loop_weight_matrix(snap, g.beta)
    return (Wl + Wl.T).tocsr()


def cross_edges(A, n_as: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (AS, IXP, weight) edges of a symmetric AS-IXP matrix, sorted by (AS, IXP).

    Nodes ``0 .. n_as - 1`` are the ASes; each edge is read from the AS row.
    """
    block = sparse.csr_matrix(A[:n_as, n_as:])
    block.sort_indices()
    coo = block.tocoo()
    return coo.row.astype(np.int64), n_as + coo.col.astype(np.int64), coo.data


def louvain_of(g) -> Partition:
    return louvain_bipartite(g.edge_as, g.edge_ixp, cross_weights(g), g.n_as, g.n_nodes)


# --- edge weights ---


def test_balanced_edge_doubles():
    snap = make_snapshot([(1, TC.BALANCED)], [(1, "DE")], [(1, 1, 10.0)])
    g = build_graph(snap)
    assert cross_weights(g).tolist() == [20.0]
    assert symmetric_matrix(snap, g)[g.as_index(1), g.ixp_index(1)] == 20.0


def test_heavy_outbound_edge_sums_both_directions():
    snap = make_snapshot([(1, TC.HEAVY_OUTBOUND)], [(1, "DE")], [(1, 1, 100.0)])
    g = build_graph(snap)
    assert cross_weights(g).tolist() == [100.0 + (1.0 - 0.95) * 100.0]
    assert symmetric_matrix(snap, g)[g.as_index(1), g.ixp_index(1)] == cross_weights(g)[0]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), beta=BETAS)
def test_symmetrization_is_exact(seed, beta):
    snap = random_snapshot(np.random.default_rng(seed))
    g = build_graph(snap, beta)
    Wl = loop_weight_matrix(snap, beta)
    expected = (Wl + Wl.T).tocsr()
    assert expected.nnz == 2 * g.n_edges  # only the edges carry weight
    weight = cross_weights(g)
    assert weight.dtype == np.float64
    assert np.array_equal(weight, np.asarray(expected[g.edge_as, g.edge_ixp]).ravel())


# --- modularity evaluation ---


def test_modularity_matches_direct_evaluation():
    rng = np.random.default_rng(21)
    for _ in range(10):
        snap = random_snapshot(rng, max_as=10, max_ixp=5)
        g = build_graph(snap)
        communities = rng.integers(0, 3, size=g.n_nodes)
        mine = modularity(g.edge_as, g.edge_ixp, cross_weights(g), g.n_as, communities)
        oracle = bipartite_modularity_direct(
            symmetric_matrix(snap, g).toarray(), as_mask(g.n_nodes, g.n_as), communities
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
    A = symmetric_matrix(snap, g)
    partition = louvain_of(g)
    assert partition.n_communities == 2
    # communities must coincide with the connected components
    _, comps = connected_components(A, directed=False)
    for c in range(2):
        nodes = np.flatnonzero(partition.communities == c)
        assert len(set(comps[nodes])) == 1


def test_single_edge_modularity_consistent_with_brute_force():
    snap = make_snapshot([(1, TC.BALANCED)], [(1, "DE")], [(1, 1, 10.0)])
    g = build_graph(snap)
    A, is_as = symmetric_matrix(snap, g), as_mask(g.n_nodes, g.n_as)
    partition = louvain_of(g)
    best_q, _ = best_partition_exhaustive(A.toarray(), is_as)
    # every partition of a single edge scores exactly zero
    assert best_q == pytest.approx(0.0, abs=1e-15)
    assert partition.modularity == pytest.approx(best_q, abs=1e-12)
    assert partition.modularity == pytest.approx(
        bipartite_modularity_direct(A.toarray(), is_as, partition.communities),
        abs=1e-12,
    )


def test_partition_ids_contiguous(fixture_graph):
    partition = louvain_of(fixture_graph)
    seen = set(int(c) for c in partition.communities)
    assert seen == set(range(partition.n_communities))
    assert partition.communities.shape[0] == fixture_graph.n_nodes


def test_modularity_non_decreasing_per_pass():
    rng = np.random.default_rng(22)
    for _ in range(20):
        g = build_graph(random_snapshot(rng, max_as=15, max_ixp=6))
        partition = louvain_of(g)
        history = partition.history
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        assert partition.modularity == history[-1]


def test_louvain_deterministic(fixture_graph):
    p1 = louvain_of(fixture_graph)
    p2 = louvain_of(fixture_graph)
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
        partition = louvain_bipartite(*cross_edges(A, n_as), n_as, n)
        best_q, _ = best_partition_exhaustive(A, as_mask(n, n_as))
        assert partition.modularity >= 0.95 * best_q - 1e-12


@st.composite
def bipartite_matrices(draw):
    """A symmetric AS-IXP matrix and its AS count.

    Either ``W + W^T`` of a ``random_snapshot`` graph or a dense matrix
    of small integer weights, whose few weight levels make equal gains
    common.
    """
    if draw(st.booleans()):
        snap = random_snapshot(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                               max_as=50, max_ixp=15)
        g = build_graph(snap)
        return symmetric_matrix(snap, g), g.n_as
    n_as, n_ixp = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    cross = draw(arrays(np.int64, (n_as, n_ixp), elements=st.integers(0, 3)))
    A = np.zeros((n_as + n_ixp, n_as + n_ixp))
    A[:n_as, n_as:] = cross
    A[n_as:, :n_as] = cross.T
    return sparse.csr_matrix(A), n_as


def assert_matches_dict_oracle(A, n_as):
    partition = louvain_bipartite(*cross_edges(A, n_as), n_as, A.shape[0])
    communities, q, history = dict_louvain(A, n_as)
    assert partition.communities.dtype == np.int64
    assert partition.communities.tolist() == communities.tolist()
    assert partition.history == history
    assert partition.modularity == q


@settings(max_examples=150, deadline=None)
@given(bipartite_matrices())
def test_louvain_matches_dict_oracle(matrix):
    assert_matches_dict_oracle(*matrix)


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_louvain_matches_dict_oracle_on_long_sides(seed):
    # 1,600 to 2,600 ASes, so each side is one long run of rows.
    snap = random_snapshot(np.random.default_rng(seed), max_as=3000, max_ixp=200)
    g = build_graph(snap)
    assert_matches_dict_oracle(symmetric_matrix(snap, g), g.n_as)


@pytest.mark.parametrize("seed", [306698232, 1670592131, 1537685136])
def test_each_super_edge_is_summed_once(seed):
    # Graphs with a single-IXP star, on which every partition has modularity
    # exactly 0 and moves follow rounding: a super edge whose two entries
    # were summed apart, in different orders, moves the partition.
    snap = random_snapshot(np.random.default_rng(seed), max_as=50, max_ixp=15)
    g = build_graph(snap)
    assert_matches_dict_oracle(symmetric_matrix(snap, g), g.n_as)


def test_gains_within_the_margin_of_each_other_keep_the_first():
    # AS 0 links to IXPs 5, 6 and 7, which link to ASes 1, 2 and 3 with
    # weights 1 and just below 1; AS 4 and IXP 8 add mass.  AS 0's first move has gains g,
    # g + 1.5e-12 and g + 2.2e-12 (g = 0.94): IXP 6 beats IXP 5 by more than
    # _GAIN_EPS, and IXP 7 does not beat IXP 6 by that much.
    A = np.zeros((9, 9))
    for j, weight in enumerate([1.0, 1.0 - 5.3e-11, 1.0 - 5.3e-11 * 2.2 / 1.5]):
        A[0, 5 + j] = A[5 + j, 0] = 1.0
        A[1 + j, 5 + j] = A[5 + j, 1 + j] = weight
    A[4, 8] = A[8, 4] = 100.0
    A = sparse.csr_matrix(A)
    assert_matches_dict_oracle(A, 5)
    communities = louvain_bipartite(*cross_edges(A, 5), 5, 9).communities
    assert communities[0] == communities[6] != communities[7]


@pytest.mark.parametrize(
    "edges, bad",
    [
        ([(0, 1), (1, 4)], "edge 0 = (0, 1)"),
        ([(0, 3), (3, 4)], "edge 1 = (3, 4)"),
        ([(0, 3), (2, 2)], "edge 1 = (2, 2)"),
        ([(0, 3), (1, 5)], "edge 1 = (1, 5)"),
        ([(0, 3), (0, 3), (1, 4)], "edge 1 = (0, 3)"),
        ([(1, 3), (0, 4)], "edge 1 = (0, 4)"),
        ([(-1, 3), (0, 3)], "edge 0 = (-1, 3)"),
    ],
    ids=["as-as", "ixp-ixp", "diagonal", "not-square", "repeated-pair", "out-of-order",
         "negative"],
)
def test_matrix_the_kernel_is_not_exact_on_is_refused(edges, bad):
    # The edges of the AS-IXP block of a 5 x 5 matrix: nodes 0-2 are ASes
    # and 3-4 IXPs.  "not-square" is a column past the last node.
    edge_as, edge_ixp = np.array(edges).T
    message = f"{bad} is not a strictly ascending (AS, IXP) pair with 0 <= AS < 3 <= IXP < 5"
    with pytest.raises(ValueError, match=re.escape(message)):
        louvain_bipartite(edge_as, edge_ixp, np.full(len(edges), 5.0), 3, 5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_aggregate_matches_dict_numbering(data):
    # The kernel's levels hold the ASes first, so the drawn cross block does too.
    n_as, n_ixp = data.draw(st.integers(1, 15)), data.draw(st.integers(1, 15))
    n = n_as + n_ixp
    comm = data.draw(arrays(np.int64, n, elements=st.integers(0, 6)))
    side = (np.arange(n) >= n_as).astype(np.int64)
    cross = data.draw(arrays(np.int64, (n_as, n_ixp), elements=st.integers(0, 3)))
    A = np.zeros((n, n))
    A[:n_as, n_as:] = cross
    A[n_as:, :n_as] = cross.T
    A = sparse.csr_matrix(A)
    assert _first_seen(comm).tolist() == dict_first_seen(comm.tolist()).tolist()
    edges, new_side, node_map, origin_comm = _aggregate(cross_edges(A, n_as), side, comm)
    ref_agg, ref_side, ref_map, ref_comm = dict_aggregate(A, side, comm)
    ref_edges = cross_edges(ref_agg, int(np.count_nonzero(ref_side == 0)))
    for mine, ref in zip(edges, ref_edges, strict=True):
        assert mine.tolist() == ref.tolist()
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
    partition = louvain_of(g)
    profiles = cluster_profiles(partition, g)
    shares = sorted(p.capacity_share_pct for p in profiles)
    assert shares == [pytest.approx(30.0), pytest.approx(70.0)]
    assert profiles[0].capacity_share_pct >= profiles[-1].capacity_share_pct


def test_profile_shares_sum_to_hundred(fixture_graph):
    partition = louvain_of(fixture_graph)
    profiles = cluster_profiles(partition, fixture_graph)
    assert sum(p.capacity_share_pct for p in profiles) == pytest.approx(100.0, abs=1e-9)
    assert sum(p.ixp_share_pct for p in profiles) == pytest.approx(100.0, abs=1e-9)


def test_profile_country_tables(fixture_graph):
    partition = louvain_of(fixture_graph)
    profiles = cluster_profiles(partition, fixture_graph)
    total_ixps = sum(p.n_ixps for p in profiles)
    assert total_ixps == fixture_graph.n_ixp
    for p in profiles:
        assert p.n_countries == len(p.country_counts)
        assert sum(n for _, n in p.country_counts) <= p.n_ixps

"""Google matrix, PageRank, stochastic complementation, temporal change."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peergraph.errors import CensorError, ConvergenceError, SubsetMismatchError
from peergraph.graph import BetaParams, _assemble, build_graph
from peergraph.ingest import TrafficClass
from peergraph.spectral import (
    GoogleMatrix,
    ReducedGoogleMatrix,
    censor_diagonal,
    google_matrix,
    pagerank,
    rank_positions,
    rank_table,
    reduced_google_matrix,
    relative_change,
)

from conftest import ALL_CLASSES, make_snapshot, node_columns, random_graph, random_snapshot
from oracles import (
    dense_google,
    dense_pagerank,
    dense_reduction,
    jacobi_pagerank,
    row_rank_table,
    sorted_rank_positions,
)

TC = TrafficClass

# A beta of 1 leaves one direction of a class's edges without weight, so the
# ASes of those classes dangle in one direction or the other.
BETAS = (BetaParams(), BetaParams(balanced=1.0), BetaParams(mostly=1.0, heavy=1.0))

# Inbound and outbound classes swapped: at the default beta (balanced 0) the
# swap gives every edge's two weights to each other, which inverts every link.
MIRROR = {
    TC.HEAVY_INBOUND: TC.HEAVY_OUTBOUND,
    TC.HEAVY_OUTBOUND: TC.HEAVY_INBOUND,
    TC.MOSTLY_INBOUND: TC.MOSTLY_OUTBOUND,
    TC.MOSTLY_OUTBOUND: TC.MOSTLY_INBOUND,
}


def one_edge_graph():
    """AS10 -> IX1 only: a heavy-outbound AS at beta_heavy = 1 sends nothing back."""
    snap = make_snapshot([(10, TC.HEAVY_OUTBOUND)], [(1, "DE")], [(10, 1, 5.0)])
    return build_graph(snap, BetaParams(heavy=1.0))


def complete_graph():
    """Three balanced ASes on three IXPs, every port of the same size."""
    return build_graph(make_snapshot(
        [(a, TC.BALANCED) for a in (10, 20, 30)],
        [(x, "DE") for x in (1, 2, 3)],
        [(a, x, 100.0) for a in (10, 20, 30) for x in (1, 2, 3)],
    ))


def mirrored(snap):
    codes = np.array([ALL_CLASSES.index(MIRROR.get(tc, tc)) for tc in ALL_CLASSES], dtype=np.int8)
    return replace(snap, as_class=codes[snap.as_class])


def dense_weights(g, direction: str = "forward", beta: BetaParams | None = None) -> np.ndarray:
    """The graph's weight matrix, transposed for ``direction="reverse"``."""
    W = replace(g, beta=beta or g.beta).W.toarray()
    return W if direction == "forward" else W.T


def dense(G: GoogleMatrix) -> np.ndarray:
    """``G`` as a dense matrix, from its normalized weights and dangling columns."""
    return G.alpha * G.normalized_weights.toarray() + (G.alpha * G.dangling + 1 - G.alpha) / G.N


# --- Google matrix ---


def test_two_node_entries():
    g = one_edge_graph()
    D = dense(google_matrix(g, alpha=0.85))
    assert g.labels == ("AS10", "IX1")
    assert D[1, 0] == pytest.approx(0.925, abs=1e-15)
    assert D[0, 0] == pytest.approx(0.075, abs=1e-15)
    # IX1 is dangling: its column is uniform before and after damping
    assert np.allclose(D[:, 1], [0.5, 0.5], atol=1e-15)


def test_alpha_zero_is_uniform():
    g = random_graph(np.random.default_rng(0))
    assert np.allclose(dense(google_matrix(g, alpha=0.0)), 1.0 / g.n_nodes, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    """The graph refuses a non-finite port size, so no operator is built over one."""
    g = one_edge_graph()
    with pytest.raises(ValueError, match="finite"):
        _assemble(*node_columns(g), [10], [1], [bad], g.beta, g.date)


def test_alpha_out_of_range():
    g = random_graph(np.random.default_rng(0))
    with pytest.raises(ValueError):
        google_matrix(g, alpha=1.0)
    with pytest.raises(ValueError):
        google_matrix(g, alpha=-0.1)


def test_columns_sum_to_one():
    rng = np.random.default_rng(3)
    for trial in range(10):
        g = build_graph(random_snapshot(rng), BETAS[trial % 3])
        for direction in ("forward", "reverse"):
            D = dense(google_matrix(g, direction=direction))
            assert np.abs(D.sum(axis=0) - 1.0).max() < 1e-12


def test_operator_matches_dense():
    snap = random_snapshot(np.random.default_rng(4))
    for beta in BETAS:
        g = build_graph(snap, beta)
        for direction in ("forward", "reverse"):
            G = google_matrix(g, 0.85, direction)
            W = dense_weights(g, direction)
            assert np.abs(dense(G) - dense_google(W, 0.85)).max() < 1e-14
            assert np.array_equal(G.dangling, W.sum(axis=0) == 0)
            # The stored blocks are the column-normalized weights between the sides.
            S = W / np.where(W.sum(axis=0) > 0, W.sum(axis=0), 1.0)
            n_as = g.n_as
            assert np.abs(G.to_ixp.toarray() - S[n_as:, :n_as]).max() < 1e-15
            assert np.abs(G.to_as.toarray() - S[:n_as, n_as:]).max() < 1e-15


# --- PageRank ---


def test_uniform_on_symmetric_complete_graph():
    pr = pagerank(google_matrix(complete_graph()), tol=1e-12)
    assert np.abs(pr.P - 1.0 / 6).max() < 1e-12
    assert abs(pr.P.sum() - 1.0) < 1e-12


def test_two_node_matches_dense_eigenvector():
    G = google_matrix(one_edge_graph())
    pr = pagerank(G, tol=1e-13)
    oracle = dense_pagerank(dense(G))
    assert np.abs(pr.P - oracle).sum() < 1e-10
    assert pr.residual < 1e-13 and pr.iterations >= 1


def test_reverse_equals_forward_on_inverted_graph():
    snap = random_snapshot(np.random.default_rng(5))
    a = pagerank(google_matrix(build_graph(snap), direction="reverse"), tol=1e-12)
    b = pagerank(google_matrix(build_graph(mirrored(snap)), direction="forward"), tol=1e-12)
    assert np.array_equal(a.P, b.P)


def test_nonconvergence_raises():
    g = random_graph(np.random.default_rng(6))
    with pytest.raises(ConvergenceError):
        pagerank(google_matrix(g), tol=1e-15, max_iter=2)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_pagerank_refuses_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        pagerank(google_matrix(random_graph(np.random.default_rng(6))), tol=tol)


def test_warm_start_reaches_the_same_fixed_point():
    g = random_graph(np.random.default_rng(4))
    G = google_matrix(g)
    cold = pagerank(G, tol=1e-13)
    again = pagerank(G, tol=1e-13, start=7.0 * cold.P)  # the start is normalized
    assert again.iterations <= 2
    assert np.abs(again.P - cold.P).max() < 1e-13

    nearby = BetaParams(balanced=0.05, mostly=0.8, heavy=0.97)
    G2 = google_matrix(g, beta=nearby)
    reference = pagerank(G2, tol=1e-13)
    warm = pagerank(G2, tol=1e-13, start=cold.P)
    assert warm.iterations < reference.iterations
    exact = dense_pagerank(dense_google(dense_weights(g, beta=nearby)))
    assert np.abs(warm.P - exact).max() < 1e-11


@pytest.mark.parametrize(
    "start", [np.ones(5), -np.ones(6), np.zeros(6), np.full(6, np.nan), np.full(6, np.inf)]
)
def test_bad_start_rejected(start):
    G = google_matrix(complete_graph())
    assert G.N == 6
    with pytest.raises(ValueError):
        pagerank(G, start=start)


def test_pagerank_permutation_invariance():
    """Renumbering the ASes and the IXPs permutes the PageRank vector, nothing more."""
    rng = np.random.default_rng(7)
    snap = random_snapshot(rng)
    new_asn = dict(zip(snap.asn.tolist(), (1000 + rng.permutation(snap.asn.size)).tolist()))
    new_ixp = dict(zip(snap.ixp_id.tolist(), (1 + rng.permutation(snap.ixp_id.size)).tolist()))
    renumbered = make_snapshot(
        [(new_asn[a], ALL_CLASSES[c]) for a, c in zip(snap.asn.tolist(), snap.as_class.tolist())],
        [(new_ixp[x], c) for x, c in zip(snap.ixp_id.tolist(), snap.ixp_country)],
        [
            (new_asn[a], new_ixp[x], s)
            for a, x, s in zip(snap.port_asn.tolist(), snap.port_ixp_id.tolist(),
                               snap.port_size.tolist())
        ],
    )
    g, h = build_graph(snap), build_graph(renumbered)
    where = [h.as_index(new_asn[a]) for a in g.asn.tolist()]
    where += [h.ixp_index(new_ixp[x]) for x in g.ixp_id.tolist()]
    assert sorted(where) != where  # the renumbering moved nodes
    base = pagerank(google_matrix(g), tol=1e-13).P
    permuted = pagerank(google_matrix(h), tol=1e-13).P
    assert np.abs(permuted[where] - base).max() < 1e-12


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from(BETAS),
    direction=st.sampled_from(["forward", "reverse"]),
)
def test_gauss_seidel_matches_power_iteration(seed, beta, direction):
    """The two-sided sweep against the power iteration it replaced and the dense solve."""
    g = build_graph(random_snapshot(np.random.default_rng(seed)), beta)
    G = google_matrix(g, direction=direction)
    assert G.to_ixp.shape == (g.n_ixp, g.n_as) and G.to_as.shape == (g.n_as, g.n_ixp)
    W = dense_weights(g, direction)
    sweep, power = pagerank(G), jacobi_pagerank(W)
    exact = dense_pagerank(dense_google(W, 0.85))
    assert np.abs(sweep.P - power.P).max() <= 1e-9
    assert np.abs(sweep.P - exact).max() <= 1e-9
    assert sweep.iterations <= power.iterations

    # Two nodes may be ranked in either order only when their values are
    # closer than 1e-10.
    everyone = np.arange(g.n_nodes)
    a, b = rank_positions(sweep.P, everyone), rank_positions(power.P, everyone)
    swapped = (a[:, None] < a[None, :]) != (b[:, None] < b[None, :])
    assert np.all(np.abs(exact[:, None] - exact[None, :])[swapped] < 1e-10)


@pytest.mark.parametrize("direction, sweeps", [("forward", 26), ("reverse", 9)])
def test_gauss_seidel_halves_the_fixture_iterations(fixture_graph, direction, sweeps):
    G = google_matrix(fixture_graph, direction=direction)
    power = jacobi_pagerank(dense_weights(fixture_graph, direction))
    assert (pagerank(G).iterations, power.iterations) == (sweeps, 144)
    assert 2 * sweeps <= power.iterations


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_reweighted_matches_a_fresh_operator(direction):
    """The operator of a graph at another beta is, bit for bit, that of the graph built at it."""
    snap = random_snapshot(np.random.default_rng(11))
    beta = BetaParams(balanced=0.3, mostly=1.0, heavy=1.0)
    g = build_graph(snap)
    new = google_matrix(g, direction=direction, beta=beta)
    fresh = google_matrix(build_graph(snap, beta), direction=direction)
    for name in ("to_ixp", "to_as"):
        a, b = getattr(new, name), getattr(fresh, name)
        assert a.format == b.format
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, part), getattr(b, part))
        assert a.nnz == g.n_edges  # an edge of zero weight stays a stored entry
    assert np.array_equal(new.dangling, fresh.dangling) and new.dangling[: g.n_as].any()
    assert (new.to_ixp.data == 0).any() and (new.to_as.data == 0).any()
    assert np.array_equal(pagerank(new).P, pagerank(fresh).P)
    default = pagerank(google_matrix(g, direction=direction), tol=1e-13).P
    assert np.abs(pagerank(new, tol=1e-13).P - default).max() > 1e-6


# --- rank tables ---


def ranked(table, labels) -> list[tuple[str, int]]:
    """(label, rank) of every row of ``table``."""
    return [(labels[i], rank) for rank, i in enumerate(table.index.tolist(), start=1)]


def test_rank_table_orders_descending():
    table = rank_table(np.array([0.3, 0.5, 0.2]))
    assert ranked(table, ["a", "b", "c"]) == [("b", 1), ("a", 2), ("c", 3)]


def test_rank_table_tie_breaks_by_index():
    # node order is ascending AS number, so AS50 precedes AS100
    table = rank_table(np.array([0.4, 0.4]))
    assert ranked(table, ["AS50", "AS100"]) == [("AS50", 1), ("AS100", 2)]


def test_rank_table_filter_reranks_contiguously():
    values = np.array([0.5, 0.1, 0.3, 0.2])
    kinds = np.array(["IXP", "AS", "IXP", "AS"])
    table = rank_table(values, keep=kinds == "AS")
    assert ranked(table, ["x1", "a1", "x2", "a2"]) == [("a2", 1), ("a1", 2)]


def test_rank_positions_match_rank_table():
    rng = np.random.default_rng(3)
    cases = [np.array([0.2, 0.4, 0.4, 0.1])]
    # Exact ties: few distinct values, including zeros, over many nodes.
    cases += [rng.integers(0, 4, size=n) / 8.0 for n in (1, 7, 40)]
    for values in cases:
        positions = rank_positions(values, np.arange(values.size))
        assert positions.tolist() == sorted_rank_positions(values).tolist()
        nodes = rng.permutation(values.size)[: (values.size + 1) // 2]
        assert rank_positions(values, nodes).tolist() == positions[nodes].tolist()
        for rank, i in enumerate(rank_table(values).index.tolist(), start=1):
            assert positions[i] == rank

        keep = np.arange(values.size) % 3 != 1
        kept = np.flatnonzero(keep).tolist()
        table = rank_table(values, keep=keep)
        assert table.index.tolist() == sorted(kept, key=lambda i: positions[i])
        assert table.value.tolist() == values[kept][np.argsort(positions[kept])].tolist()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_table_matches_row_oracle(data):
    """Columns against the old one-row-per-node table with a callable filter."""
    values = np.array(data.draw(
        st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]), min_size=1, max_size=30)
    ))
    mask = data.draw(st.none() | st.lists(
        st.booleans(), min_size=values.size, max_size=values.size
    ).map(np.array))
    labels = [str(i) for i in range(values.size)]
    keep = None if mask is None else (lambda i: bool(mask[i]))
    rows = row_rank_table(values, labels, keep=keep)
    table = rank_table(values, keep=mask)
    assert table.index.tolist() == [int(row.label) for row in rows]
    assert list(range(1, len(table) + 1)) == [row.rank for row in rows]
    assert table.value.tolist() == [row.value for row in rows]
    assert table.index.dtype == np.int64 and table.value.dtype == np.float64
    assert not table.index.flags.writeable and not table.value.flags.writeable


def test_reverse_rank_equals_forward_rank_of_inverted():
    snap = random_snapshot(np.random.default_rng(8))
    rev = pagerank(google_matrix(build_graph(snap), direction="reverse"), tol=1e-12)
    fwd = pagerank(google_matrix(build_graph(mirrored(snap))), tol=1e-12)
    rev_table, fwd_table = rank_table(rev), rank_table(fwd)
    assert rev_table.index.tolist() == fwd_table.index.tolist()
    assert rev_table.value.tolist() == fwd_table.value.tolist()


# --- reduced Google matrix ---


def test_subset_of_all_nodes_returns_g():
    g = random_graph(np.random.default_rng(9), max_as=6, max_ixp=3)
    G = google_matrix(g)
    R = reduced_google_matrix(G, list(range(g.n_nodes)))
    assert np.abs(R.GR - dense(G)).max() < 1e-14


def test_reduction_matches_dense_schur_complement():
    rng = np.random.default_rng(10)
    for trial in range(8):
        g = build_graph(random_snapshot(rng, max_as=50, max_ixp=12), BETAS[trial % 3])
        direction = ("forward", "reverse")[trial % 2]
        G = google_matrix(g, direction=direction)
        n_r = int(rng.integers(1, min(g.n_nodes, 8)))
        subset = [int(i) for i in rng.choice(g.n_nodes, size=n_r, replace=False)]
        oracle = dense_reduction(dense_google(dense_weights(g, direction)), subset)
        R = reduced_google_matrix(G, subset)
        assert np.abs(R.GR - oracle).max() < 1e-10
        # columns of a stochastic complement keep summing to one
        assert np.abs(R.GR.sum(axis=0) - 1.0).max() < 1e-10


SUBSET_KINDS = ("ases", "ixps", "mixed", "all_ixps", "all_ases")


def bipartite_subset(g, kind: str, rng: np.random.Generator) -> list[int]:
    ases, ixps = np.arange(g.n_as), np.arange(g.n_as, g.n_nodes)
    if kind == "all_ixps":  # the complement has no IXP left
        return [int(i) for i in ixps]
    if kind == "all_ases":  # the complement has no AS left
        return [int(i) for i in ases]
    pool = {"ases": ases, "ixps": ixps, "mixed": np.arange(g.n_nodes)}[kind]
    size = int(rng.integers(1, min(pool.size, 6) + 1))
    return [int(i) for i in rng.choice(pool, size=size, replace=False)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    direction=st.sampled_from(("forward", "reverse")),
    # beta = 1 gives the minor direction weight 0, so some nodes dangle
    beta=st.sampled_from((BetaParams(), BetaParams(mostly=1.0, heavy=1.0))),
    kind=st.sampled_from(SUBSET_KINDS),
)
def test_bipartite_elimination_matches_oracle_and_lu(seed, direction, beta, kind):
    rng = np.random.default_rng(seed)
    g = build_graph(random_snapshot(rng), beta)
    subset = bipartite_subset(g, kind, rng)
    R = reduced_google_matrix(google_matrix(g, direction=direction), subset)
    oracle = dense_reduction(dense_google(dense_weights(g, direction)), subset)
    assert np.abs(R.GR - oracle).max() < 1e-10


def test_nan_in_complement_fails_residual_gate():
    snap = make_snapshot(
        [(10, TC.BALANCED), (20, TC.BALANCED)],
        [(1, "DE"), (2, "DE")],
        [(10, 1, 5.0), (20, 1, 5.0), (20, 2, 5.0)],
    )
    g = build_graph(snap)
    G = google_matrix(g)
    # corrupt the link AS20 -> IX2, which lies inside the complement of {AS10}
    G.normalized_weights[g.ixp_index(2), g.as_index(20)] = np.nan
    with pytest.raises(ConvergenceError):
        reduced_google_matrix(G, [g.as_index(10)])


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10])
def test_reduction_refuses_tol_that_is_not_finite_and_positive(tol):
    G = google_matrix(complete_graph())
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        reduced_google_matrix(G, [0, 1], tol=tol)


def test_restricted_pagerank_is_fixed_point():
    rng = np.random.default_rng(12)
    for direction in ("forward", "reverse"):
        g = build_graph(random_snapshot(rng), BETAS[2])
        G = google_matrix(g, direction=direction)
        subset = [int(i) for i in rng.choice(g.n_nodes, size=6, replace=False)]
        R = reduced_google_matrix(G, subset)
        pr = pagerank(G, tol=1e-13).P[subset]
        pr_norm = pr / pr.sum()
        assert np.abs(R.GR @ pr_norm - pr_norm).max() < 1e-8


def test_reduction_computes_no_pagerank(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reduced_google_matrix ran PageRank")

    g = build_graph(random_snapshot(np.random.default_rng(2)))
    monkeypatch.setattr("peergraph.spectral.pagerank", refuse)
    R = reduced_google_matrix(google_matrix(g, direction="reverse"), [0, 1, g.n_as])
    assert np.allclose(R.GR.sum(axis=0), 1.0)


def test_reduction_rejects_bad_subsets():
    G = google_matrix(complete_graph())
    with pytest.raises(ValueError):
        reduced_google_matrix(G, [])
    with pytest.raises(ValueError):
        reduced_google_matrix(G, [1, 1])
    with pytest.raises(ValueError):
        reduced_google_matrix(G, [7])


# --- diagonal censoring ---


def make_reduced(
    matrix: np.ndarray, labels=None, censored=False, direction="reverse", alpha=0.85
):
    n = matrix.shape[0]
    labels = tuple(labels or (f"AS{i}" for i in range(n)))
    return ReducedGoogleMatrix(
        labels=labels,
        GR=np.asfortranarray(matrix.astype(np.float64)),
        direction=direction,
        alpha=alpha,
        censored=censored,
    )


def test_censor_zero_diagonal_unchanged():
    M = np.array([[0.0, 0.5, 0.3], [0.6, 0.0, 0.7], [0.4, 0.5, 0.0]])
    out = censor_diagonal(make_reduced(M))
    assert np.allclose(out.GR, M)
    assert out.censored


def test_censor_renormalizes_columns():
    M = np.array([[0.6, 0.3], [0.4, 0.7]])
    out = censor_diagonal(make_reduced(M))
    assert np.allclose(out.GR, [[0.0, 1.0], [1.0, 0.0]])


def test_censor_preserves_stochasticity():
    rng = np.random.default_rng(13)
    M = rng.random((6, 6)) + 0.01
    M /= M.sum(axis=0)
    out = censor_diagonal(make_reduced(M))
    assert np.abs(out.GR.sum(axis=0) - 1.0).max() < 1e-12


def test_censor_rejects_diagonal_only_column():
    M = np.array([[1.0, 0.3], [0.0, 0.7]])
    with pytest.raises(CensorError) as err:
        censor_diagonal(make_reduced(M, labels=("AS77", "AS88")))
    assert "AS77" in str(err.value)


# --- relative change ---


def test_equal_dates_give_zero_change():
    M = np.random.default_rng(14).random((4, 4)) + 0.1
    change = relative_change(make_reduced(M), make_reduced(M.copy()))
    assert np.allclose(change.delta, 0.0)
    assert not change.undefined.any()


def test_doubling_and_halving_are_exact():
    M = np.full((2, 2), 0.37)
    M2 = M.copy()
    M2[0, 1] *= 2.0
    M2[1, 0] *= 0.5
    change = relative_change(make_reduced(M), make_reduced(M2))
    assert change.delta[0, 1] == 1.0
    assert change.delta[1, 0] == -0.5


def test_vanished_link_is_minus_one():
    M = np.full((2, 2), 0.25)
    M2 = M.copy()
    M2[0, 1] = 0.0
    change = relative_change(make_reduced(M), make_reduced(M2))
    assert change.delta[0, 1] == -1.0


def test_zero_denominator_flagged_undefined():
    M1 = np.array([[0.0, 0.5], [1.0, 0.5]])
    M2 = np.array([[0.2, 0.5], [0.8, 0.5]])
    change = relative_change(make_reduced(M1), make_reduced(M2))
    assert change.undefined[0, 0]
    assert not change.undefined[1, 0]


def test_change_cap_is_display_only():
    M1 = np.full((2, 2), 0.1)
    M2 = np.full((2, 2), 0.9)
    change = relative_change(make_reduced(M1), make_reduced(M2), cap=(-0.5, 1.0))
    assert np.allclose(change.delta, 8.0)  # stored values stay uncapped
    assert np.allclose(change.capped(), 1.0)


@pytest.mark.parametrize("cap", [(np.nan, 1.0), (-1.0, np.nan), (5.0, -5.0)])
def test_change_refuses_nan_or_inverted_cap(cap):
    M = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="lo <= hi"):
        relative_change(make_reduced(M), make_reduced(M), cap=cap)


def test_subset_mismatch_rejected():
    M = np.full((2, 2), 0.5)
    with pytest.raises(SubsetMismatchError):
        relative_change(make_reduced(M, labels=("AS1", "AS2")), make_reduced(M))
    with pytest.raises(SubsetMismatchError):
        relative_change(make_reduced(M), make_reduced(M, censored=True))
    with pytest.raises(SubsetMismatchError):
        relative_change(make_reduced(M), make_reduced(M, direction="forward"))


def test_alpha_mismatch_rejected():
    M = np.full((2, 2), 0.5)
    with pytest.raises(SubsetMismatchError, match=r"different alphas \(0\.5 and 0\.85\)"):
        relative_change(make_reduced(M, alpha=0.5), make_reduced(M))


# --- rank stability of a dominant outbound AS ---


def dominant_snapshot():
    networks = [(1, TC.HEAVY_OUTBOUND)]
    memberships = [(1, x, 1_000_000.0) for x in (1, 2, 3)]
    classes = [TC.HEAVY_OUTBOUND, TC.MOSTLY_OUTBOUND, TC.BALANCED, TC.MOSTLY_INBOUND]
    for i in range(12):
        asn = 10 + i
        networks.append((asn, classes[i % 4]))
        memberships.append((asn, 1 + i % 3, float(1000 * (1 + i % 7))))
    return make_snapshot(networks, [(1, "DE"), (2, "US"), (3, "DE")], memberships)


def test_dominant_outbound_as_holds_reverse_rank_one():
    snap = dominant_snapshot()
    for beta_h in (0.90, 0.95, 0.995):
        for beta_m in (0.6, 0.7, 0.8):
            g = build_graph(snap, BetaParams(mostly=beta_m, heavy=beta_h))
            pr = pagerank(google_matrix(g, direction="reverse"), tol=1e-12)
            table = rank_table(pr, keep=np.arange(g.n_nodes) < g.n_as)
            assert g.labels[table.index[0]] == "AS1"

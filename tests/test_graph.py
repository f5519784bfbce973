"""Capacity-graph construction and structural metrics."""
from __future__ import annotations

from dataclasses import replace
from datetime import date as Date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peergraph.errors import EmptyGraphError
from peergraph.graph import (
    BetaParams,
    _assemble,
    build_graph,
    fit_breakpoint,
)
from peergraph.ingest import TrafficClass

from conftest import ALL_CLASSES, edge_dict, make_snapshot, node_columns, random_snapshot
from oracles import edge_list, loop_weight_matrix

TC = TrafficClass


def as_classes(source) -> list[TrafficClass]:
    """The traffic class of each AS of a snapshot or graph, in node order."""
    return [ALL_CLASSES[c] for c in source.as_class.tolist()]


@st.composite
def snapshots(draw, max_as=8, max_ixp=4):
    n_as = draw(st.integers(1, max_as))
    n_ixp = draw(st.integers(1, max_ixp))
    networks = [(100 + i, draw(st.sampled_from(ALL_CLASSES))) for i in range(n_as)]
    ixps = [(1 + j, draw(st.sampled_from(["DE", "US", ""]))) for j in range(n_ixp)]
    memberships = []
    for asn, _ in networks:
        n_ports = draw(st.integers(1, 3))
        for _ in range(n_ports):
            ixp_id = draw(st.integers(1, n_ixp))
            memberships.append((asn, ixp_id, float(draw(st.integers(1, 1_000_000)))))
    return make_snapshot(networks, ixps, memberships)


def single_edge(tc: TrafficClass, ps: float, beta: BetaParams | None = None):
    snap = make_snapshot([(10, tc)], [(1, "DE")], [(10, 1, ps)])
    return build_graph(snap, beta)


# --- edge orientation (the weighting rules) ---


def test_heavy_outbound_weights():
    g = single_edge(TC.HEAVY_OUTBOUND, 100.0)
    a, x = g.as_index(10), g.ixp_index(1)
    assert g.W[x, a] == 100.0  # AS -> IXP carries the full port size
    assert g.W[a, x] == (1.0 - 0.95) * 100.0  # IXP -> AS carries 5%


def test_mostly_inbound_weights():
    g = single_edge(TC.MOSTLY_INBOUND, 40.0)
    a, x = g.as_index(10), g.ixp_index(1)
    assert g.W[a, x] == 40.0
    assert g.W[x, a] == 10.0


def test_balanced_weights_symmetric():
    g = single_edge(TC.BALANCED, 10.0)
    a, x = g.as_index(10), g.ixp_index(1)
    assert g.W[a, x] == 10.0 and g.W[x, a] == 10.0


def test_router_ports_aggregate_by_sum():
    snap = make_snapshot(
        [(10, TC.BALANCED)], [(1, "DE")], [(10, 1, 10.0), (10, 1, 20.0)]
    )
    g = build_graph(snap)
    assert edge_dict(g) == {(10, 1): 30.0}

    # Ports are summed in membership order, also when other pairs interleave.
    snap = make_snapshot(
        [(10, TC.BALANCED), (20, TC.BALANCED)],
        [(1, "DE")],
        [(20, 1, 0.3), (10, 1, 0.1), (20, 1, 0.2), (10, 1, 0.2), (20, 1, 0.1), (10, 1, 0.3)],
    )
    assert edge_dict(build_graph(snap)) == {
        (10, 1): (0.1 + 0.2) + 0.3,
        (20, 1): (0.3 + 0.2) + 0.1,
    }
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1


def test_zero_capacity_memberships_dropped():
    snap = make_snapshot(
        [(10, TC.BALANCED), (20, TC.BALANCED)],
        [(1, "DE")],
        [(10, 1, 10.0), (20, 1, 0.0)],
    )
    g = build_graph(snap)
    assert g.n_as == 1 and (20 not in g.asn.tolist())


def test_empty_graph_is_an_error():
    snap = make_snapshot([(10, TC.BALANCED)], [(1, "DE")], [(10, 1, 0.0)])
    with pytest.raises(EmptyGraphError):
        build_graph(snap)


def test_min_members_filter():
    snap = make_snapshot(
        [(10, TC.BALANCED), (20, TC.BALANCED)],
        [(1, "DE"), (2, "US")],
        [(10, 1, 5.0), (20, 1, 5.0), (20, 2, 5.0)],
    )
    g = build_graph(snap, min_members=2)
    assert g.ixp_id.tolist() == [1]
    assert g.asn.tolist() == [10, 20]


def test_node_ordering_deterministic():
    snap = make_snapshot(
        [(30, TC.BALANCED), (10, TC.BALANCED)],
        [(7, "DE"), (2, "US")],
        [(30, 7, 1.0), (10, 2, 1.0)],
    )
    g = build_graph(snap)
    assert g.asn.tolist() == [10, 30]
    assert g.ixp_id.tolist() == [2, 7]
    assert g.labels == ("AS10", "AS30", "IX2", "IX7")


def test_beta_params_validate_range():
    with pytest.raises(ValueError):
        BetaParams(heavy=1.5)


@settings(max_examples=60, deadline=None)
@given(snapshots())
def test_weight_construction_invariants(snap):
    g = build_graph(snap)
    beta = g.beta
    # independent re-aggregation of the port sizes
    expected: dict[tuple[int, int], float] = {}
    for asn, ixp_id, ps in zip(
        snap.port_asn.tolist(), snap.port_ixp_id.tolist(), snap.port_size.tolist()
    ):
        if ps > 0:
            expected[(asn, ixp_id)] = expected.get((asn, ixp_id), 0.0) + ps
    assert edge_dict(g) == expected
    class_of = dict(zip(snap.asn.tolist(), as_classes(snap)))

    for (asn, ixp_id), ps in edge_dict(g).items():
        a, x = g.as_index(asn), g.ixp_index(ixp_id)
        tc = class_of[asn]
        b = beta.for_class(tc)
        w_pair = (g.W[a, x], g.W[x, a])
        assert max(w_pair) == ps
        assert min(w_pair) == (1.0 - b) * ps
        if tc in (TC.BALANCED, TC.NOT_DISCLOSED):
            assert g.W[a, x] == g.W[x, a] == ps  # beta_b defaults to 0

    # bipartite: nonzero entries always connect an AS with an IXP
    coo = g.W.tocoo()
    for i, j in zip(coo.row, coo.col):
        assert (i < g.n_as) != (j < g.n_as)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from([
        BetaParams(),
        BetaParams(balanced=0.3, mostly=0.6, heavy=0.9),
        BetaParams(mostly=1.0),
        BetaParams(balanced=1.0),
        BetaParams(balanced=1.0, mostly=1.0, heavy=1.0),
        BetaParams(balanced=0.0, mostly=0.0, heavy=0.0),
    ]),
)
def test_reweighted_matrix_matches_build_and_edge_loop(seed, beta):
    snap = random_snapshot(np.random.default_rng(seed))
    g = build_graph(snap)
    assert edge_list(g) == sorted(edge_list(g))
    W = replace(g, beta=beta).W
    assert (W.data > 0.0).all()  # vanished directions leave no explicit zero
    for ref in (build_graph(snap, beta).W, loop_weight_matrix(snap, beta)):
        assert W.nnz == ref.nnz
        assert np.array_equal(W.indptr, ref.indptr)
        assert np.array_equal(W.indices, ref.indices)
        assert np.array_equal(W.data, ref.data)


@settings(max_examples=60, deadline=None)
@given(snapshots())
def test_capacity_sums_match_across_sides(snap):
    g = build_graph(snap)
    total_edges = sum(edge_dict(g).values())
    assert g.capacity[: g.n_as].sum() == pytest.approx(total_edges, rel=1e-15)
    assert g.capacity[g.n_as :].sum() == pytest.approx(total_edges, rel=1e-15)


# --- node capacity and weighted degrees ---


def weighted_degrees(g) -> tuple[np.ndarray, np.ndarray]:
    """(in, out) weighted degree of every node: the row and column sums of ``W``."""
    return np.asarray(g.W.sum(axis=1)).ravel(), np.asarray(g.W.sum(axis=0)).ravel()


def neighbor_counts(g) -> np.ndarray:
    """Distinct neighbors of every node, counted from the aggregated edge columns."""
    n = g.n_nodes
    return np.bincount(g.edge_as, minlength=n) + np.bincount(g.edge_ixp, minlength=n)


def test_mostly_inbound_metric_identity():
    snap = make_snapshot(
        [(10, TC.MOSTLY_INBOUND)], [(1, "DE"), (2, "US")], [(10, 1, 40.0), (10, 2, 60.0)]
    )
    g = build_graph(snap)
    w_in, w_out = weighted_degrees(g)
    a = g.as_index(10)
    assert g.capacity[a] == 100.0
    assert w_in[a] == 100.0
    assert w_out[a] == 25.0  # (1 - 0.75) * port capacity, exact for dyadic beta


def test_degree_counts_distinct_ixps():
    snap = make_snapshot(
        [(10, TC.BALANCED)],
        [(1, "DE"), (2, "US"), (3, "DE")],
        [(10, 1, 1.0), (10, 2, 1.0), (10, 3, 1.0), (10, 1, 2.0)],
    )
    g = build_graph(snap)
    assert neighbor_counts(g)[g.as_index(10)] == 3


@settings(max_examples=40, deadline=None)
@given(snapshots())
def test_every_node_has_a_neighbor(snap):
    g = build_graph(snap)
    assert (neighbor_counts(g) >= 1).all()


# Each case has finite port sizes whose sum overflows: one AS's ports, the
# total over ASes whose own capacities are finite, and one IXP's ports.
OVERFLOWING_PORTS = {
    "one AS": ([(10, 1, 1e308), (10, 2, 1e308), (20, 1, 5.0)], "AS10"),
    "the total": ([(10, 1, 1e308), (20, 2, 1e308), (30, 1, 5.0)], "AS20"),
    "one IXP": ([(10, 1, 7e307), (20, 1, 7e307), (30, 1, 7e307)], "AS30"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_PORTS))
def test_capacity_that_overflows_is_refused(case):
    ports, first = OVERFLOWING_PORTS[case]
    snap = make_snapshot(
        [(a, TC.BALANCED) for a in (10, 20, 30)], [(1, "DE"), (2, "US")], ports
    )
    with pytest.raises(ValueError) as info:
        build_graph(snap)
    assert str(info.value) == f"port capacity sums past the float range at {first}"


def test_capacity_is_float_on_an_edgeless_graph():
    g = single_edge(TC.HEAVY_OUTBOUND, 100.0)
    edgeless = _assemble(*node_columns(g), (), (), (), g.beta, g.date)
    for values in (*weighted_degrees(edgeless), edgeless.capacity):
        assert values.dtype == np.float64
        assert values.tolist() == [0.0, 0.0]


@settings(max_examples=40, deadline=None)
@given(snapshots())
def test_directional_metric_identities(snap):
    g = build_graph(snap)
    w_in, w_out = weighted_degrees(g)
    for i, tc in enumerate(as_classes(g)):
        b = g.beta.for_class(tc)
        pc = g.capacity[i]
        major, minor = (w_out[i], w_in[i]) if tc.is_outbound else (w_in[i], w_out[i])
        assert major == pc  # integer port sizes: sums are exact
        assert minor == pytest.approx((1.0 - b) * pc, rel=1e-14, abs=0.0)


# --- breakpoint fit ---


def test_breakpoint_recovers_noiseless_kink():
    xs = list(range(0, 101))
    ys = [x if x <= 50 else 50 + 3 * (x - 50) for x in xs]
    fit = fit_breakpoint(list(zip(xs, [float(y) for y in ys])))
    assert fit.breakpoint == 50
    assert abs(fit.slope_before - 1.0) < 1e-9
    assert abs(fit.slope_after - 3.0) < 1e-9


def test_breakpoint_with_dates():
    start = Date(2019, 1, 1)
    xs = [start + timedelta(days=i) for i in range(0, 80)]
    ys = [2.0 * i if i <= 30 else 60.0 + 5.0 * (i - 30) for i in range(0, 80)]
    fit = fit_breakpoint(list(zip(xs, ys)))
    assert fit.breakpoint == start + timedelta(days=30)
    assert abs(fit.slope_before - 2.0) < 1e-9
    assert abs(fit.slope_after - 5.0) < 1e-9


def test_breakpoint_constant_series():
    fit = fit_breakpoint([(i, 5.0) for i in range(6)])
    assert abs(fit.slope_before) < 1e-12 and abs(fit.slope_after) < 1e-12


def test_breakpoint_needs_four_points():
    with pytest.raises(ValueError):
        fit_breakpoint([(0, 1.0), (1, 2.0), (2, 3.0)])

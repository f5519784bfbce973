"""Country classification, hypergiants, receivers, market share, beta sweep."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peergraph.analysis import (
    PROBES_PER_CLASS,
    TIED,
    beta_stability_sweep,
    classification_metrics,
    classify_countries,
    default_probes,
    eums_coverage,
    info_ratio_summary,
    top_hypergiants,
    traffic_receivers,
)
from peergraph.cli import main
from peergraph.graph import BetaParams, build_graph
from peergraph.ingest import TrafficClass
from peergraph.spectral import RankTable, google_matrix, pagerank

from conftest import FIXTURE_SNAPSHOT, make_snapshot, random_snapshot
from oracles import cold_sweep, dense_google, dense_pagerank, rescan_metrics

TC = TrafficClass


def graph_for_countries(countries: list[str], asn: int = 10):
    ixps = [(1 + i, c) for i, c in enumerate(countries)]
    memberships = [(asn, 1 + i, 10.0) for i in range(len(countries))]
    return build_graph(make_snapshot([(asn, TC.BALANCED)], ixps, memberships))


# --- country classification ---


def test_majority_assigns_country():
    assert classify_countries(graph_for_countries(["DE", "DE", "FR"])) == ("DE",)


def test_even_split_is_tied():
    assert classify_countries(graph_for_countries(["DE", "FR"])) == (TIED,)


def test_single_ixp_unanimous():
    assert classify_countries(graph_for_countries(["BR"])) == ("BR",)


def test_unlabeled_ixps_do_not_vote():
    assert classify_countries(graph_for_countries(["DE", "", ""])) == ("DE",)
    assert classify_countries(graph_for_countries(["", ""])) == (TIED,)


def test_plurality_rule_option():
    g = graph_for_countries(["DE", "DE", "FR", "US"])
    assert classify_countries(g, rule="strict") == (TIED,)  # 2 of 4 is no majority
    assert classify_countries(g, rule="plurality") == ("DE",)
    g2 = graph_for_countries(["DE", "DE", "FR", "FR"])
    assert classify_countries(g2, rule="plurality") == (TIED,)


def test_votes_are_unweighted():
    # huge port at the FR exchange must not outvote two small DE ports
    snap = make_snapshot(
        [(10, TC.BALANCED)],
        [(1, "DE"), (2, "DE"), (3, "FR")],
        [(10, 1, 1.0), (10, 2, 1.0), (10, 3, 1_000_000.0)],
    )
    assert classify_countries(build_graph(snap)) == ("DE",)


def test_classification_invariant_under_ixp_relabeling():
    snap_a = make_snapshot(
        [(10, TC.BALANCED)],
        [(1, "DE"), (2, "DE"), (3, "FR")],
        [(10, 1, 5.0), (10, 2, 5.0), (10, 3, 5.0)],
    )
    snap_b = make_snapshot(
        [(10, TC.BALANCED)],
        [(7, "FR"), (8, "DE"), (9, "DE")],
        [(10, 7, 5.0), (10, 8, 5.0), (10, 9, 5.0)],
    )
    assert classify_countries(build_graph(snap_a)) == classify_countries(build_graph(snap_b))


# --- classification metrics ---


def two_as_graph(countries_a: list[str], countries_b: list[str]):
    ixps, memberships = [], []
    next_id = 1
    for asn, countries in ((10, countries_a), (20, countries_b)):
        for c in countries:
            ixps.append((next_id, c))
            memberships.append((asn, next_id, 10.0))
            next_id += 1
    return build_graph(
        make_snapshot([(10, TC.BALANCED), (20, TC.BALANCED)], ixps, memberships)
    )


def test_perfect_agreement():
    g = two_as_graph(["DE"], ["FR"])
    rows = classification_metrics(g, classify_countries(g), {10: "DE", 20: "FR"}, ["DE", "FR"])
    assert [row.country for row in rows] == ["DE", "FR"]
    for row in rows:
        assert row.precision == row.recall == row.f1 == 1.0


def test_hand_computed_metrics():
    # truth {DE, DE}, predictions {DE, FR}
    g = two_as_graph(["DE"], ["FR"])
    (row,) = classification_metrics(g, classify_countries(g), {10: "DE", 20: "DE"}, ["DE"])
    assert row.country == "DE"
    assert row.precision == 1.0
    assert row.recall == 0.5
    assert row.f1 == pytest.approx(2 / 3)
    assert row.support == 2


def test_tied_counts_as_negative():
    g = graph_for_countries(["DE", "FR"])  # prediction: Tied
    (row,) = classification_metrics(g, classify_countries(g), {10: "DE"}, ["DE"])
    assert row.precision == 0.0 and row.recall == 0.0 and row.support == 1


def test_zero_support_reported():
    g = graph_for_countries(["DE"])
    (row,) = classification_metrics(g, classify_countries(g), {10: "DE"}, ["JP"])
    assert (row.country, row.support) == ("JP", 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_classification_metrics_match_rescan_oracle(data):
    # Predictions include Tied, the truth misses some ASes and names others
    # outside the graph, and BR is neither predicted nor true.
    asns = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True))
    g = build_graph(make_snapshot(
        [(a, TC.BALANCED) for a in asns], [(1, "DE")], [(a, 1, 10.0) for a in asns]
    ))
    predictions = st.sampled_from(["DE", "FR", "US", TIED])
    assignment = tuple(data.draw(st.lists(predictions, min_size=g.n_as, max_size=g.n_as)))
    truth = data.draw(st.dictionaries(st.integers(1, 60), st.sampled_from(["DE", "FR", "JP"])))
    countries = data.draw(st.lists(st.sampled_from(["DE", "FR", "US", "JP", "BR", TIED])))
    rows = classification_metrics(g, assignment, truth, countries)
    expected = rescan_metrics(dict(zip(g.asn.tolist(), assignment)), truth, countries)
    assert [(r.country, r.precision, r.recall, r.f1, r.support) for r in rows] == expected


# --- hypergiants ---


def dominant_graph():
    networks = [(1, TC.HEAVY_OUTBOUND)] + [
        (10 + i, [TC.MOSTLY_OUTBOUND, TC.BALANCED, TC.MOSTLY_INBOUND][i % 3])
        for i in range(9)
    ]
    memberships = [(1, x, 500_000.0) for x in (1, 2)]
    for i in range(9):
        memberships.append((10 + i, 1 + i % 2, float(1000 * (1 + i))))
    return build_graph(make_snapshot(networks, [(1, "DE"), (2, "US")], memberships))


def test_dominant_as_is_top_hypergiant():
    g = dominant_graph()
    table = top_hypergiants(g, k=3)
    assert g.labels[table.index[0]] == "AS1"
    # cross-check the whole ordering against a dense reverse PageRank
    oracle = dense_pagerank(dense_google(g.W.toarray().T))
    as_order = sorted(range(g.n_as), key=lambda i: (-oracle[i], i))
    expected = [g.labels[i] for i in as_order[:3]]
    assert [g.labels[i] for i in table.index] == expected


def test_hypergiants_k_one_single_as():
    g = build_graph(make_snapshot([(5, TC.BALANCED)], [(1, "DE")], [(5, 1, 10.0)]))
    table = top_hypergiants(g, k=1)
    assert [g.labels[i] for i in table.index] == ["AS5"]


def test_hypergiants_k_exceeding_as_count():
    g = build_graph(make_snapshot([(5, TC.BALANCED)], [(1, "DE")], [(5, 1, 10.0)]))
    with pytest.raises(ValueError):
        top_hypergiants(g, k=2)


def test_hypergiants_exclude_ixps():
    g = dominant_graph()
    table = top_hypergiants(g, k=g.n_as)
    assert all(g.kinds[i] == "AS" for i in table.index)
    assert sorted(table.index.tolist()) == list(range(g.n_as))


# --- traffic receivers ---


def receivers_graph():
    # 6 access networks in DE, 1 hypergiant, 1 NSP
    networks = [
        (1, TC.HEAVY_OUTBOUND),  # hypergiant, Content
        (2, TC.MOSTLY_INBOUND),
        (3, TC.MOSTLY_INBOUND),
        (4, TC.HEAVY_INBOUND),
        (5, TC.NOT_DISCLOSED),
        (6, TC.MOSTLY_INBOUND),
        (7, TC.BALANCED),  # NSP type, filtered out by default
    ]
    info_types = {
        1: "Content",
        2: "Cable/DSL/ISP",
        3: "Cable/DSL/ISP",
        4: "Cable/DSL/ISP",
        5: "Not Disclosed",
        6: "Cable/DSL/ISP",
        7: "NSP",
    }
    memberships = [
        (1, 1, 900_000.0),
        (2, 1, 90_000.0),
        (3, 1, 70_000.0),
        (4, 1, 50_000.0),
        (5, 1, 30_000.0),
        (6, 1, 10_000.0),
        (7, 1, 80_000.0),
    ]
    snap = make_snapshot(networks, [(1, "DE")], memberships, info_types=info_types)
    return build_graph(snap)


def test_receivers_ordered_by_pagerank():
    g = receivers_graph()
    assignment = classify_countries(g)
    tables = traffic_receivers(g, assignment, ["DE"], hypergiant_asns=[1])
    labels = [g.labels[i] for i in tables["DE"].index]
    assert labels == ["AS2", "AS3", "AS4", "AS5"]
    assert len(tables["DE"]) == 4


def test_receivers_exclude_hypergiants_and_manual_list():
    g = receivers_graph()
    assignment = classify_countries(g)
    tables = traffic_receivers(
        g, assignment, ["DE"], hypergiant_asns=[1], exclusions=[2]
    )
    labels = [g.labels[i] for i in tables["DE"].index]
    assert "AS1" not in labels and "AS2" not in labels
    assert labels == ["AS3", "AS4", "AS5", "AS6"]


def test_receivers_type_filter_and_nsp_opt_in():
    g = receivers_graph()
    assignment = classify_countries(g)
    default = traffic_receivers(g, assignment, ["DE"], hypergiant_asns=[1])
    assert "AS7" not in [g.labels[i] for i in default["DE"].index]
    with_nsp = traffic_receivers(
        g,
        assignment,
        ["DE"],
        hypergiant_asns=[1],
        types={"Cable/DSL/ISP", "Not Disclosed", "NSP"},
    )
    assert "AS7" in [g.labels[i] for i in with_nsp["DE"].index]


def test_receivers_empty_country():
    g = receivers_graph()
    assignment = classify_countries(g)
    tables = traffic_receivers(g, assignment, ["JP"], hypergiant_asns=[1])
    assert len(tables["JP"]) == 0


def test_receivers_disjoint_from_banned_sets():
    g = receivers_graph()
    assignment = classify_countries(g)
    giants, excluded = [1, 3], [5]
    tables = traffic_receivers(
        g, assignment, ["DE"], hypergiant_asns=giants, exclusions=excluded
    )
    picked = set(g.asn[tables["DE"].index].tolist())
    assert picked.isdisjoint(giants) and picked.isdisjoint(excluded)


# --- EUMS coverage ---


def test_eums_sums_over_receivers():
    shares = {(2, "DE"): 10.0, (3, "DE"): 5.0, (4, "FR"): 20.0}
    g = receivers_graph()
    tables = traffic_receivers(g, classify_countries(g), ["DE"], hypergiant_asns=[1])
    coverage = eums_coverage(g, tables, shares)
    assert coverage["DE"] == 15.0  # AS4/AS5 are absent from the table: contribute 0


def test_eums_absent_country_is_zero():
    g = receivers_graph()
    tables = traffic_receivers(g, classify_countries(g), ["DE"], hypergiant_asns=[1])
    coverage = eums_coverage(g, tables, {})
    assert coverage == {"DE": 0.0}


# --- info_ratio summary ---


def test_all_balanced_summary():
    g = build_graph(make_snapshot([(5, TC.BALANCED)], [(1, "DE")], [(5, 1, 10.0)]))
    shares = info_ratio_summary(g)
    assert shares[TC.BALANCED].count_pct == 100.0
    assert shares[TC.BALANCED].capacity_pct == 100.0


def test_summary_shares():
    snap = make_snapshot(
        [(1, TC.HEAVY_OUTBOUND), (2, TC.BALANCED)],
        [(1, "DE")],
        [(1, 1, 90.0), (2, 1, 10.0)],
    )
    shares = info_ratio_summary(build_graph(snap))
    assert shares[TC.HEAVY_OUTBOUND].capacity_pct == pytest.approx(90.0)
    assert shares[TC.BALANCED].capacity_pct == pytest.approx(10.0)
    assert shares[TC.HEAVY_OUTBOUND].count_pct == pytest.approx(50.0)


def test_summary_sums_to_hundred(fixture_graph):
    shares = info_ratio_summary(fixture_graph)
    assert sum(s.count_pct for s in shares.values()) == pytest.approx(100.0, abs=1e-9)
    assert sum(s.capacity_pct for s in shares.values()) == pytest.approx(100.0, abs=1e-9)


# --- beta stability sweep ---


def sweep_snapshot():
    networks = [(1, TC.HEAVY_OUTBOUND)]
    memberships = [(1, x, 1_000_000.0) for x in (1, 2)]
    classes = [TC.MOSTLY_OUTBOUND, TC.BALANCED, TC.MOSTLY_INBOUND, TC.HEAVY_INBOUND]
    for i in range(8):
        asn = 10 + i
        networks.append((asn, classes[i % 4]))
        memberships.append((asn, 1 + i % 2, float(2000 * (1 + i))))
    return make_snapshot(networks, [(1, "DE"), (2, "US")], memberships)


def sweep_graph(beta: BetaParams | None = None):
    return build_graph(sweep_snapshot(), beta)


def test_single_point_grid_has_zero_variation():
    report = beta_stability_sweep(sweep_graph(), grid_heavy=[0.95], grid_mostly=[0.75])
    for row in report.rows:
        assert row.delta_pr_rank == 0 and row.delta_rpr_rank == 0
        assert row.delta_pr_value == 0.0 and row.delta_rpr_value == 0.0


def test_dominant_outbound_rpr_stable_across_grid():
    report = beta_stability_sweep(
        sweep_graph(),
        grid_heavy=np.linspace(0.90, 0.995, 4),
        grid_mostly=np.linspace(0.6, 0.8, 4),
        probes=[1],
    )
    assert report.rows[0].delta_rpr_rank == 0


def test_beta_one_is_excluded():
    report = beta_stability_sweep(sweep_graph(), grid_heavy=[0.95, 1.0], grid_mostly=[0.75])
    assert report.grid_heavy == (0.95,)
    with pytest.raises(ValueError):
        beta_stability_sweep(sweep_graph(), grid_heavy=[1.0], grid_mostly=[0.75])


def test_absent_probe_is_refused():
    with pytest.raises(ValueError, match="probe AS99 is not a node of the graph"):
        beta_stability_sweep(sweep_graph(), [0.95], [0.75], probes=[1, 99, 98])


def test_default_point_is_the_graph_beta():
    beta = BetaParams(balanced=0.5, mostly=0.7, heavy=0.9)
    g = sweep_graph(beta)
    (row,) = beta_stability_sweep(g, [0.95], [0.75], probes=[10]).rows
    P = pagerank(google_matrix(g, direction="forward")).P
    assert row.pr_value == pytest.approx(P[g.as_index(10)], rel=0, abs=1e-9)


def test_report_counts_every_pagerank_iteration():
    g = sweep_graph()
    report = beta_stability_sweep(g, [0.95], [0.75])
    cold = sum(pagerank(google_matrix(g, direction=d)).iterations for d in ("forward", "reverse"))
    # The one grid point is the default point, so each warm start stops after one sweep.
    assert report.iterations == cold + 2


def test_sweep_prints_its_iterations(fixture_graph, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", "2020-01-01",
            "--grid-h", "0.9:0.95:2", "--grid-m", "0.6:0.8:2", "--out", str(out)]
    assert main(argv) == 0
    iterations = beta_stability_sweep(fixture_graph, [0.9, 0.95], [0.6, 0.8]).iterations
    assert f"in {iterations} PageRank iterations -> {out}" in capsys.readouterr().out


def test_variation_monotone_in_grid_size():
    g = sweep_graph()
    probes = default_probes(g)
    small = beta_stability_sweep(g, [0.92], [0.65], probes=probes)
    large = beta_stability_sweep(g, [0.92, 0.9, 0.98], [0.65, 0.6, 0.8], probes=probes)
    for a, b in zip(small.rows, large.rows):
        assert a.delta_pr_rank <= b.delta_pr_rank
        assert a.delta_rpr_rank <= b.delta_rpr_rank


def assert_sweep_matches_cold_reference(snap, grid_h, grid_m, beta_default, tol):
    g = build_graph(snap, beta_default)
    probes = default_probes(g)
    report = beta_stability_sweep(g, grid_h, grid_m, probes=probes, tol=tol)
    reference = cold_sweep(snap, grid_h, grid_m, probes, beta_default, 0.85, tol)
    for row in report.rows:
        pr_v, pr_r, d_pr_r, rpr_v, rpr_r, d_rpr_r, d_pr_v, d_rpr_v = reference[row.asn]
        assert (row.pr_rank, row.delta_pr_rank) == (pr_r, d_pr_r)
        assert (row.rpr_rank, row.delta_rpr_rank) == (rpr_r, d_rpr_r)
        assert row.pr_value == pytest.approx(pr_v, rel=0, abs=1e-9)
        assert row.rpr_value == pytest.approx(rpr_v, rel=0, abs=1e-9)
        assert row.delta_pr_value == pytest.approx(d_pr_v, rel=0, abs=1e-9)
        assert row.delta_rpr_value == pytest.approx(d_rpr_v, rel=0, abs=1e-9)


def test_sweep_matches_cold_reference_on_fixture(fixture_snapshot):
    assert_sweep_matches_cold_reference(
        fixture_snapshot, (0.9, 0.95, 0.99), (0.6, 0.7, 0.8), BetaParams(), tol=1e-10
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "beta_default", [BetaParams(), BetaParams(balanced=1.0)], ids=["default", "balanced1"]
)
def test_sweep_matches_cold_reference_on_random_snapshots(seed, beta_default):
    # A tolerance below the default one: random port sizes can put two
    # nodes closer than 1e-10 apart, where either order is a correct rank.
    snap = random_snapshot(np.random.default_rng(seed))
    assert_sweep_matches_cold_reference(
        snap, (0.5, 0.9, 1.0), (0.6, 0.8, 1.0), beta_default, tol=1e-13
    )


def test_default_probes_pick_top_capacity_per_class(fixture_graph):
    probes = default_probes(fixture_graph)
    assert 64500 in probes  # the dominant outbound network
    assert len(probes) == len(set(probes)) <= PROBES_PER_CLASS * len(TC)

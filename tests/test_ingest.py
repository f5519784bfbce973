"""Snapshot and ground-truth parsing."""
from __future__ import annotations

import json
from datetime import date as Date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peergraph.errors import GroundTruthFormatError, SnapshotFormatError
from peergraph.ingest import (
    TrafficClass,
    as_port_capacity,
    capacity_timeseries,
    load_ground_truth,
    parse_snapshot,
    validate_snapshot,
)

from conftest import make_snapshot

D = Date(2020, 1, 1)


def write_dump(tmp_path, net, ix, netixlan, name="dump.json", wrap=False):
    payload = {"net": net, "ix": ix, "netixlan": netixlan}
    if wrap:
        payload = {key: {"data": value} for key, value in payload.items()}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASIC_NET = [
    {"asn": 10, "name": "a", "info_ratio": "Balanced", "info_scope": "Global", "info_type": "NSP"},
    {"asn": 20, "name": "b", "info_ratio": "Heavy Outbound", "info_scope": "Europe", "info_type": "Content"},
]
BASIC_IX = [{"id": 1, "name": "x", "country": "DE"}]
BASIC_NETIXLAN = [
    {"asn": 10, "ix_id": 1, "speed": 1000},
    {"asn": 20, "ix_id": 1, "speed": 2000},
]


def test_parse_counts(tmp_path):
    path = write_dump(tmp_path, BASIC_NET, BASIC_IX, BASIC_NETIXLAN)
    snap = parse_snapshot(path, D)
    assert (len(snap.networks), len(snap.ixps), len(snap.memberships)) == (2, 1, 2)
    assert snap.report.networks == 2


def test_parse_accepts_wrapped_sections(tmp_path):
    bare = parse_snapshot(write_dump(tmp_path, BASIC_NET, BASIC_IX, BASIC_NETIXLAN), D)
    wrapped = parse_snapshot(
        write_dump(tmp_path, BASIC_NET, BASIC_IX, BASIC_NETIXLAN, name="w.json", wrap=True), D
    )
    assert bare == wrapped


def test_missing_info_ratio_maps_to_not_disclosed(tmp_path):
    net = [{"asn": 10, "name": "a"}]
    snap = parse_snapshot(write_dump(tmp_path, net, BASIC_IX, []), D)
    assert snap.network_by_asn[10].info_ratio is TrafficClass.NOT_DISCLOSED
    assert snap.network_by_asn[10].info_type == "Not Disclosed"


def test_unknown_ratio_text_maps_to_not_disclosed():
    assert TrafficClass.from_text("???") is TrafficClass.NOT_DISCLOSED
    assert TrafficClass.from_text(None) is TrafficClass.NOT_DISCLOSED
    assert TrafficClass.from_text("heavy outbound") is TrafficClass.HEAVY_OUTBOUND


def test_membership_to_unknown_ixp_dropped(tmp_path):
    bad = BASIC_NETIXLAN + [{"asn": 10, "ix_id": 99, "speed": 500}]
    snap = parse_snapshot(write_dump(tmp_path, BASIC_NET, BASIC_IX, bad), D)
    assert len(snap.memberships) == 2
    assert snap.report.unresolved_memberships == 1


def test_malformed_rows_counted_not_fatal(tmp_path):
    net = BASIC_NET + [{"asn": "not-a-number"}, {"name": "no asn"}]
    netixlan = BASIC_NETIXLAN + [{"asn": 10, "ix_id": 1, "speed": -5}, {"asn": 10}]
    snap = parse_snapshot(write_dump(tmp_path, net, BASIC_IX, netixlan), D)
    assert snap.report.invalid_networks == 2
    assert snap.report.invalid_memberships == 2
    assert len(snap.memberships) == 2


def test_non_finite_speeds_counted_invalid(tmp_path):
    # json writes these as NaN / Infinity / -Infinity, which json.loads accepts
    netixlan = BASIC_NETIXLAN + [
        {"asn": 10, "ix_id": 1, "speed": float("nan")},
        {"asn": 20, "ix_id": 1, "speed": float("inf")},
        {"asn": 20, "ix_id": 1, "speed": float("-inf")},
    ]
    snap = parse_snapshot(write_dump(tmp_path, BASIC_NET, BASIC_IX, netixlan), D)
    assert snap.report.invalid_memberships == 3
    assert [m.port_size for m in snap.memberships] == [1000.0, 2000.0]


def test_missing_speed_kept_as_zero(tmp_path):
    netixlan = [{"asn": 10, "ix_id": 1}, {"asn": 10, "ix_id": 1, "speed": None}]
    snap = parse_snapshot(write_dump(tmp_path, BASIC_NET, BASIC_IX, netixlan), D)
    assert [m.port_size for m in snap.memberships] == [0.0, 0.0]


def test_duplicate_asn_last_wins(tmp_path):
    net = BASIC_NET + [{"asn": 10, "name": "newer", "info_ratio": "Mostly Inbound"}]
    snap = parse_snapshot(write_dump(tmp_path, net, BASIC_IX, []), D)
    assert snap.network_by_asn[10].name == "newer"
    assert snap.report.duplicate_networks == 1


def test_malformed_top_level_fatal(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"net": []}))
    with pytest.raises(SnapshotFormatError):
        parse_snapshot(path, D)
    path.write_text("{ not json")
    with pytest.raises(SnapshotFormatError):
        parse_snapshot(path, D)


def test_parse_is_deterministic(tmp_path):
    path = write_dump(tmp_path, BASIC_NET, BASIC_IX, BASIC_NETIXLAN)
    assert parse_snapshot(path, D) == parse_snapshot(path, D)


def test_every_membership_resolves(tmp_path):
    bad = BASIC_NETIXLAN + [{"asn": 999, "ix_id": 1, "speed": 10}]
    snap = parse_snapshot(write_dump(tmp_path, BASIC_NET, BASIC_IX, bad), D)
    for m in snap.memberships:
        assert m.asn in snap.network_by_asn
        assert m.ixp_id in snap.ixp_by_id


# --- outlier screening ---


def outlier_snapshot(big_capacity: float):
    return make_snapshot(
        networks=[(1, TrafficClass.BALANCED), (2, TrafficClass.BALANCED)],
        ixps=[(1, "DE")],
        memberships=[(1, 1, 100.0), (2, 1, big_capacity)],
    )


def test_outlier_hundredfold_flagged():
    snap = outlier_snapshot(100.0 * 100.0)
    reports = validate_snapshot(snap, reference_capacity=100.0)
    assert [r.asn for r in reports] == [2]
    assert reports[0].total_capacity == 10_000.0


def test_no_outliers_empty_report():
    snap = outlier_snapshot(500.0)
    assert validate_snapshot(snap, reference_capacity=100.0) == ()


def test_outlier_boundary_is_strict():
    snap = outlier_snapshot(1000.0)  # exactly 10x the reference
    assert validate_snapshot(snap, reference_capacity=100.0) == ()
    assert [r.asn for r in validate_snapshot(snap, reference_capacity=99.9999)] == [2]


def test_outlier_details_keep_membership_order():
    snap = make_snapshot(
        networks=[(1, TrafficClass.BALANCED), (2, TrafficClass.BALANCED), (3, TrafficClass.BALANCED)],
        ixps=[(1, "DE"), (2, "US")],
        memberships=[
            (2, 1, 600.0), (1, 1, 10.0), (3, 2, 5000.0),
            (2, 2, 700.0), (3, 1, 40.0), (2, 1, 50.0),
        ],
    )
    reports = validate_snapshot(snap, reference_capacity=100.0, factor=1.0)
    assert [(r.asn, r.total_capacity, r.memberships) for r in reports] == [
        (3, 5040.0, ((2, 5000.0), (1, 40.0))),
        (2, 1350.0, ((1, 600.0), (2, 700.0), (1, 50.0))),
    ]


def test_outlier_requires_positive_reference():
    with pytest.raises(ValueError):
        validate_snapshot(outlier_snapshot(1.0), reference_capacity=0.0)


# --- ground truth ---


def test_asorg_row(tmp_path):
    path = tmp_path / "asorg.csv"
    path.write_text("15169,US\n")
    truth = load_ground_truth(asorg_path=path)
    assert truth.as_country[15169] == "US"


def test_apnic_row(tmp_path):
    path = tmp_path / "apnic.csv"
    path.write_text("7922,US,15.0,3\n")
    truth = load_ground_truth(apnic_paths=[path])
    assert truth.eums[(7922, "US")].share == 15.0
    assert truth.eums[(7922, "US")].rank == 3


def test_duplicate_row_last_wins(tmp_path):
    path = tmp_path / "asorg.csv"
    path.write_text("15169,US\n15169,BR\n")
    truth = load_ground_truth(asorg_path=path)
    assert truth.as_country[15169] == "BR"
    assert truth.report.duplicate_asorg == 1


def test_malformed_rows_skipped(tmp_path):
    path = tmp_path / "asorg.csv"
    path.write_text("# comment\nxx,US\n15169,US\n42,\n")
    truth = load_ground_truth(asorg_path=path)
    assert truth.as_country == {15169: "US"}
    assert truth.report.malformed_asorg == 2


def test_unreadable_ground_truth_fatal(tmp_path):
    with pytest.raises(GroundTruthFormatError):
        load_ground_truth(asorg_path=tmp_path / "missing.csv")


# --- capacity time series ---


def test_timeseries_sums_memberships():
    snap = make_snapshot(
        networks=[(1, TrafficClass.BALANCED)],
        ixps=[(1, "DE")],
        memberships=[(1, 1, 10.0), (1, 1, 20.0), (1, 1, 30.0)],
        date=D,
    )
    assert capacity_timeseries([snap]) == ((D, 60.0),)


def test_timeseries_empty_snapshot():
    snap = make_snapshot([(1, TrafficClass.BALANCED)], [(1, "DE")], [], date=D)
    assert capacity_timeseries([snap]) == ((D, 0.0),)


def test_timeseries_requires_snapshot():
    with pytest.raises(ValueError):
        capacity_timeseries([])


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30),
    split=st.integers(min_value=0, max_value=30),
)
def test_timeseries_is_additive(sizes, split):
    split = min(split, len(sizes))
    memberships = [(1, 1, float(s)) for s in sizes]
    base = [(1, TrafficClass.BALANCED)], [(1, "DE")]
    whole = capacity_timeseries([make_snapshot(*base, memberships, date=D)])
    left = capacity_timeseries([make_snapshot(*base, memberships[:split], date=D)])
    right = capacity_timeseries([make_snapshot(*base, memberships[split:], date=D)])
    assert whole[0][1] == left[0][1] + right[0][1]


def test_as_port_capacity():
    snap = make_snapshot(
        networks=[(1, TrafficClass.BALANCED), (2, TrafficClass.BALANCED)],
        ixps=[(1, "DE"), (2, "US")],
        memberships=[(1, 1, 10.0), (1, 2, 15.0), (2, 1, 7.0)],
    )
    assert as_port_capacity(snap) == {1: 25.0, 2: 7.0}

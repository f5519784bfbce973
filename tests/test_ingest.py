"""Snapshot and ground-truth parsing."""
from __future__ import annotations

import copy
import gc
import json
import tempfile
from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peergraph.errors import GroundTruthFormatError, PeergraphError, SnapshotFormatError
from peergraph.graph import build_graph
from peergraph.graphio import load_graph, save_graph
from peergraph.ingest import (
    CLASSES,
    TrafficClass,
    as_port_capacity,
    capacity_timeseries,
    load_as_countries,
    load_market_shares,
    parse_snapshot,
    validate_snapshot,
)

from conftest import (
    FIXTURE_SNAPSHOT,
    SNAPSHOT_COLUMNS,
    column_values,
    make_snapshot,
    random_snapshot,
    snapshot_fields,
)
from oracles import record_parse

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
    assert (snap.asn.size, snap.ixp_id.size, snap.port_size.size) == (2, 1, 2)
    assert snap.report.networks == 2


def test_parse_accepts_wrapped_sections(tmp_path):
    bare = parse_snapshot(write_dump(tmp_path, BASIC_NET, BASIC_IX, BASIC_NETIXLAN), D)
    wrapped = parse_snapshot(
        write_dump(tmp_path, BASIC_NET, BASIC_IX, BASIC_NETIXLAN, name="w.json", wrap=True), D
    )
    assert snapshot_fields(bare) == snapshot_fields(wrapped)


def test_missing_info_ratio_maps_to_not_disclosed(tmp_path):
    net = [{"asn": 10, "name": "a"}]
    snap = parse_snapshot(write_dump(tmp_path, net, BASIC_IX, []), D)
    assert snap.as_class.tolist() == [CLASSES.index(TrafficClass.NOT_DISCLOSED)]
    assert snap.as_type == ("Not Disclosed",)


def test_unknown_ratio_text_maps_to_not_disclosed():
    assert TrafficClass.from_text("???") is TrafficClass.NOT_DISCLOSED
    assert TrafficClass.from_text(None) is TrafficClass.NOT_DISCLOSED
    assert TrafficClass.from_text("heavy outbound") is TrafficClass.HEAVY_OUTBOUND


def test_membership_to_unknown_ixp_dropped(tmp_path):
    bad = BASIC_NETIXLAN + [{"asn": 10, "ix_id": 99, "speed": 500}]
    snap = parse_snapshot(write_dump(tmp_path, BASIC_NET, BASIC_IX, bad), D)
    assert snap.port_size.size == 2
    assert snap.report.unresolved_memberships == 1


def test_malformed_rows_counted_not_fatal(tmp_path):
    net = BASIC_NET + [{"asn": "not-a-number"}, {"name": "no asn"}]
    netixlan = BASIC_NETIXLAN + [{"asn": 10, "ix_id": 1, "speed": -5}, {"asn": 10}]
    snap = parse_snapshot(write_dump(tmp_path, net, BASIC_IX, netixlan), D)
    assert snap.report.invalid_networks == 2
    assert snap.report.invalid_memberships == 2
    assert snap.port_size.size == 2


def test_non_finite_speeds_counted_invalid(tmp_path):
    # json writes these as NaN / Infinity / -Infinity, which json.loads accepts
    netixlan = BASIC_NETIXLAN + [
        {"asn": 10, "ix_id": 1, "speed": float("nan")},
        {"asn": 20, "ix_id": 1, "speed": float("inf")},
        {"asn": 20, "ix_id": 1, "speed": float("-inf")},
    ]
    snap = parse_snapshot(write_dump(tmp_path, BASIC_NET, BASIC_IX, netixlan), D)
    assert snap.report.invalid_memberships == 3
    assert snap.port_size.tolist() == [1000.0, 2000.0]


def test_missing_speed_kept_as_zero(tmp_path):
    netixlan = [{"asn": 10, "ix_id": 1}, {"asn": 10, "ix_id": 1, "speed": None}]
    snap = parse_snapshot(write_dump(tmp_path, BASIC_NET, BASIC_IX, netixlan), D)
    assert snap.port_size.tolist() == [0.0, 0.0]


def test_duplicate_asn_last_wins(tmp_path):
    net = BASIC_NET + [{"asn": 10, "name": "newer", "info_ratio": "Mostly Inbound"}]
    snap = parse_snapshot(write_dump(tmp_path, net, BASIC_IX, []), D)
    assert snap.asn.tolist() == [10, 20]
    assert snap.as_name[0] == "newer"
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
    assert snapshot_fields(parse_snapshot(path, D)) == snapshot_fields(parse_snapshot(path, D))


def test_every_membership_resolves(tmp_path):
    bad = BASIC_NETIXLAN + [{"asn": 999, "ix_id": 1, "speed": 10}]
    snap = parse_snapshot(write_dump(tmp_path, BASIC_NET, BASIC_IX, bad), D)
    assert set(snap.port_asn.tolist()) <= set(snap.asn.tolist())
    assert set(snap.port_ixp_id.tolist()) <= set(snap.ixp_id.tolist())


def _set(section: str, row: int, key: str, value):
    return lambda dump: dump[section][row].__setitem__(key, value)


# Each case puts one number into a row of the basic dump that int64 or a
# float cannot hold; the row counts as invalid, and a membership of a
# dropped node as unresolved.
ROW_DEFECTS = {
    "AS number beyond int64": (
        _set("net", 1, "asn", 2**70), {"invalid_networks": 1, "unresolved_memberships": 1}
    ),
    "infinite AS number": (
        _set("net", 1, "asn", float("inf")), {"invalid_networks": 1, "unresolved_memberships": 1}
    ),
    "exchange id of 2**63": (
        _set("ix", 0, "id", 2**63), {"invalid_ixps": 1, "unresolved_memberships": 2}
    ),
    "400-digit speed": (_set("netixlan", 1, "speed", 10**400), {"invalid_memberships": 1}),
    "infinite membership AS number": (
        _set("netixlan", 0, "asn", float("-inf")), {"invalid_memberships": 1}
    ),
}


@pytest.mark.parametrize("defect", sorted(ROW_DEFECTS))
def test_unrepresentable_numbers_count_as_invalid_rows(tmp_path, defect):
    edit, dropped = ROW_DEFECTS[defect]
    dump = copy.deepcopy({"net": BASIC_NET, "ix": BASIC_IX, "netixlan": BASIC_NETIXLAN})
    edit(dump)
    report = parse_snapshot(write_dump(tmp_path, **dump), D).report
    drops = ("invalid_", "duplicate_", "unresolved_")
    assert {key: n for key, n in vars(report).items() if key.startswith(drops) and n} == dropped


# Each case puts a value of the wrong JSON type into a row of the basic dump:
# an id that is not a JSON integer, or a speed that is not a JSON number.
# The row counts as invalid, and a membership of a dropped node as unresolved.
MISTYPED_ROWS = {
    "fractional AS number": (
        _set("net", 1, "asn", 20.5), {"invalid_networks": 1, "unresolved_memberships": 1}
    ),
    "integral float AS number": (
        _set("net", 1, "asn", 20.0), {"invalid_networks": 1, "unresolved_memberships": 1}
    ),
    "boolean exchange id": (
        _set("ix", 0, "id", True), {"invalid_ixps": 1, "unresolved_memberships": 2}
    ),
    "padded string membership AS number": (
        _set("netixlan", 0, "asn", " 10 "), {"invalid_memberships": 1}
    ),
    "string speed": (_set("netixlan", 1, "speed", "2000"), {"invalid_memberships": 1}),
    "boolean speed": (_set("netixlan", 1, "speed", True), {"invalid_memberships": 1}),
}


@pytest.mark.parametrize("defect", sorted(MISTYPED_ROWS))
def test_mistyped_ids_and_speeds_count_as_invalid_rows(tmp_path, defect):
    edit, dropped = MISTYPED_ROWS[defect]
    dump = copy.deepcopy({"net": BASIC_NET, "ix": BASIC_IX, "netixlan": BASIC_NETIXLAN})
    edit(dump)
    report = parse_snapshot(write_dump(tmp_path, **dump), D).report
    drops = ("invalid_", "duplicate_", "unresolved_")
    assert {key: n for key, n in vars(report).items() if key.startswith(drops) and n} == dropped


def _not_utf8_name(data: bytes) -> bytes:
    return data.replace(b"Fixture-AS64502", b"Fixture-AS6450\xff", 1)


# Each case turns the fixture dump into a file that is not a dump; the
# message must name the file and what is wrong.
DUMP_DEFECTS = {
    "non-UTF-8 bytes": (_not_utf8_name, "line 20: not UTF-8"),
    "nesting past the recursion limit": (lambda data: b"[" * 100_000, "not valid JSON"),
    "integer past the digit limit": (
        lambda data: b'{"net": [{"asn": ' + b"7" * 5000 + b'}], "ix": [], "netixlan": []}',
        "not valid JSON",
    ),
    "missing section": (
        lambda data: b'{"net": [], "ix": []}', "dump is missing the 'netixlan' section"
    ),
}


@pytest.mark.parametrize("defect", sorted(DUMP_DEFECTS))
def test_defective_dump_names_file(tmp_path, defect):
    edit, fragment = DUMP_DEFECTS[defect]
    path = tmp_path / "dump.json"
    path.write_bytes(edit(FIXTURE_SNAPSHOT.read_bytes()))
    with pytest.raises(SnapshotFormatError) as info:
        parse_snapshot(path, D)
    assert str(info.value).startswith(f"{path}: ")
    assert fragment in str(info.value)


def _check_snapshot(snap) -> None:
    """The column invariants a parsed snapshot promises."""
    for name in SNAPSHOT_COLUMNS:
        column = getattr(snap, name)
        if isinstance(column, np.ndarray):
            assert not column.flags.writeable, name
    assert snap.asn.dtype == snap.ixp_id.dtype == np.int64
    assert snap.as_class.dtype == np.int8 and snap.port_size.dtype == np.float64
    assert (np.diff(snap.asn) > 0).all() and (np.diff(snap.ixp_id) > 0).all()
    assert len(snap.as_name) == len(snap.as_scope) == len(snap.as_type) == snap.asn.size
    assert len(snap.ixp_name) == len(snap.ixp_country) == snap.ixp_id.size
    assert np.isin(snap.port_asn, snap.asn).all()
    assert np.isin(snap.port_ixp_id, snap.ixp_id).all()
    assert (np.isfinite(snap.port_size) & (snap.port_size >= 0)).all()


@settings(max_examples=200, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.binary(max_size=3), st.integers(0, 3)),
        min_size=1,
        max_size=4,
    )
)
def test_parse_gives_snapshot_or_typed_error(edits):
    data = bytearray(FIXTURE_SNAPSHOT.read_bytes())
    for at, insert, cut in edits:
        at %= len(data) + 1
        data[at : at + cut] = insert
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.json"
        path.write_bytes(bytes(data))
        try:
            snap = parse_snapshot(path, D)
        except PeergraphError:
            return
    _check_snapshot(snap)


def record_fields(parsed) -> dict:
    """What :func:`snapshot_fields` gives, from the records of ``record_parse``."""
    nets, ixps, ports = parsed.networks, parsed.ixps, parsed.memberships
    return {
        "date": D,
        "report": parsed.report,
        "asn": [n.asn for n in nets],
        "as_class": [list(TrafficClass).index(n.info_ratio) for n in nets],
        "as_name": tuple(n.name for n in nets),
        "as_scope": tuple(n.info_scope for n in nets),
        "as_type": tuple(n.info_type for n in nets),
        "ixp_id": [x.ixp_id for x in ixps],
        "ixp_name": tuple(x.name for x in ixps),
        "ixp_country": tuple(x.country for x in ixps),
        "port_asn": [m.asn for m in ports],
        "port_ixp_id": [m.ixp_id for m in ports],
        "port_size": [m.port_size for m in ports],
    }


# For each field: the values of a well-formed row, and values that are not.
# Ids come from a small pool, so that they repeat and memberships miss.
ID = (
    st.integers(1, 4),
    st.sampled_from([0, -3, 2**63 - 1, 2**63, 2**70, 10**400, 3.0, 4.5, True, "2", " 3 ", "x",
                     "", None, [1], {"id": 1}, float("nan"), float("inf"), float("-inf")]),
)
TEXT = (
    st.text(st.sampled_from("aZ é中"), max_size=4),
    st.one_of(
        st.text(st.sampled_from("a\ud800\udc00"), max_size=3),
        st.sampled_from([None, 0, 7, 1.5, ["x"]]),
    ),
)
RATIO = (st.sampled_from([tc.value for tc in TrafficClass]), TEXT[0] | TEXT[1] | st.just("???"))
SPEED = (
    st.integers(0, 10**6),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([None, -1, 10**400, "100", "fast", True, [10]]),
    ),
)


def rows(required: dict, optional: dict):
    """A section whose rows are well formed in about three of four draws.

    The others may miss any key, hold any value or not be objects.
    """
    good = st.fixed_dictionaries(
        {key: usual for key, (usual, _) in required.items()},
        optional={key: usual for key, (usual, _) in optional.items()},
    )
    either = {key: usual | unusual for key, (usual, unusual) in (required | optional).items()}
    odd = st.fixed_dictionaries({}, optional=either)
    not_rows = st.sampled_from([None, 3, "row", [1, 2]])
    row = st.sampled_from([good, good, good, odd, not_rows]).flatmap(lambda strategy: strategy)
    return st.lists(row, max_size=12).flatmap(lambda r: st.sampled_from([r, {"data": r}]))


@settings(max_examples=300, deadline=None)
@given(
    net=rows({"asn": ID}, {"name": TEXT, "info_ratio": RATIO, "info_scope": TEXT,
                           "info_type": TEXT}),
    ix=rows({"id": ID}, {"name": TEXT, "country": TEXT}),
    netixlan=rows({"asn": ID, "ix_id": ID}, {"speed": SPEED}),
)
def test_column_parser_matches_record_parser(net, ix, netixlan):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.json"
        path.write_text(json.dumps({"net": net, "ix": ix, "netixlan": netixlan}))
        snap = parse_snapshot(path, D)
        expected = record_fields(record_parse(path))
    _check_snapshot(snap)
    assert snapshot_fields(snap) == expected


# --- outlier screening ---


def outlier_snapshot(big_capacity: float):
    return make_snapshot(
        networks=[(1, TrafficClass.BALANCED), (2, TrafficClass.BALANCED)],
        ixps=[(1, "DE")],
        memberships=[(1, 1, 100.0), (2, 1, big_capacity)],
    )


def dump_records(snap):
    """The net, ix and netixlan records of a dump that parses to ``snap``'s columns."""
    net = [
        {"asn": a, "name": n, "info_ratio": CLASSES[c].value, "info_scope": s, "info_type": t}
        for a, c, n, s, t in zip(
            snap.asn.tolist(), snap.as_class.tolist(), snap.as_name, snap.as_scope, snap.as_type
        )
    ]
    ix = [
        {"id": i, "name": n, "country": c}
        for i, n, c in zip(snap.ixp_id.tolist(), snap.ixp_name, snap.ixp_country)
    ]
    netixlan = [
        {"asn": a, "ix_id": x, "speed": s}
        for a, x, s in zip(
            snap.port_asn.tolist(), snap.port_ixp_id.tolist(), snap.port_size.tolist()
        )
    ]
    return net, ix, netixlan


@pytest.fixture()
def decoders(tmp_path):
    """Each function that decodes a JSON file, with a valid input for it.

    The inputs hold thousands of records: decoding one with the collector
    on runs collections.
    """
    snap = random_snapshot(np.random.default_rng(0), max_as=3000, max_ixp=300)
    dump = write_dump(tmp_path, *dump_records(snap))
    assert column_values(parse_snapshot(dump, D), SNAPSHOT_COLUMNS) == column_values(
        snap, SNAPSHOT_COLUMNS
    )
    graph = save_graph(build_graph(snap), tmp_path / "graph.json")
    return {"parse_snapshot": (lambda path: parse_snapshot(path, D), dump),
            "load_graph": (load_graph, graph)}


@pytest.fixture()
def collections():
    """The generation of each collection that starts while the test runs."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    yield started
    gc.callbacks.remove(record)


@pytest.mark.parametrize("decoder", ["parse_snapshot", "load_graph"])
def test_decoding_runs_no_collection(decoders, collections, decoder):
    decode, path = decoders[decoder]
    assert gc.isenabled()
    json.loads(path.read_bytes())
    assert collections, "the input is too small for the collector to run"
    collections.clear()
    decode(path)
    assert collections == []
    assert gc.isenabled()


@pytest.mark.parametrize("decoder", ["parse_snapshot", "load_graph"])
def test_decoding_restores_the_collector_state(decoders, tmp_path, decoder):
    decode, path = decoders[decoder]
    not_json = tmp_path / "not.json"
    not_json.write_text("{")
    with pytest.raises(SnapshotFormatError):
        decode(not_json)
    assert gc.isenabled()
    # A caller that paused the collector finds it paused still.
    gc.disable()
    try:
        decode(path)
        assert not gc.isenabled()
        with pytest.raises(SnapshotFormatError):
            decode(not_json)
        assert not gc.isenabled()
    finally:
        gc.enable()


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


def test_outliers_sorted_by_descending_capacity():
    snap = make_snapshot(
        networks=[(1, TrafficClass.BALANCED), (2, TrafficClass.BALANCED), (3, TrafficClass.BALANCED)],
        ixps=[(1, "DE"), (2, "US")],
        memberships=[
            (2, 1, 600.0), (1, 1, 10.0), (3, 2, 5000.0),
            (2, 2, 700.0), (3, 1, 40.0), (2, 1, 50.0),
        ],
    )
    reports = validate_snapshot(snap, reference_capacity=100.0, factor=1.0)
    assert [(r.asn, r.total_capacity, r.threshold) for r in reports] == [
        (3, 5040.0, 100.0),
        (2, 1350.0, 100.0),
    ]


def test_outlier_requires_positive_reference():
    with pytest.raises(ValueError):
        validate_snapshot(outlier_snapshot(1.0), reference_capacity=0.0)


@pytest.mark.parametrize(
    "reference, factor", [(100.0, np.nan), (100.0, np.inf), (np.nan, 10.0), (np.inf, 10.0)]
)
def test_outlier_screen_refuses_non_finite_reference_or_factor(reference, factor):
    with pytest.raises(ValueError, match="must be finite and positive"):
        validate_snapshot(outlier_snapshot(1.0), reference_capacity=reference, factor=factor)


# --- ground truth ---


def test_asorg_row(tmp_path):
    path = tmp_path / "asorg.csv"
    path.write_text("15169,us\n")
    assert load_as_countries(path) == {15169: "US"}


def test_apnic_row(tmp_path):
    path = tmp_path / "apnic.csv"
    path.write_text("7922,us,15.0,3\n")
    assert load_market_shares([path]) == {(7922, "US"): 15.0}


def test_duplicate_row_last_wins(tmp_path):
    asorg = tmp_path / "asorg.csv"
    asorg.write_text("15169,US\n15169,BR\n")
    assert load_as_countries(asorg) == {15169: "BR"}
    first, second = tmp_path / "apnic1.csv", tmp_path / "apnic2.csv"
    first.write_text("7922,US,15.0,3\n7922,US,16.0,2\n")
    second.write_text("7922,US,17.0,1\n7922,DE,1.0,9\n")
    assert load_market_shares([first]) == {(7922, "US"): 16.0}
    assert load_market_shares([first, second]) == {(7922, "US"): 17.0, (7922, "DE"): 1.0}


def test_malformed_rows_skipped(tmp_path):
    path = tmp_path / "asorg.csv"
    path.write_text("# comment\nxx,US\n15169,US\n42,\n")
    assert load_as_countries(path) == {15169: "US"}


def test_malformed_market_share_rows_skipped(tmp_path):
    path = tmp_path / "apnic.csv"
    path.write_text(
        "# asn,cc,eums,rank\n"
        "1,US,10.0,1\n"
        "2,US,10.0\n"  # no rank
        "3,,10.0,1\n"  # no country
        "x,US,10.0,1\n"
        "4,US,ten,1\n"
        "5,US,10.0,first\n"
        "6,US,100.5,1\n"  # share above 100
        "7,US,-0.5,1\n"  # share below 0
        "8,US,nan,1\n"
        "9,US,10.0,0\n"  # rank below 1
        "10,US,100.0,2\n"
    )
    assert load_market_shares([path]) == {(1, "US"): 10.0, (10, "US"): 100.0}


def test_unreadable_ground_truth_fatal(tmp_path):
    with pytest.raises(GroundTruthFormatError):
        load_as_countries(tmp_path / "missing.csv")
    with pytest.raises(GroundTruthFormatError):
        load_market_shares([tmp_path / "missing.csv"])


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


def test_timeseries_refuses_a_total_that_overflows():
    snap = make_snapshot(
        networks=[(1, TrafficClass.BALANCED), (2, TrafficClass.BALANCED)],
        ixps=[(1, "DE")],
        memberships=[(2, 1, 5.0), (1, 1, 1e308), (2, 1, 1e308), (1, 1, 5.0)],
        date=D,
    )
    empty = make_snapshot([(1, TrafficClass.BALANCED)], [(1, "DE")], [], date=D)
    with pytest.raises(ValueError) as info:
        capacity_timeseries([empty, snap])
    # the memberships are summed in dump order: AS2's second port overflows
    assert str(info.value) == "port capacity sums past the float range at AS2"


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

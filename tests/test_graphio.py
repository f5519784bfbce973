"""Native graph JSON, matrix CSVs, exports, subset files."""
from __future__ import annotations

import errno
import functools
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peergraph.errors import PeergraphError, SnapshotFormatError
from peergraph.graph import BetaParams, _assemble, build_graph
from peergraph.graphio import (
    export_edgelist,
    export_gexf,
    export_weight_csv,
    load_graph,
    load_reduced_csv,
    read_subset_file,
    save_graph,
    write_change_csv,
    write_rank_csv,
    write_reduced_csv,
)
from peergraph.ingest import TrafficClass, parse_snapshot
from peergraph.spectral import (
    censor_diagonal,
    google_matrix,
    pagerank,
    rank_table,
    reduced_google_matrix,
    relative_change,
)

from conftest import (
    FIXTURE_DATE,
    FIXTURE_SNAPSHOT,
    GOLDEN_DIR,
    NODE_COLUMNS,
    column_values,
    edge_dict,
    make_snapshot,
    node_columns,
    random_graph,
    random_snapshot,
)
from oracles import edge_list, json_graph_text, loop_weight_matrix, networkx_gexf

# The default beta and the all-ones beta, which leaves links of zero weight.
BETAS = st.sampled_from([BetaParams(), BetaParams(balanced=1.0, mostly=1.0, heavy=1.0)])

TC = TrafficClass


def test_graph_round_trip(fixture_graph, tmp_path):
    path = tmp_path / "graph.json"
    save_graph(fixture_graph, path)
    loaded = load_graph(path)
    assert column_values(loaded, NODE_COLUMNS) == column_values(fixture_graph, NODE_COLUMNS)
    assert edge_dict(loaded) == edge_dict(fixture_graph)
    assert loaded.beta == fixture_graph.beta
    assert loaded.date == fixture_graph.date
    assert (loaded.W != fixture_graph.W).nnz == 0


def test_graph_serialization_deterministic(fixture_graph, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(fixture_graph, a)
    save_graph(load_graph(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    with pytest.raises(SnapshotFormatError):
        load_graph(path)


@functools.cache
def _saved_fixture() -> bytes:
    """The fixture graph as :func:`save_graph` writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        save_graph(build_graph(parse_snapshot(FIXTURE_SNAPSHOT, FIXTURE_DATE)), path)
        return path.read_bytes()


# Each case turns the saved fixture graph into bytes that are not JSON text;
# the message must name the file and what is wrong.
GRAPH_TEXT_DEFECTS = {
    "non-UTF-8 bytes": (
        lambda data: data.replace(b"Fixture-AS64502", b"Fixture-AS6450\xff", 1),
        "line 22: not UTF-8",
    ),
    "nesting past the recursion limit": (lambda data: b"[" * 100_000, "not valid JSON"),
    "integer past the digit limit": (
        lambda data: data.replace(b'"asn": 64500', b'"asn": ' + b"7" * 5000, 1),
        "not valid JSON",
    ),
}


@pytest.mark.parametrize("defect", sorted(GRAPH_TEXT_DEFECTS))
def test_load_names_file_of_undecodable_graph(tmp_path, defect):
    edit, fragment = GRAPH_TEXT_DEFECTS[defect]
    path = tmp_path / "graph.json"
    path.write_bytes(edit(_saved_fixture()))
    with pytest.raises(SnapshotFormatError) as info:
        load_graph(path)
    assert str(info.value).startswith(f"{path}: ")
    assert fragment in str(info.value)


@settings(max_examples=200, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.binary(max_size=3), st.integers(0, 3)),
        min_size=1,
        max_size=4,
    )
)
def test_load_gives_graph_or_typed_error(edits):
    data = bytearray(_saved_fixture())
    for at, insert, cut in edits:
        at %= len(data) + 1
        data[at : at + cut] = insert
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_bytes(bytes(data))
        try:
            g = load_graph(path)
        except PeergraphError:
            return
        save_graph(g, path)  # every loaded graph can be written back
    assert (np.diff(g.asn) > 0).all() and (np.diff(g.ixp_id) > 0).all()
    assert ((0 <= g.edge_as) & (g.edge_as < g.n_as)).all()
    assert ((g.n_as <= g.edge_ixp) & (g.edge_ixp < g.n_nodes)).all()
    assert (np.isfinite(g.port_size) & (g.port_size > 0)).all()
    assert np.isfinite(g.W.data).all()


def _first_edge(p):
    return p["edges"][0]


# Each case edits the saved fixture graph into one defect; the message must
# name the record.
LOAD_DEFECTS = {
    "version": (lambda p: p.update(version=2), "version 2"),
    "duplicate AS": (lambda p: p["as_nodes"].append(dict(p["as_nodes"][3])), "is listed twice"),
    "duplicate IXP": (
        lambda p: p["ixp_nodes"].insert(0, dict(p["ixp_nodes"][-1])), "is listed twice"
    ),
    "duplicate edge": (lambda p: p["edges"].append(list(_first_edge(p))), "is listed twice"),
    # In sorted position, so the loader finds the edges in order and does not sort.
    "adjacent duplicate edge": (
        lambda p: p["edges"].insert(1, list(_first_edge(p))), "AS64500-IX1 is listed twice"
    ),
    "unlisted AS": (lambda p: p["edges"].append([99999, 1, 10.0]), "AS99999-IX1"),
    "unlisted IXP": (lambda p: p["edges"].append([64500, 99, 10.0]), "AS64500-IX99"),
    "NaN port size": (lambda p: _first_edge(p).__setitem__(2, float("nan")), "nan"),
    "infinite port size": (lambda p: _first_edge(p).__setitem__(2, float("inf")), "inf"),
    "zero port size": (lambda p: _first_edge(p).__setitem__(2, 0.0), "0.0"),
    "negative port size": (lambda p: _first_edge(p).__setitem__(2, -5.0), "-5.0"),
    "missing AS key": (lambda p: p["as_nodes"][2].pop("info_type"), "as_nodes[2]"),
    "missing IXP key": (lambda p: p["ixp_nodes"][1].pop("country"), "ixp_nodes[1]"),
    "missing top-level key": (lambda p: p.pop("edges"), "'edges'"),
    "malformed edge": (lambda p: p["edges"].insert(4, [64500, "IX1", 10.0]), "edges[4]"),
    "AS id beyond int64": (lambda p: p["as_nodes"][3].update(asn=2**70), "as_nodes[3]"),
    "AS id zero": (lambda p: p["as_nodes"][0].update(asn=0), "as_nodes[0]"),
    "negative IXP id": (lambda p: p["ixp_nodes"][0].update(id=-1), "ixp_nodes[0]"),
    # Edge fields follow the node rule: an id is a JSON integer, never a
    # boolean or a float, and a port size is a JSON number, never a boolean.
    "boolean IXP id in edge": (lambda p: _first_edge(p).__setitem__(1, True), "edges[0]"),
    "float asn in edge": (lambda p: _first_edge(p).__setitem__(0, 64500.0), "edges[0]"),
    "boolean port size": (lambda p: _first_edge(p).__setitem__(2, True), "edges[0]"),
}


@pytest.mark.parametrize("defect", sorted(LOAD_DEFECTS))
def test_load_rejects_defective_graph(fixture_graph, tmp_path, defect):
    edit, fragment = LOAD_DEFECTS[defect]
    path = tmp_path / "graph.json"
    save_graph(fixture_graph, path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(SnapshotFormatError) as info:
        load_graph(path)
    assert str(path) in str(info.value)
    assert fragment in str(info.value)


def test_edge_ids_beyond_float_precision_round_trip(fixture_graph, tmp_path):
    big = 2**60 + 1  # float64 rounds it to 2**60
    path = tmp_path / "graph.json"
    save_graph(fixture_graph, path)
    payload = json.loads(path.read_text())
    payload["as_nodes"].append(dict(payload["as_nodes"][0], asn=big))
    payload["edges"].append([big, 1, 5.0])
    path.write_text(json.dumps(payload))
    loaded = load_graph(path)
    assert (big, 1, 5.0) in edge_list(loaded)
    save_graph(loaded, path)
    assert [big, 1, 5.0] in json.loads(path.read_text())["edges"]
    assert edge_list(load_graph(path)) == edge_list(loaded)


def test_load_sorts_unsorted_records(fixture_graph, tmp_path):
    path = tmp_path / "graph.json"
    save_graph(fixture_graph, path)
    payload = json.loads(path.read_text())
    for key in ("as_nodes", "ixp_nodes", "edges"):
        payload[key].reverse()
    path.write_text(json.dumps(payload))
    loaded = load_graph(path)
    assert column_values(loaded, NODE_COLUMNS) == column_values(fixture_graph, NODE_COLUMNS)
    assert edge_list(loaded) == edge_list(fixture_graph)
    assert (loaded.W != fixture_graph.W).nnz == 0


# Edges 0 and 1 of the saved fixture graph share their AS; edges 4 and 5 do not.
@pytest.mark.parametrize("k", [0, 4])
def test_load_sorts_one_swapped_pair_of_edges(fixture_graph, tmp_path, k):
    path = tmp_path / "graph.json"
    save_graph(fixture_graph, path)
    saved = path.read_bytes()
    payload = json.loads(saved)
    edges = payload["edges"]
    edges[k], edges[k + 1] = edges[k + 1], edges[k]
    path.write_text(json.dumps(payload))
    loaded = load_graph(path)
    assert column_values(loaded, NODE_COLUMNS) == column_values(fixture_graph, NODE_COLUMNS)
    assert edge_list(loaded) == edge_list(fixture_graph)
    save_graph(loaded, path)
    assert path.read_bytes() == saved


# Each case gives one node field of the saved fixture graph the wrong JSON
# type or a lone surrogate; the message must name the record.
NODE_DEFECTS = {
    "fractional asn": (lambda p: p["as_nodes"][3].update(asn=64503.7), "as_nodes[3]"),
    "string asn": (lambda p: p["as_nodes"][3].update(asn="64503"), "as_nodes[3]"),
    "boolean asn": (lambda p: p["as_nodes"][3].update(asn=True), "as_nodes[3]"),
    "fractional IXP id": (lambda p: p["ixp_nodes"][1].update(id=2.0), "ixp_nodes[1]"),
    "numeric AS name": (lambda p: p["as_nodes"][2].update(name=7), "as_nodes[2]"),
    "null scope": (lambda p: p["as_nodes"][2].update(info_scope=None), "as_nodes[2]"),
    "numeric type": (lambda p: p["as_nodes"][5].update(info_type=1.5), "as_nodes[5]"),
    "numeric IXP name": (lambda p: p["ixp_nodes"][0].update(name=3), "ixp_nodes[0]"),
    "list country": (lambda p: p["ixp_nodes"][1].update(country=["DE"]), "ixp_nodes[1]"),
    "lone surrogate in AS name": (
        lambda p: p["as_nodes"][4].update(name="\ud800bad"), "as_nodes[4]"
    ),
    "lone surrogate in country": (
        lambda p: p["ixp_nodes"][2].update(country="D\udc00"), "ixp_nodes[2]"
    ),
}


@pytest.mark.parametrize("defect", sorted(NODE_DEFECTS))
def test_load_rejects_mistyped_node_field(fixture_graph, tmp_path, defect):
    edit, fragment = NODE_DEFECTS[defect]
    path = tmp_path / "graph.json"
    save_graph(fixture_graph, path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(SnapshotFormatError) as info:
        load_graph(path)
    assert str(path) in str(info.value)
    assert fragment in str(info.value)


def test_edgelist_export_writes_nothing_for_text_utf8_cannot_hold(fixture_graph, tmp_path):
    as_columns, (ixp_id, ixp_name, ixp_country) = node_columns(fixture_graph)
    ixp_name = tuple("\ud800bad" if i == 2 else name for i, name in enumerate(ixp_name))
    g = _assemble(
        as_columns, (ixp_id, ixp_name, ixp_country),
        *zip(*edge_list(fixture_graph)), fixture_graph.beta, fixture_graph.date,
    )
    with pytest.raises(UnicodeEncodeError):
        export_edgelist(g, tmp_path / "e.csv")
    assert list(tmp_path.iterdir()) == []


def test_reduced_csv_round_trip(fixture_graph, tmp_path):
    G = google_matrix(fixture_graph, direction="reverse")
    subset = [fixture_graph.as_index(a) for a in (64500, 64501, 64504)]
    R = reduced_google_matrix(G, subset)
    from dataclasses import replace

    R = replace(censor_diagonal(R), date=fixture_graph.date)
    path = tmp_path / "reduced.csv"
    write_reduced_csv(R, path)
    loaded = load_reduced_csv(path)
    assert loaded.labels == R.labels
    assert loaded.direction == "reverse"
    assert loaded.censored
    assert loaded.date == fixture_graph.date
    assert np.abs(loaded.GR - R.GR).max() == 0.0  # repr() round-trips exactly


def _edit_line(n, old, new):
    def edit(lines):
        assert old in lines[n - 1]
        lines[n - 1] = lines[n - 1].replace(old, new, 1)
    return edit


# Each case edits the reduced-matrix golden (line 1 the comment, line 2 the
# header, line 3 the first row) into one defect; the message must name the
# line.
REDUCED_DEFECTS = {
    "NaN cell": (_edit_line(4, b",0.0", b",nan"), "line 4"),
    "infinite cell": (_edit_line(5, b",0.0", b",-inf"), "line 5"),
    "non-numeric cell": (_edit_line(3, b",0.0", b",zero"), "line 3"),
    "ragged row": (_edit_line(6, b",0.0", b""), "line 6"),
    "row label mismatch": (_edit_line(4, b"AS64501,", b"AS64504,"), "line 4"),
    "duplicate label": (
        lambda lines: [_edit_line(n, b"AS64504", b"AS64500")(lines) for n in (2, 5)],
        "line 2",
    ),
    "bad alpha": (_edit_line(1, b"alpha=0.85", b"alpha=high"), "line 1"),
    "alpha out of range": (_edit_line(1, b"alpha=0.85", b"alpha=1.5"), "line 1"),
    "bad date": (_edit_line(1, b"date=2020-01-01", b"date=2020-13-01"), "line 1"),
    "bad direction": (_edit_line(1, b"direction=reverse", b"direction=up"), "line 1"),
    "non-UTF-8 bytes": (_edit_line(4, b"AS64501", b"AS6450\xff"), "line 4"),
    "no comment line": (lambda lines: lines.pop(0), "line 1"),
    "diff file": (_edit_line(1, b"peergraph=reduced", b"peergraph=diff"), "line 1"),
    "missing key": (_edit_line(1, b" censored=1", b""), "line 1: the comment line has no censored"),
    "no header row": (_edit_line(2, b"node,", b"nodes,"), "line 2"),
}


@pytest.mark.parametrize("defect", sorted(REDUCED_DEFECTS))
def test_load_reduced_rejects_defective_csv(tmp_path, defect):
    edit, fragment = REDUCED_DEFECTS[defect]
    lines = (GOLDEN_DIR / "reduced_reverse.csv").read_bytes().splitlines()
    edit(lines)
    path = tmp_path / "reduced.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(SnapshotFormatError) as info:
        load_reduced_csv(path)
    assert str(path) in str(info.value)
    assert fragment in str(info.value)


@settings(max_examples=200, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.binary(max_size=3), st.integers(0, 3)),
        min_size=1,
        max_size=4,
    )
)
def test_load_reduced_gives_matrix_or_typed_error(edits):
    data = bytearray((GOLDEN_DIR / "reduced_reverse.csv").read_bytes())
    for at, insert, cut in edits:
        at %= len(data) + 1
        data[at : at + cut] = insert
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reduced.csv"
        path.write_bytes(bytes(data))
        try:
            R = load_reduced_csv(path)
        except SnapshotFormatError:
            return
    assert R.GR.shape == (len(R.labels), len(R.labels))
    assert np.isfinite(R.GR).all()


@pytest.mark.parametrize("name", ["reduced_reverse.csv", "reduced_reverse_beta90.csv"])
def test_reduced_goldens_load(name, tmp_path):
    R = load_reduced_csv(GOLDEN_DIR / name)
    assert R.direction == "reverse" and R.censored and R.alpha == 0.85
    assert R.GR.shape == (len(R.labels), len(R.labels))
    write_reduced_csv(R, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_change_csv_contains_nan_for_undefined(tmp_path, fixture_graph):
    G = google_matrix(fixture_graph, direction="reverse")
    subset = [fixture_graph.as_index(a) for a in (64500, 64501)]
    R1 = censor_diagonal(reduced_google_matrix(G, subset))
    import dataclasses

    R2 = dataclasses.replace(R1, GR=R1.GR.copy())
    R2.GR[0, 1] = 0.0  # vanish one link; diagonal zeros become 0/0
    change = relative_change(R1, R2)
    path = tmp_path / "diff.csv"
    write_change_csv(change, path)
    text = path.read_text()
    assert "nan" in text
    assert "-1.0" in text


def test_rank_csv_format(fixture_graph, tmp_path):
    pr = pagerank(google_matrix(fixture_graph))
    table = rank_table(pr)
    path = tmp_path / "rank.csv"
    write_rank_csv(fixture_graph, table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,type,value,rank"
    assert len(lines) == 1 + fixture_graph.n_nodes


def test_subset_file_accepts_asns_and_labels(fixture_graph, tmp_path):
    path = tmp_path / "subset.txt"
    path.write_text("# giants\n64500\nAS64501\nIX4\n")
    indices = read_subset_file(path, fixture_graph)
    assert indices == [
        fixture_graph.as_index(64500),
        fixture_graph.as_index(64501),
        fixture_graph.ixp_index(4),
    ]


def test_subset_file_unknown_entries(fixture_graph, tmp_path):
    path = tmp_path / "subset.txt"
    path.write_text("64500\n99999\n")
    with pytest.raises(SnapshotFormatError) as info:
        read_subset_file(path, fixture_graph)
    assert str(info.value) == f"{path}: line 2: '99999' is not a node of the graph"


def test_edgelist_export(fixture_graph, tmp_path):
    out = tmp_path / "edges.csv"
    written = export_edgelist(fixture_graph, out)
    assert [p.name for p in written] == [
        "edges.csv",
        "edges_as_nodes.csv",
        "edges_ixp_nodes.csv",
    ]
    lines = out.read_text().splitlines()
    assert lines[0] == "asn,ixp_id,port_size,traffic_class"
    assert len(lines) == 1 + fixture_graph.n_edges


def loop_labels(snap) -> list[str]:
    """Node labels in the order of :func:`oracles.loop_weight_matrix`."""
    positive = snap.port_size > 0.0
    as_ids = sorted(set(snap.port_asn[positive].tolist()))
    ixp_ids = sorted(set(snap.port_ixp_id[positive].tolist()))
    return [f"AS{a}" for a in as_ids] + [f"IX{x}" for x in ixp_ids]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), beta=BETAS)
def test_weight_csv_export(seed, beta):
    one_edge = build_graph(make_snapshot([(1, TC.HEAVY_OUTBOUND)], [(1, "DE")], [(1, 1, 100.0)]))
    snap = random_snapshot(np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        lines = export_weight_csv(one_edge, Path(tmp) / "one.csv").read_text().splitlines()
        text = export_weight_csv(build_graph(snap, beta), Path(tmp) / "w.csv").read_text()
    assert lines[0] == "source,target,weight"
    assert "AS1,IX1,100.0" in lines
    assert f"IX1,AS1,{(1.0 - 0.95) * 100.0!r}" in lines

    # Every stored entry of the loop oracle, as sorted (source, target) label triples.
    labels = loop_labels(snap)
    coo = loop_weight_matrix(snap, beta).tocoo()
    triples = sorted(
        (labels[src], labels[dst], w)
        for dst, src, w in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
    )
    rows = [line.split(",") for line in text.splitlines()]
    assert rows == [["source", "target", "weight"], *([s, t, repr(w)] for s, t, w in triples)]


def test_gexf_export_parses(fixture_graph, tmp_path):
    out = tmp_path / "graph.gexf"
    export_gexf(fixture_graph, out)
    import networkx as nx

    g = nx.read_gexf(out)
    assert g.number_of_nodes() == fixture_graph.n_nodes
    assert g.number_of_edges() == fixture_graph.W.nnz
    node = g.nodes["AS64500"]
    assert node["type"] == "AS" and node["port_capacity"] == 10_000_000.0


def test_gexf_header_names_snapshot_date_and_package(fixture_graph, tmp_path):
    a, b = tmp_path / "a.gexf", tmp_path / "b.gexf"
    export_gexf(fixture_graph, a)
    export_gexf(load_graph(save_graph(fixture_graph, tmp_path / "g.json")), b)
    text = a.read_text()
    assert '<meta lastmodifieddate="2020-01-01">' in text
    assert "<creator>peergraph 0.1.0</creator>" in text
    assert a.read_bytes() == b.read_bytes()


def test_gexf_export_failing_mid_write_leaves_no_file(fixture_graph, tmp_path, monkeypatch):
    """A write that fails part of the way through, as on a full disk."""
    fdopen, writes = os.fdopen, []

    def filling_fdopen(*args, **kwargs):
        handle = fdopen(*args, **kwargs)
        write = handle.write

        def write_until_full(data):
            writes.append(data)
            if len(writes) > 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(data)

        handle.write = write_until_full
        return handle

    monkeypatch.setattr(os, "fdopen", filling_fdopen)
    with pytest.raises(OSError, match="No space left on device"):
        export_gexf(fixture_graph, tmp_path / "graph.gexf")
    assert list(tmp_path.iterdir()) == []


def _without_meta(text: bytes) -> bytes:
    return text[: text.index(b"  <meta")] + text[text.index(b"</meta>"):]


def _pick(values, i, default):
    return values[i] if i < len(values) else default


# Names and countries drawn from the characters that need escaping, plus
# non-ASCII text and a lone surrogate.
AWKWARD_TEXT = st.text(st.sampled_from("&<>\"'\t\n\r aZ0éß中\U0001f600\ud800"), max_size=6)
# The same for JSON: quotes, backslashes and control characters.
JSON_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\t\n aZ0é中\U0001f600\ud800'), max_size=6)
# Text a graph file can hold: no lone surrogate.
FILE_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\t\n aZ0é中\U0001f600'), max_size=6)


def relabelled_graph(seed, beta, names, countries, date, edgeless):
    """A random graph whose node text is taken from ``names`` and ``countries``."""
    g = random_graph(np.random.default_rng(seed), max_as=30, max_ixp=12)
    as_columns = (
        g.asn,
        g.as_class,
        [_pick(names, i, name) for i, name in enumerate(g.as_name)],
        [_pick(names[1:], i, scope) for i, scope in enumerate(g.as_scope)],
        [_pick(countries[1:], i, kind) for i, kind in enumerate(g.as_type)],
    )
    ixp_columns = (
        g.ixp_id,
        [_pick(names[::-1], i, name) for i, name in enumerate(g.ixp_name)],
        [_pick(countries, i, country) for i, country in enumerate(g.ixp_country)],
    )
    edges = [] if edgeless else edge_list(g)
    asn, ixp_id, ps = zip(*edges) if edges else ((), (), ())
    return _assemble(as_columns, ixp_columns, asn, ixp_id, ps, beta, date)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    beta=BETAS,
    names=st.lists(AWKWARD_TEXT, max_size=40),
    countries=st.lists(AWKWARD_TEXT, max_size=12),
    date=st.one_of(st.none(), st.dates()),
    edgeless=st.booleans(),
)
def test_gexf_matches_networkx_oracle(seed, beta, names, countries, date, edgeless):
    g = relabelled_graph(seed, beta, names, countries, date, edgeless)
    with tempfile.TemporaryDirectory() as tmp:
        text = export_gexf(g, Path(tmp) / "graph.gexf").read_bytes()
    expected = networkx_gexf(g).encode("utf-8")
    assert _without_meta(text) == _without_meta(expected)
    stamp = f' lastmodifieddate="{date.isoformat()}"' if date else ""
    assert f"  <meta{stamp}>\n    <creator>".encode() in text
    if edgeless:
        assert b"    <edges />\n" in text


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    beta=BETAS,
    names=st.lists(JSON_TEXT, max_size=40),
    countries=st.lists(JSON_TEXT, max_size=12),
    date=st.one_of(st.none(), st.dates()),
    edgeless=st.booleans(),
)
def test_save_graph_matches_json_dumps(seed, beta, names, countries, date, edgeless):
    g = relabelled_graph(seed, beta, names, countries, date, edgeless)
    with tempfile.TemporaryDirectory() as tmp:
        text = save_graph(g, Path(tmp) / "graph.json").read_bytes()
    assert text == json_graph_text(g).encode("ascii")


EDGE_COLUMNS = ("edge_as", "edge_ixp", "port_size", "edge_class")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    beta=BETAS,
    names=st.lists(FILE_TEXT, max_size=40),
    countries=st.lists(FILE_TEXT, max_size=12),
    date=st.one_of(st.none(), st.dates()),
    edgeless=st.booleans(),
)
def test_graph_file_round_trip_keeps_every_column(seed, beta, names, countries, date, edgeless):
    g = relabelled_graph(seed, beta, names, countries, date, edgeless)
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_graph(save_graph(g, Path(tmp) / "graph.json"))
    for column in NODE_COLUMNS + EDGE_COLUMNS:
        got, want = getattr(loaded, column), getattr(g, column)
        assert type(got) is type(want), column
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), column
            assert not got.flags.writeable, column
        else:
            assert got == want, column
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(loaded.W, part), getattr(g.W, part)), part
    assert loaded.beta == g.beta and loaded.date == g.date

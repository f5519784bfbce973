"""File formats: native graph JSON, GEXF/edge-list exports, matrix and table CSVs.

All writers are atomic (temp file + rename) and deterministic: keys are
sorted, node orderings are the graph's canonical ones, and floats use
Python's shortest round-trip repr.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from contextlib import contextmanager
from datetime import date as Date
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .errors import SnapshotFormatError
from .graph import BetaParams, PeeringGraph, _assemble
from .ingest import CLASSES, _collector_paused, _is_utf8, _not_utf8, csv_rows, read_lines
from .spectral import ChangeMatrix, RankTable, ReducedGoogleMatrix

GRAPH_FORMAT = "peergraph-graph"
GRAPH_FORMAT_VERSION = 1


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write text to ``path`` as UTF-8 via a temp file in the same directory."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write bytes to ``path`` via a temp file in the same directory."""
    with _atomic_file(path) as handle:
        handle.write(data)
    return Path(path)


@contextmanager
def _atomic_file(path: str | Path, **text) -> Iterator[IO]:
    """A temp file beside ``path``, renamed to ``path`` when the block ends.

    The file is binary, or text with the :func:`open` keywords ``text``.
    If the block raises, the temp file is removed and ``path`` is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w" if text else "wb", **text) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Records of the graph file as json.dumps(payload, sort_keys=True, indent=1)
# lays them out; strings are escaped by json's own ASCII encoder.
_AS_NODE = (
    '  {{\n   "asn": {},\n   "info_ratio": {},\n   "info_scope": {},\n'
    '   "info_type": {},\n   "name": {}\n  }}'
)
_IXP_NODE = '  {{\n   "country": {},\n   "id": {},\n   "name": {}\n  }}'
_EDGE = "  [\n   {},\n   {},\n   {}\n  ]"
_CLASS_JSON = [_json_string(tc.value) for tc in CLASSES]


def _json_list(key: str, items: list[str]) -> str:
    if not items:
        return f' "{key}": []'
    return f' "{key}": [\n' + ",\n".join(items) + "\n ]"


def save_graph(g: PeeringGraph, path: str | Path) -> Path:
    """Serialize a graph to the native JSON format.

    The file stores the aggregated edge list (asn, ixp_id, port size), the
    node metadata tables and the beta coefficients; the directed weights
    are rebuilt exactly on load.  The text is what ``json.dumps(payload,
    sort_keys=True, indent=1)`` gives, built from the graph's columns.
    """
    as_nodes = list(map(
        _AS_NODE.format,
        g.asn.tolist(),
        [_CLASS_JSON[c] for c in g.as_class.tolist()],
        map(_json_string, g.as_scope),
        map(_json_string, g.as_type),
        map(_json_string, g.as_name),
    ))
    ixp_nodes = list(map(
        _IXP_NODE.format,
        map(_json_string, g.ixp_country),
        g.ixp_id.tolist(),
        map(_json_string, g.ixp_name),
    ))
    asn, ixp_id = g.edge_ids()
    edges = list(map(_EDGE.format, asn.tolist(), ixp_id.tolist(), g.port_size.tolist()))
    beta = {"balanced": g.beta.balanced, "heavy": g.beta.heavy, "mostly": g.beta.mostly}
    fields = [
        _json_list("as_nodes", as_nodes),
        ' "beta": {\n'
        + ",\n".join(f'  "{key}": {json.dumps(value)}' for key, value in beta.items())
        + "\n }",
        f' "date": {json.dumps(g.date.isoformat() if g.date else None)}',
        _json_list("edges", edges),
        f' "format": {json.dumps(GRAPH_FORMAT)}',
        _json_list("ixp_nodes", ixp_nodes),
        f' "version": {json.dumps(GRAPH_FORMAT_VERSION)}',
    ]
    return atomic_write_text(path, "{\n" + ",\n".join(fields) + "\n}\n")


# Node fields of the graph file, in the column order _assemble takes, with
# their JSON types.  The first field is the node id, 1 <= id < 2**63.
_NODE_FIELDS = {
    "as_nodes": (
        ("asn", int), ("info_ratio", str), ("name", str), ("info_scope", str),
        ("info_type", str),
    ),
    "ixp_nodes": (("id", int), ("name", str), ("country", str)),
}
_CLASS_CODE = {tc.value: code for code, tc in enumerate(CLASSES)}


def _node_columns(path, key: str, records) -> list[list]:
    """One list per field of the node records in ``key``.

    Every record must be an object holding each field of
    :data:`_NODE_FIELDS` with its JSON type (an id is an integer, not a
    boolean, that int64 holds and that is positive), with text that
    encodes to UTF-8; ``info_ratio`` becomes a traffic-class code.
    """
    if not isinstance(records, list):
        raise SnapshotFormatError(f"{path}: {key} must be a list")
    fields = _NODE_FIELDS[key]
    try:
        columns = [[r[name] for r in records] for name, _ in fields]
        typed = all(set(map(type, col)) <= {kind} for col, (_, kind) in zip(columns, fields))
        valid = typed and 0 < min(columns[0], default=1) and max(columns[0], default=1) < 2**63
        if valid and all(_is_utf8("".join(col)) for col, (_, kind) in zip(columns, fields)
                         if kind is str):
            if key == "as_nodes":
                columns[1] = [_CLASS_CODE[t] for t in columns[1]]
            return columns
    except (KeyError, TypeError):
        pass
    raise _node_error(path, key, records)


def _node_error(path, key: str, records: list) -> SnapshotFormatError:
    """The error naming the first record of ``key`` that is not a valid node."""
    for i, r in enumerate(records):
        where = f"{path}: {key}[{i}]"
        if not isinstance(r, dict):
            return SnapshotFormatError(f"{where}: not an object")
        for name, kind in _NODE_FIELDS[key]:
            if name not in r:
                return SnapshotFormatError(f"{where}: missing key {name!r}")
            value = r[name]
            if type(value) is not kind:
                what = "an integer" if kind is int else "a string"
                return SnapshotFormatError(f"{where}: {name} {value!r} is not {what}")
            if kind is int and not 0 < value < 2**63:
                return SnapshotFormatError(f"{where}: {name} {value} is not in [1, 2**63)")
            if kind is str and not _is_utf8(value):
                return SnapshotFormatError(
                    f"{where}: {name} {value!r} holds a lone surrogate"
                )
            if name == "info_ratio" and value not in _CLASS_CODE:
                return SnapshotFormatError(
                    f"{where}: info_ratio {value!r} is not a traffic class"
                )
    return SnapshotFormatError(f"{path}: {key} is malformed")


@_collector_paused
def load_graph(path: str | Path) -> PeeringGraph:
    """Load a graph produced by :func:`save_graph`.

    Raises :class:`SnapshotFormatError` naming the file and the record when
    the file is not UTF-8 JSON (the line of the first byte that is not
    UTF-8, nesting past the recursion limit or an integer past Python's
    digit limit among it), is not a graph of this format version, a key
    is missing, a node field has the wrong JSON type or holds a lone
    surrogate, a node id is listed twice, an edge names an unlisted node
    or is listed twice, or a port size is not finite and positive.

    The cyclic garbage collector is paused during the call: the decoded
    file holds no cycle, so a collection over it would only cost time.
    """
    data = Path(path).read_bytes()
    try:
        payload = json.loads(data)
    except UnicodeDecodeError as exc:
        raise _not_utf8(SnapshotFormatError, path, data, exc) from exc
    except (ValueError, RecursionError) as exc:
        raise SnapshotFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != GRAPH_FORMAT:
        raise SnapshotFormatError(f"{path}: not a {GRAPH_FORMAT} file")
    if payload.get("version") != GRAPH_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"{path}: format version {payload.get('version')!r} is not "
            f"{GRAPH_FORMAT_VERSION}"
        )
    try:
        beta = BetaParams(**payload["beta"])
        as_records, ixp_records = payload["as_nodes"], payload["ixp_nodes"]
        edges = payload["edges"]
        date = Date.fromisoformat(payload["date"]) if payload.get("date") else None
    except KeyError as exc:
        raise SnapshotFormatError(f"{path}: the top level: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"{path}: the top level: {exc}") from exc

    as_columns = _node_columns(path, "as_nodes", as_records)
    ixp_columns = _node_columns(path, "ixp_nodes", ixp_records)
    columns = _edge_columns(path, edges)
    try:
        return _assemble(as_columns, ixp_columns, *columns, beta, date)
    except (ValueError, OverflowError) as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from exc


def _is_edge_triple(edge: object) -> bool:
    """Whether ``edge`` is ``[asn, ixp_id, port_size]``.

    The ids follow the node rule (JSON integers, not booleans, in
    [1, 2**63)); the port size is a JSON number, not a boolean, that a
    float holds.
    """
    if not (type(edge) is list and len(edge) == 3 and type(edge[2]) in (int, float)):
        return False
    try:
        float(edge[2])
    except OverflowError:
        return False
    return all(type(v) is int and 0 < v < 2**63 for v in edge[:2])


def _edge_columns(path, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(asn, ixp_id, port size) columns of a list of ``[asn, ixp_id, ps]`` triples.

    The id columns are int64 and never pass through a float; each edge
    must be a triple by :func:`_is_edge_triple`.
    """
    if not isinstance(edges, list):
        raise SnapshotFormatError(f"{path}: edges must be a list")
    try:
        # A JSON value that is not a list either is not iterable or yields
        # strings, which the type check below refuses.
        asn, ixp_id, port_size = zip(*edges, strict=True) if edges else ((), (), ())
        typed = {*map(type, asn), *map(type, ixp_id)} <= {int}
        if typed and {*map(type, port_size)} <= {int, float}:
            n = len(edges)
            asn, ixp_id = np.fromiter(asn, np.int64, n), np.fromiter(ixp_id, np.int64, n)
            if min(asn.min(initial=1), ixp_id.min(initial=1)) > 0:
                return asn, ixp_id, np.fromiter(port_size, np.float64, n)
    except (TypeError, ValueError, OverflowError):
        pass
    k = next(i for i, edge in enumerate(edges) if not _is_edge_triple(edge))
    raise SnapshotFormatError(
        f"{path}: edges[{k}] = {edges[k]!r} is not an [asn, ixp_id, port_size] triple"
    )


# Attribute text escaped as xml.etree.ElementTree writes it.
_XML_ATTR = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
     "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)

_GEXF_ROOT = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<gexf xmlns="http://www.gexf.net/1.2draft" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
    'xsi:schemaLocation="http://www.gexf.net/1.2draft '
    'http://www.gexf.net/1.2draft/gexf.xsd" version="1.2">\n'
)

_GEXF_GRAPH = (
    '  <graph defaultedgetype="directed" mode="static" name="">\n'
    '    <attributes mode="static" class="node">\n'
    '      <attribute id="0" title="type" type="string" />\n'
    '      <attribute id="1" title="country" type="string" />\n'
    '      <attribute id="2" title="port_capacity" type="double" />\n'
    "    </attributes>\n"
)


def _write_gexf_list(out: IO[str], tag: str, count: int, items: Iterable[str]) -> None:
    if not count:
        out.write(f"    <{tag} />\n")
        return
    out.write(f"    <{tag}>\n")
    out.writelines(items)
    out.write(f"    </{tag}>\n")


def export_gexf(g: PeeringGraph, path: str | Path) -> Path:
    """Directed GEXF 1.2 export for external viewers.

    Node attributes: type, country, port_capacity; one directed edge per
    nonzero weight with a ``weight`` attribute.  Nodes are in index order
    and edges are grouped by source in node order, targets ascending, with
    ids counting from 0.  The header records the snapshot date and the
    package version, so equal graphs give equal bytes.  Each record is
    written as it is formatted, through one UTF-8 text stream; lone
    surrogates in names become character references, as ElementTree
    writes them.
    """
    labels = g.labels
    countries = ("",) * g.n_as + g.ixp_country
    capacity = g.capacity.tolist()
    nodes = (
        f'      <node id="{label}" label="{(name or label).translate(_XML_ATTR)}">\n'
        "        <attvalues>\n"
        f'          <attvalue for="0" value="{kind}" />\n'
        f'          <attvalue for="1" value="{country.translate(_XML_ATTR)}" />\n'
        f'          <attvalue for="2" value="{cap!r}" />\n'
        "        </attvalues>\n"
        "      </node>\n"
        for label, name, kind, country, cap in zip(
            labels, g.names, g.kinds, countries, capacity
        )
    )
    source, target, weight = g.links()
    order = np.lexsort((target, source))
    edges = (
        f'      <edge source="{labels[s]}" target="{labels[t]}" id="{k}" weight="{w!r}" />\n'
        for k, (s, t, w) in enumerate(
            zip(source[order].tolist(), target[order].tolist(), weight[order].tolist())
        )
    )
    date = f' lastmodifieddate="{g.date.isoformat()}"' if g.date else ""
    with _atomic_file(path, encoding="utf-8", errors="xmlcharrefreplace", newline="") as out:
        out.write(_GEXF_ROOT)
        out.write(f"  <meta{date}>\n    <creator>peergraph {__version__}</creator>\n  </meta>\n")
        out.write(_GEXF_GRAPH)
        _write_gexf_list(out, "nodes", g.n_nodes, nodes)
        _write_gexf_list(out, "edges", source.size, edges)
        out.write("  </graph>\n</gexf>\n")
    return Path(path)


def export_edgelist(g: PeeringGraph, path: str | Path) -> list[Path]:
    """Aggregated edge list plus the two node metadata tables.

    Writes ``<path>`` with rows (asn, ixp_id, ps, class) and two sibling
    files ``<stem>_as_nodes.csv`` / ``<stem>_ixp_nodes.csv``.  All three
    are rendered and encoded before the first is written, so text that is
    not UTF-8 leaves no partial export.
    """
    path = Path(path)
    ratio = [tc.value for tc in CLASSES]
    capacity = list(map(repr, g.capacity.tolist()))
    asn, ixp_id = g.edge_ids()

    edge_rows = [["asn", "ixp_id", "port_size", "traffic_class"], *zip(
        asn.tolist(), ixp_id.tolist(), map(repr, g.port_size.tolist()),
        [ratio[c] for c in g.edge_class.tolist()],
    )]
    as_rows = [["asn", "name", "info_ratio", "info_scope", "info_type", "port_capacity"], *zip(
        g.asn.tolist(), g.as_name, [ratio[c] for c in g.as_class.tolist()],
        g.as_scope, g.as_type, capacity[: g.n_as],
    )]
    ixp_rows = [["ixp_id", "name", "country", "port_capacity"], *zip(
        g.ixp_id.tolist(), g.ixp_name, g.ixp_country, capacity[g.n_as :],
    )]
    tables = {
        path: edge_rows,
        path.with_name(path.stem + "_as_nodes.csv"): as_rows,
        path.with_name(path.stem + "_ixp_nodes.csv"): ixp_rows,
    }
    data = {p: _csv_text(rows).encode("utf-8") for p, rows in tables.items()}
    return [atomic_write_bytes(p, d) for p, d in data.items()]


def export_weight_csv(g: PeeringGraph, path: str | Path) -> Path:
    """Directed weighted edge triples (source, target, weight)."""
    labels = g.labels
    triples = sorted(
        (labels[s], labels[t], w) for s, t, w in zip(*(column.tolist() for column in g.links()))
    )
    rows = [["source", "target", "weight"]]
    rows.extend([s, t, repr(w)] for s, t, w in triples)
    return atomic_write_text(path, _csv_text(rows))


def _csv_text(rows: Iterable[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def write_rank_csv(g: PeeringGraph, table: RankTable, path: str | Path) -> Path:
    """Rank table of ``g``'s nodes as (node, type, value, rank) rows."""
    rows = [["node", "type", "value", "rank"]]
    rows.extend(
        [g.labels[i], g.kinds[i], repr(value), rank]
        for rank, (i, value) in enumerate(zip(table.index.tolist(), table.value.tolist()), 1)
    )
    return atomic_write_text(path, _csv_text(rows))


def _meta_line(pairs: dict[str, object]) -> str:
    body = " ".join(f"{key}={value}" for key, value in pairs.items())
    return f"# {body}\n"


def _parse_meta(line: str) -> dict[str, str]:
    meta: dict[str, str] = {}
    for token in line.lstrip("#").split():
        if "=" in token:
            key, value = token.split("=", 1)
            meta[key] = value
    return meta


def write_reduced_csv(R: ReducedGoogleMatrix, path: str | Path) -> Path:
    """Dense reduced matrix with a label header row/column.

    A leading comment line records direction, censoring, alpha and date so
    that later diffs can verify the matrices are comparable.
    """
    meta = _meta_line(
        {
            "peergraph": "reduced",
            "direction": R.direction,
            "censored": int(R.censored),
            "alpha": repr(R.alpha),
            "date": R.date.isoformat() if R.date else "-",
        }
    )
    rows = [["node", *R.labels]]
    for i, label in enumerate(R.labels):
        rows.append([label, *(repr(float(v)) for v in R.GR[i, :])])
    return atomic_write_text(path, meta + _csv_text(rows))


def load_reduced_csv(path: str | Path) -> ReducedGoogleMatrix:
    """Read a reduced matrix written by :func:`write_reduced_csv`.

    Line 1 must be the comment ``# peergraph=reduced`` with all four keys
    (direction, censored, alpha, date); there are no defaults.  Raises
    :class:`SnapshotFormatError` naming the file and the line when the
    file is not UTF-8, line 1 is not that comment, misses a key or holds a
    bad direction, censoring flag, alpha or date, a label is listed twice,
    a row is ragged or its label is not the header's label at that
    position, a cell is not a finite number, or the csv module refuses a
    line.
    """
    lines = read_lines(path, SnapshotFormatError)
    meta = _parse_meta(lines[0]) if lines and lines[0].startswith("#") else {}
    try:
        if meta.get("peergraph") != "reduced":
            raise ValueError("not a reduced-matrix CSV (expected '# peergraph=reduced ...')")
        missing = [k for k in ("direction", "censored", "alpha", "date") if k not in meta]
        if missing:
            raise ValueError(f"the comment line has no {', '.join(missing)}")
        direction = meta["direction"]
        if direction not in ("forward", "reverse"):
            raise ValueError(f"direction {direction!r} is not forward or reverse")
        censored = meta["censored"]
        if censored not in ("0", "1"):
            raise ValueError(f"censored {censored!r} is not 0 or 1")
        alpha = float(meta["alpha"])
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha {alpha!r} is not in [0, 1)")
        date = None if meta["date"] == "-" else Date.fromisoformat(meta["date"])
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: line 1: {exc}") from exc

    reader = csv_rows(path, lines[1:], SnapshotFormatError, offset=1)
    _, header = next(reader, (None, None))
    if not header or header[0] != "node":
        raise SnapshotFormatError(f"{path}: line 2: not a 'node' header row")
    labels = tuple(header[1:])
    if len(set(labels)) < len(labels):
        twice = next(label for k, label in enumerate(labels) if label in labels[:k])
        raise SnapshotFormatError(
            f"{path}: line 2: label {twice!r} is listed twice"
        )
    rows: list[list[float]] = []
    for line, row in reader:
        where = f"{path}: line {line}"
        if len(rows) == len(labels):
            raise SnapshotFormatError(f"{where}: more rows than labels")
        if len(row) != len(labels) + 1:
            raise SnapshotFormatError(
                f"{where}: {len(row)} cells, expected {len(labels) + 1}"
            )
        if row[0] != labels[len(rows)]:
            raise SnapshotFormatError(
                f"{where}: row {row[0]!r} is not {labels[len(rows)]!r}, "
                "the header's label at that position"
            )
        try:
            values = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise SnapshotFormatError(f"{where}: row {row[0]!r}: {exc}") from exc
        bad = next((k for k, v in enumerate(values) if not math.isfinite(v)), None)
        if bad is not None:
            raise SnapshotFormatError(
                f"{where}: row {row[0]!r}, column {labels[bad]!r} is {values[bad]!r}; "
                "cells must be finite"
            )
        rows.append(values)
    if len(rows) != len(labels):
        raise SnapshotFormatError(f"{path}: matrix is not square against its labels")
    GR = np.array(rows, dtype=np.float64).reshape(len(labels), len(labels))
    return ReducedGoogleMatrix(
        labels=labels,
        GR=np.asfortranarray(GR),
        direction=direction,
        alpha=alpha,
        censored=censored == "1",
        date=date,
    )


def write_change_csv(change: ChangeMatrix, path: str | Path) -> Path:
    """Relative-change matrix clamped to its display cap; undefined cells are ``nan``."""
    d1, d2 = change.dates
    meta = _meta_line(
        {
            "peergraph": "diff",
            "d1": d1.isoformat() if d1 else "-",
            "d2": d2.isoformat() if d2 else "-",
            "cap": f"{change.cap[0]}:{change.cap[1]}" if change.cap else "-",
        }
    )
    values = change.capped()
    rows = [["node", *change.labels]]
    for i, label in enumerate(change.labels):
        rows.append([label, *(repr(float(v)) for v in values[i, :])])
    return atomic_write_text(path, meta + _csv_text(rows))


# The reduced matrix is dense in the subset size: 1,000 ASes of a
# 12,900-node graph take about 5 s and 0.55 GB on two cores, while the paper
# reduces onto tens of nodes.
SUBSET_CAP = 1_000


def read_subset_file(path: str | Path, g: PeeringGraph) -> list[int]:
    """Node indices for a subset file of AS numbers or AS/IX labels.

    One entry per line; blank lines and ``#`` comments are skipped.  The
    file order defines the subset order of the reduced matrix.  Raises
    :class:`SnapshotFormatError` naming the file, and the line of the first
    entry that is not a node of ``g``, repeats one or is one more than
    :data:`SUBSET_CAP`, or of a byte that is not UTF-8; or naming the file
    when it lists no node.
    """
    indices: dict[int, None] = {}  # insertion-ordered, with a constant-time repeat check
    for n, line in enumerate(read_lines(path, SnapshotFormatError), start=1):
        token = line.split("#", 1)[0].strip()
        if not token:
            continue
        if len(indices) == SUBSET_CAP:
            over = f"entry {SUBSET_CAP + 1} is over the cap of {SUBSET_CAP} nodes"
            raise SnapshotFormatError(f"{path}: line {n}: {over}")
        try:
            if token.upper().startswith("AS"):
                index = g.as_index(int(token[2:]))
            elif token.upper().startswith("IX"):
                index = g.ixp_index(int(token[2:]))
            else:
                index = g.as_index(int(token))
        except (KeyError, ValueError) as exc:
            message = f"{path}: line {n}: {token!r} is not a node of the graph"
            raise SnapshotFormatError(message) from exc
        if index in indices:
            message = f"{path}: line {n}: {token!r} repeats node {g.labels[index]}"
            raise SnapshotFormatError(message)
        indices[index] = None
    if not indices:
        raise SnapshotFormatError(f"{path}: the subset lists no node")
    return list(indices)

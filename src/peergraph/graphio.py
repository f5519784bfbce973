"""File formats: native graph JSON, GEXF/edge-list exports, matrix and table CSVs.

All writers are atomic (temp file + rename) and deterministic: keys are
sorted, node orderings are the graph's canonical ones, and floats use
Python's shortest round-trip repr.
"""
from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import SnapshotFormatError
from .graph import BetaParams, PeeringGraph, _assemble, node_metrics
from .ingest import IxpRecord, NetworkRecord, TrafficClass
from .spectral import ChangeMatrix, RankTable, ReducedGoogleMatrix

GRAPH_FORMAT = "peergraph-graph"
GRAPH_FORMAT_VERSION = 1


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write text to ``path`` via a temp file in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def save_graph(g: PeeringGraph, path: str | Path) -> Path:
    """Serialize a graph to the native JSON format.

    The file stores the aggregated edge list (asn, ixp_id, port size), the
    node metadata tables and the beta coefficients; the weight matrix is
    rebuilt exactly on load.
    """
    payload = {
        "format": GRAPH_FORMAT,
        "version": GRAPH_FORMAT_VERSION,
        "date": g.date.isoformat() if g.date else None,
        "beta": {"balanced": g.beta.balanced, "mostly": g.beta.mostly, "heavy": g.beta.heavy},
        "as_nodes": [
            {
                "asn": r.asn,
                "name": r.name,
                "info_ratio": r.info_ratio.value,
                "info_scope": r.info_scope,
                "info_type": r.info_type,
            }
            for r in g.as_nodes
        ],
        "ixp_nodes": [
            {"id": r.ixp_id, "name": r.name, "country": r.country} for r in g.ixp_nodes
        ],
        "edges": [list(edge) for edge in g.edge_list()],
    }
    return atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_graph(path: str | Path) -> PeeringGraph:
    """Load a graph produced by :func:`save_graph`.

    Raises :class:`SnapshotFormatError` naming the file and the record when
    the file is not a graph of this format version, a key is missing, a
    node id is listed twice, an edge names an unlisted node or is listed
    twice, or a port size is not finite and positive.
    """
    try:
        payload = json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != GRAPH_FORMAT:
        raise SnapshotFormatError(f"{path}: not a {GRAPH_FORMAT} file")
    if payload.get("version") != GRAPH_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"{path}: format version {payload.get('version')!r} is not "
            f"{GRAPH_FORMAT_VERSION}"
        )
    record = "the top level"
    try:
        beta = BetaParams(**payload["beta"])
        as_records = []
        for i, r in enumerate(payload["as_nodes"]):
            record = f"as_nodes[{i}]"
            as_records.append(
                NetworkRecord(
                    asn=int(r["asn"]),
                    name=r["name"],
                    info_ratio=TrafficClass(r["info_ratio"]),
                    info_scope=r["info_scope"],
                    info_type=r["info_type"],
                )
            )
        ixp_records = []
        for i, r in enumerate(payload["ixp_nodes"]):
            record = f"ixp_nodes[{i}]"
            ixp_records.append(
                IxpRecord(ixp_id=int(r["id"]), name=r["name"], country=r["country"])
            )
        record = "the top level"
        edges = payload["edges"]
        date = Date.fromisoformat(payload["date"]) if payload.get("date") else None
    except KeyError as exc:
        raise SnapshotFormatError(f"{path}: {record}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SnapshotFormatError(f"{path}: {record}: {exc}") from exc

    columns = _edge_columns(path, edges)
    try:
        return _assemble(as_records, ixp_records, *columns, beta, date)
    except (ValueError, OverflowError) as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from exc


def _is_edge_triple(edge: object) -> bool:
    return (
        isinstance(edge, list)
        and len(edge) == 3
        and all(type(v) is int for v in edge[:2])
        and type(edge[2]) in (int, float)
    )


def _edge_columns(path, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(asn, ixp_id, port size) columns of a list of ``[asn, ixp_id, ps]`` triples."""
    if not isinstance(edges, list):
        raise SnapshotFormatError(f"{path}: edges must be a list")
    try:
        table = np.array(edges, dtype=np.float64)
        if table.size == 0:
            table = table.reshape(0, 3)
        if table.shape != (len(edges), 3):
            raise ValueError("not a list of triples")
        with np.errstate(invalid="ignore"):
            asn, ixp_id = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
        exact = (asn == table[:, 0]) & (ixp_id == table[:, 1])
    except (TypeError, ValueError, OverflowError):
        exact = np.zeros(len(edges), dtype=bool)
    if not exact.all():
        k = next(
            (i for i, edge in enumerate(edges) if not _is_edge_triple(edge)),
            int(np.flatnonzero(~exact)[0]),
        )
        raise SnapshotFormatError(
            f"{path}: edges[{k}] = {edges[k]!r} is not an [asn, ixp_id, port_size] triple"
        )
    return asn, ixp_id, table[:, 2]


def export_gexf(g: PeeringGraph, path: str | Path) -> Path:
    """Directed GEXF export for external viewers.

    Node attributes: type, country, port_capacity; one directed edge per
    nonzero weight with a ``weight`` attribute.
    """
    import networkx as nx

    metrics = node_metrics(g)
    graph = nx.DiGraph()
    for i, label in enumerate(g.labels):
        country = "" if g.is_as(i) else g.ixp_nodes[i - g.n_as].country
        graph.add_node(
            label,
            label=g.names[i] or label,
            type=g.kinds[i],
            country=country,
            port_capacity=float(metrics.port_capacity[i]),
        )
    coo = g.W.tocoo()
    for dst, src, weight in zip(coo.row, coo.col, coo.data):
        graph.add_edge(g.labels[src], g.labels[dst], weight=float(weight))

    buffer = io.BytesIO()
    nx.write_gexf(graph, buffer)
    return atomic_write_text(path, buffer.getvalue().decode("utf-8"))


def export_edgelist(g: PeeringGraph, path: str | Path) -> list[Path]:
    """Aggregated edge list plus the two node metadata tables.

    Writes ``<path>`` with rows (asn, ixp_id, ps, class) and two sibling
    files ``<stem>_as_nodes.csv`` / ``<stem>_ixp_nodes.csv``.
    """
    path = Path(path)
    ratio = {r.asn: r.info_ratio for r in g.as_nodes}
    metrics = node_metrics(g)

    edge_rows = [["asn", "ixp_id", "port_size", "traffic_class"]]
    for asn, ixp_id, ps in g.edge_list():
        edge_rows.append([asn, ixp_id, repr(ps), ratio[asn].value])

    as_rows = [["asn", "name", "info_ratio", "info_scope", "info_type", "port_capacity"]]
    for i, r in enumerate(g.as_nodes):
        as_rows.append(
            [r.asn, r.name, r.info_ratio.value, r.info_scope, r.info_type,
             repr(float(metrics.port_capacity[i]))]
        )
    ixp_rows = [["ixp_id", "name", "country", "port_capacity"]]
    for pos, r in enumerate(g.ixp_nodes):
        ixp_rows.append(
            [r.ixp_id, r.name, r.country, repr(float(metrics.port_capacity[g.n_as + pos]))]
        )

    written = [atomic_write_text(path, _csv_text(edge_rows))]
    written.append(
        atomic_write_text(path.with_name(path.stem + "_as_nodes.csv"), _csv_text(as_rows))
    )
    written.append(
        atomic_write_text(path.with_name(path.stem + "_ixp_nodes.csv"), _csv_text(ixp_rows))
    )
    return written


def export_weight_csv(g: PeeringGraph, path: str | Path) -> Path:
    """Directed weighted edge triples (source, target, weight)."""
    coo = g.W.tocoo()
    triples = sorted(
        (g.labels[src], g.labels[dst], float(w))
        for dst, src, w in zip(coo.row, coo.col, coo.data)
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


def write_rank_csv(table: RankTable, path: str | Path) -> Path:
    """Rank table as (node, type, value, rank) rows."""
    rows = [["node", "type", "value", "rank"]]
    rows.extend([e.label, e.kind, repr(e.value), e.rank] for e in table)
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
    """Read a reduced matrix written by :func:`write_reduced_csv`."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    meta: dict[str, str] = {}
    if lines and lines[0].startswith("#"):
        meta = _parse_meta(lines[0])
        lines = lines[1:]
    reader = list(csv.reader(lines))
    if not reader or reader[0][:1] != ["node"]:
        raise SnapshotFormatError(f"{path}: not a reduced-matrix CSV")
    labels = tuple(reader[0][1:])
    values = np.array(
        [[float(cell) for cell in row[1:]] for row in reader[1:]], dtype=np.float64
    )
    if values.shape != (len(labels), len(labels)):
        raise SnapshotFormatError(f"{path}: matrix is not square against its labels")
    date_text = meta.get("date", "-")
    return ReducedGoogleMatrix(
        labels=labels,
        indices=tuple(range(len(labels))),
        GR=np.asfortranarray(values),
        Pr=None,
        direction=meta.get("direction", "forward"),
        alpha=float(meta.get("alpha", "0.85")),
        censored=meta.get("censored", "0") == "1",
        date=Date.fromisoformat(date_text) if date_text not in ("-", "") else None,
    )


def write_change_csv(change: ChangeMatrix, path: str | Path, capped: bool = True) -> Path:
    """Relative-change matrix; undefined cells are written as ``nan``."""
    d1, d2 = change.dates
    meta = _meta_line(
        {
            "peergraph": "diff",
            "d1": d1.isoformat() if d1 else "-",
            "d2": d2.isoformat() if d2 else "-",
            "cap": f"{change.cap[0]}:{change.cap[1]}" if change.cap else "-",
        }
    )
    values = change.capped() if capped else change.delta
    rows = [["node", *change.labels]]
    for i, label in enumerate(change.labels):
        rows.append([label, *(repr(float(v)) for v in values[i, :])])
    return atomic_write_text(path, meta + _csv_text(rows))


def read_subset_file(path: str | Path, g: PeeringGraph) -> list[int]:
    """Node indices for a subset file of AS numbers or AS/IX labels.

    One entry per line; blank lines and ``#`` comments are skipped.  The
    file order defines the subset order of the reduced matrix.
    """
    indices: list[int] = []
    unknown: list[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        token = line.split("#", 1)[0].strip()
        if not token:
            continue
        try:
            if token.upper().startswith("AS"):
                indices.append(g.as_index(int(token[2:])))
            elif token.upper().startswith("IX"):
                indices.append(g.ixp_index(int(token[2:])))
            else:
                indices.append(g.as_index(int(token)))
        except (KeyError, ValueError):
            unknown.append(token)
    if unknown:
        raise KeyError(f"subset entries not present in the graph: {', '.join(unknown)}")
    return indices

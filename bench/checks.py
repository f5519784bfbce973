"""Output checks that decide whether a command counts as failed.

Each check reads the files a command wrote and tests a property that holds
whatever code path produced them: a PageRank table sums to 1, a reduced
Google matrix is column-stochastic and fixes the PageRank slice of its
subset, a manifest's digests match the bytes on disk, and so on.  A check
raises :class:`CheckFailed` with a one-line reason.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict[str, str]]:
    """CSV rows as dicts; comment lines before the header are skipped."""
    lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    """A labelled square matrix as written for reduced matrices and diffs."""
    lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    rows = list(csv.reader(lines))
    require(rows and rows[0][:1] == ["node"], f"{path}: no matrix header")
    labels = rows[0][1:]
    require([r[0] for r in rows[1:]] == labels, f"{path}: row labels differ from columns")
    values = np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64)
    require(values.shape == (len(labels), len(labels)), f"{path}: matrix is not square")
    return labels, values


def manifest(out: Path) -> None:
    """The manifest next to ``out`` names digests that match the bytes on disk.

    Paths in a manifest are as the command was given them, relative to the
    directory the command ran in, which is ``out``'s directory.
    """
    path = Path(str(out) + ".manifest.json")
    require(path.exists(), f"{out}: no manifest")
    data = json.loads(path.read_text(encoding="utf-8"))
    for kind in ("inputs", "outputs"):
        for name, digest in data[kind].items():
            require(sha256(out.parent / name) == digest,
                    f"{path}: digest of {name} does not match the file")
    require(any(Path(name).name == out.name for name in data["outputs"]),
            f"{path}: does not list {out.name}")


def rank_csv(path: Path, n_nodes: int | None = None) -> dict[str, float]:
    """Values sum to 1, ranks run 1..n, values never increase down the table."""
    rows = read_rows(path)
    require(rows, f"{path}: empty rank table")
    values = [float(r["value"]) for r in rows]
    ranks = [int(r["rank"]) for r in rows]
    if n_nodes is not None:
        require(len(rows) == n_nodes, f"{path}: {len(rows)} rows for {n_nodes} nodes")
    require(abs(math.fsum(values) - 1.0) <= TOL, f"{path}: values sum to {math.fsum(values)!r}")
    require(ranks == list(range(1, len(rows) + 1)), f"{path}: ranks are not 1..{len(rows)}")
    require(all(a >= b for a, b in zip(values, values[1:])), f"{path}: values increase")
    return {r["node"]: float(r["value"]) for r in rows}


def ranked_table(path: Path, n_rows: int, kind: str | None = None) -> list[dict[str, str]]:
    """A top-k table: ``n_rows`` rows, ranks 1..k, non-increasing values."""
    rows = read_rows(path)
    require(len(rows) == n_rows, f"{path}: {len(rows)} rows, expected {n_rows}")
    require([int(r["rank"]) for r in rows] == list(range(1, n_rows + 1)),
            f"{path}: ranks are not contiguous")
    values = [float(r["value"]) for r in rows]
    require(all(a >= b for a, b in zip(values, values[1:])), f"{path}: values increase")
    if kind == "AS":
        require(all(r["node"].startswith("AS") for r in rows), f"{path}: non-AS entry")
    return rows


def stochastic(path: Path, pagerank: dict[str, float] | None, censored: bool) -> None:
    """Columns sum to 1; uncensored: fixes the L1-normalised PageRank slice;
    censored: zero diagonal."""
    labels, G = read_matrix(path)
    sums = G.sum(axis=0)
    require(np.all(np.abs(sums - 1.0) <= TOL),
            f"{path}: column sums off by {np.abs(sums - 1.0).max():.3e}")
    require(np.all(G >= 0.0), f"{path}: negative entry")
    if censored:
        require(np.all(np.diag(G) == 0.0), f"{path}: censored diagonal is not zero")
        return
    p = np.array([pagerank[label] for label in labels])
    p /= p.sum()
    residual = float(np.abs(G @ p - p).sum())
    require(residual <= TOL, f"{path}: PageRank slice residual {residual:.3e}")


def diff(path: Path, earlier: Path, later: Path) -> None:
    """NaN exactly where the earlier matrix is 0; elsewhere the relative change."""
    labels, D = read_matrix(path)
    l1, A = read_matrix(earlier)
    l2, B = read_matrix(later)
    require(labels == l1 == l2, f"{path}: labels differ from its inputs")
    zero = A == 0.0
    require(np.array_equal(np.isnan(D), zero), f"{path}: NaN cells do not match zeros of M1")
    expect = (B[~zero] - A[~zero]) / A[~zero]
    require(np.allclose(D[~zero], expect, rtol=1e-12, atol=1e-15),
            f"{path}: values are not (M2 - M1) / M1")


def graph_json(path: Path, expected: dict) -> None:
    """Node and edge counts match the ones derived from the generated dump."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    got = (len(data["as_nodes"]), len(data["ixp_nodes"]), len(data["edges"]))
    want = (expected["n_as"], expected["n_ixp"], expected["n_edges"])
    require(got == want, f"{path}: (ASes, IXPs, edges) = {got}, expected {want}")


def ingest_summary(path: Path, expected: dict) -> None:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    require(data["memberships"] == expected["memberships"],
            f"{path}: {data['memberships']} memberships, expected {expected['memberships']}")
    flagged = sorted(o["asn"] for o in data["outliers"])
    require(flagged == expected["outliers"],
            f"{path}: flagged {flagged}, expected {expected['outliers']}")


def cluster(path: Path, profiles: Path, n_nodes: int) -> None:
    """Community ids are 0..k-1 and cover every node once; profile shares sum to 100."""
    rows = read_rows(path)
    require(len(rows) == n_nodes, f"{path}: {len(rows)} rows for {n_nodes} nodes")
    require(len({r["node"] for r in rows}) == n_nodes, f"{path}: repeated node")
    ids = {int(r["community"]) for r in rows}
    require(ids == set(range(len(ids))), f"{path}: community ids are not contiguous")
    prof = read_rows(profiles)
    require(len(prof) == len(ids), f"{profiles}: {len(prof)} profiles for {len(ids)} communities")
    share = math.fsum(float(r["capacity_share_pct"]) for r in prof)
    require(abs(share - 100.0) <= 1e-6, f"{profiles}: capacity shares sum to {share}")


def sweep(path: Path, probes: list[int]) -> None:
    """One row per probe and non-negative deltas."""
    rows = read_rows(path)
    got = sorted(int(r["asn"]) for r in rows)
    require(got == sorted(probes), f"{path}: probes {got}, expected {sorted(probes)}")
    for r in rows:
        for key in ("delta_pr_rank", "delta_rpr_rank", "delta_pr_value", "delta_rpr_value"):
            require(float(r[key]) >= 0.0, f"{path}: negative {key} for AS{r['asn']}")


def line_count(path: Path, expected: int) -> None:
    rows = read_rows(path)
    require(len(rows) == expected, f"{path}: {len(rows)} rows, expected {expected}")


def gexf(path: Path, n_nodes: int, n_links: int) -> None:
    """Node and directed-edge counts of the export (a string count, not a parse)."""
    text = Path(path).read_text(encoding="utf-8")
    require(text.lstrip().startswith("<?xml"), f"{path}: not XML")
    nodes, links = text.count("<node "), text.count("<edge ")
    require((nodes, links) == (n_nodes, n_links),
            f"{path}: {nodes} nodes / {links} edges, expected {n_nodes} / {n_links}")


def shares(path: Path, column: str, lo: float = 0.0, hi: float = 1.0) -> None:
    for r in read_rows(path):
        value = float(r[column])
        require(lo <= value <= hi, f"{path}: {column}={value} outside [{lo}, {hi}]")

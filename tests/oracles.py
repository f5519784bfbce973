"""Independent reference implementations used to check the library.

Everything here is deliberately brute force and dense: a Google matrix
assembled entry by entry, PageRank via a dense linear solve, the reduced
matrix via explicit block inversion and exhaustive set-partition search
for modularity.  None of it shares code with the package's computational
paths.

Ten references are the package's earlier paths, kept to check the fast
ones that replaced them: the PageRank power iteration ``v <- G v``, here
on the dense Google matrix (:func:`jacobi_pagerank`), the per-edge
weight-matrix loop, the rank table of one frozen row per node filtered by
a per-node callable (:func:`row_rank_table`), the beta sweep that
rebuilds the graph and cold-starts PageRank at every point, the GEXF
export through a networkx ``DiGraph`` and ``nx.write_gexf``, the graph
file as ``json.dumps`` of a payload of node records, the dump parser that
makes one frozen record per row (:func:`record_parse`), the bipartite
Louvain that numbers communities and super nodes with dicts and reads
numpy arrays one element at a time (:func:`dict_louvain`, with
:func:`dict_first_seen` and :func:`dict_aggregate`), the country
attribution that counts each AS's votes in a ``Counter``
(:func:`counter_countries`), and the classification metrics that rescan
every (predicted, truth) pair three times per country
(:func:`rescan_metrics`).  :func:`edge_list` is the graph's old list view
of its edges, which only the tests read.
"""
from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from peergraph.ingest import ParseReport, TrafficClass


def dense_google(W: np.ndarray, alpha: float = 0.85) -> np.ndarray:
    """G = alpha*S + (1-alpha)/N with uniform columns where out-weight is zero."""
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    S = np.empty_like(W)
    col_sums = W.sum(axis=0)
    for j in range(n):
        if col_sums[j] > 0:
            S[:, j] = W[:, j] / col_sums[j]
        else:
            S[:, j] = 1.0 / n
    return alpha * S + (1.0 - alpha) / n


def dense_pagerank(G: np.ndarray) -> np.ndarray:
    """Fixed point of G via a linear solve with the sum-to-one constraint."""
    n = G.shape[0]
    A = np.eye(n) - G
    A[-1, :] = 1.0  # replace one redundant equation by sum(P) = 1
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def dense_reduction(G: np.ndarray, subset: list[int]) -> np.ndarray:
    """G_rr + G_rs (I - G_ss)^-1 G_sr by explicit dense inversion."""
    n = G.shape[0]
    r = list(subset)
    s = [i for i in range(n) if i not in set(r)]
    G_rr = G[np.ix_(r, r)]
    if not s:
        return G_rr.copy()
    G_rs = G[np.ix_(r, s)]
    G_sr = G[np.ix_(s, r)]
    G_ss = G[np.ix_(s, s)]
    return G_rr + G_rs @ np.linalg.solve(np.eye(len(s)) - G_ss, G_sr)


def set_partitions(items: list):
    """Yield every partition of ``items`` as a list of lists."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[head] + partial[i]] + partial[i + 1 :]
        yield [[head]] + partial


def bipartite_modularity_direct(
    A: np.ndarray, is_as: np.ndarray, communities: np.ndarray
) -> float:
    """Direct double-loop evaluation of the two-mode modularity."""
    n = A.shape[0]
    k = A.sum(axis=1)
    m = k.sum() / 2.0
    if m <= 0:
        return 0.0
    q = 0.0
    for i in range(n):
        if not is_as[i]:
            continue
        for j in range(n):
            if is_as[j] or communities[i] != communities[j]:
                continue
            q += A[i, j] - k[i] * k[j] / m
    return q / m


def best_partition_exhaustive(A: np.ndarray, is_as: np.ndarray) -> tuple[float, list]:
    """Exhaustive-search optimum of the two-mode modularity (tiny graphs only)."""
    n = A.shape[0]
    best_q, best_parts = -np.inf, None
    for parts in set_partitions(list(range(n))):
        communities = np.empty(n, dtype=np.int64)
        for cid, members in enumerate(parts):
            for node in members:
                communities[node] = cid
        q = bipartite_modularity_direct(A, is_as, communities)
        if q > best_q:
            best_q, best_parts = q, parts
    return best_q, best_parts


def dict_first_seen(keys) -> np.ndarray:
    """Number the distinct keys 0, 1, ... by first appearance with a dict."""
    relabel: dict = {}
    for key in keys:
        if key not in relabel:
            relabel[key] = len(relabel)
    return np.array([relabel[key] for key in keys], dtype=np.int64)


def dict_aggregate(A, side, comm):
    """Louvain aggregation numbering (community, side) pairs with a dict.

    ``A`` is a symmetric AS-IXP matrix with sorted indices.  Each super edge
    is summed once in a dict, over the AS rows in order, and that one sum is
    written at both of its entries.  Returns the aggregated matrix, the side
    of each super node, the node -> super node map and the community each
    super node came from.
    """
    pairs: dict[tuple[int, int], int] = {}
    node_map = np.empty(A.shape[0], dtype=np.int64)
    for i in range(A.shape[0]):
        key = (int(comm[i]), int(side[i]))
        if key not in pairs:
            pairs[key] = len(pairs)
        node_map[i] = pairs[key]
    assert A.has_sorted_indices
    sums: dict[tuple[int, int], float] = {}
    for i in range(A.shape[0]):
        if side[i] != 0:
            continue
        for ptr in range(A.indptr[i], A.indptr[i + 1]):
            j = A.indices[ptr]
            assert side[j] == 1, f"A[{i}, {j}] joins two nodes of one side"
            edge = (int(node_map[i]), int(node_map[j]))
            sums[edge] = sums.get(edge, 0.0) + A.data[ptr]
    rows, cols, data = [], [], []
    for (p, q), weight in sums.items():
        rows += [p, q]
        cols += [q, p]
        data += [weight, weight]
    agg = sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64), (rows, cols)), shape=(len(pairs), len(pairs))
    )
    agg.sort_indices()
    new_side = np.empty(len(pairs), dtype=np.int64)
    origin_comm = np.empty(len(pairs), dtype=np.int64)
    for (community, s), super_id in pairs.items():
        new_side[super_id] = s
        origin_comm[super_id] = community
    return agg, new_side, node_map, origin_comm


def _add_at_modularity(A, is_as: np.ndarray, communities: np.ndarray) -> float:
    """Bipartite modularity with the community masses summed by ``np.add.at``."""
    k = np.asarray(A.sum(axis=1)).ravel()
    m = k.sum() / 2.0
    if m <= 0:
        return 0.0
    coo = A.tocoo()
    cross = is_as[coo.row] & ~is_as[coo.col]
    same = communities[coo.row] == communities[coo.col]
    edge_term = float(coo.data[cross & same].sum())
    n_comm = int(communities.max()) + 1
    mass_as = np.zeros(n_comm)
    mass_ixp = np.zeros(n_comm)
    np.add.at(mass_as, communities[is_as], k[is_as])
    np.add.at(mass_ixp, communities[~is_as], k[~is_as])
    return (edge_term - float((mass_as * mass_ixp).sum()) / m) / m


def _indexed_local_moves(A, side, k, m, order, init_comm, max_sweeps=1_000):
    """One Louvain level reading the numpy arrays one element at a time."""
    n = A.shape[0]
    comm = init_comm.copy()
    mass = [np.zeros(n), np.zeros(n)]
    for i in range(n):
        mass[side[i]][comm[i]] += k[i]
    indptr, indices, data = A.indptr, A.indices, A.data
    any_move = False
    for _ in range(max_sweeps):
        moved = False
        for i in order:
            own = side[i]
            opp_mass = mass[1 - own]
            current = comm[i]
            link: dict[int, float] = defaultdict(float)
            for ptr in range(indptr[i], indptr[i + 1]):
                link[comm[indices[ptr]]] += data[ptr]
            base_link = link.get(current, 0.0)
            base_null = k[i] * opp_mass[current] / m
            best_gain, best_comm = 0.0, current
            for c in sorted(link):
                if c == current:
                    continue
                gain = (link[c] - base_link) - (k[i] * opp_mass[c] / m - base_null)
                if gain > best_gain + 1e-12:
                    best_gain, best_comm = gain, c
            if best_comm != current:
                mass[own][current] -= k[i]
                mass[own][best_comm] += k[i]
                comm[i] = best_comm
                moved = any_move = True
        if not moved:
            break
    return comm, any_move


def dict_louvain(A, n_as: int):
    """Bipartite Louvain with dict numbering and numpy-indexed local moves.

    Nodes are visited one at a time in ascending order.  Returns
    ``(communities, modularity, history)``.
    """
    is_as = np.arange(A.shape[0]) < n_as
    level = A.tocsr().astype(np.float64)
    side = np.where(is_as, 0, 1)
    m = float(level.sum()) / 2.0
    node_of = np.arange(A.shape[0])
    if m <= 0:
        return node_of, 0.0, (0.0,)
    history = []
    init_comm = np.arange(level.shape[0])
    while True:
        k = np.asarray(level.sum(axis=1)).ravel()
        order = range(level.shape[0])
        comm, moved = _indexed_local_moves(level, side, k, m, order, init_comm)
        comm = dict_first_seen([int(c) for c in comm])
        final = comm[node_of]
        history.append(_add_at_modularity(A, is_as, final))
        if not moved:
            break
        level, side, node_map, init_comm = dict_aggregate(level, side, comm)
        node_of = node_map[node_of]
    return final, history[-1], tuple(history)


def counter_countries(g, rule: str = "strict") -> tuple[str, ...]:
    """Country of each AS by a per-AS ``Counter`` of its IXPs' countries ("Tied" if none wins)."""
    votes: list[Counter] = [Counter() for _ in range(g.n_as)]
    for a, x in zip(g.edge_as.tolist(), g.edge_ixp.tolist()):
        country = g.ixp_country[x - g.n_as]
        if country:
            votes[a][country] += 1

    assignment = []
    for counter in votes:
        if not counter:
            assignment.append("Tied")
            continue
        ranked = counter.most_common()
        top_country, top_count = ranked[0]
        if rule == "strict":
            winner = top_count * 2 > sum(counter.values())
        else:
            winner = len(ranked) == 1 or ranked[1][1] < top_count
        assignment.append(top_country if winner else "Tied")
    return tuple(assignment)


def rescan_metrics(assignments: dict[int, str], as_country: dict[int, str], countries):
    """``(country, precision, recall, f1, support)`` per country, rescanning
    every (predicted, truth) pair three times per country."""
    pairs = [
        (predicted, as_country[asn])
        for asn, predicted in assignments.items()
        if asn in as_country
    ]
    rows = []
    for country in countries:
        tp = sum(1 for p, t in pairs if p == country and t == country)
        fp = sum(1 for p, t in pairs if p == country and t != country)
        fn = sum(1 for p, t in pairs if p != country and t == country)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        rows.append((country, precision, recall, f1, tp + fn))
    return rows


def loop_weight_matrix(snapshot, beta) -> sparse.csr_matrix:
    """Weight matrix of a snapshot built edge by edge from a port-size dict.

    Nodes are ordered ASes (ascending) then IXPs (ascending);
    ``W[i, j]`` is the weight of ``j -> i`` and zero weights are left out.
    """
    classes = tuple(TrafficClass)
    class_of = {
        asn: classes[code]
        for asn, code in zip(snapshot.asn.tolist(), snapshot.as_class.tolist())
    }
    agg: dict[tuple[int, int], float] = {}
    ports = zip(
        snapshot.port_asn.tolist(), snapshot.port_ixp_id.tolist(), snapshot.port_size.tolist()
    )
    for asn, ixp_id, ps in ports:
        if ps > 0.0:
            agg[(asn, ixp_id)] = agg.get((asn, ixp_id), 0.0) + ps
    as_ids = sorted({a for a, _ in agg})
    ixp_ids = sorted({x for _, x in agg})
    as_pos = {a: i for i, a in enumerate(as_ids)}
    ixp_pos = {x: len(as_ids) + i for i, x in enumerate(ixp_ids)}
    n = len(as_ids) + len(ixp_ids)
    rows, cols, data = [], [], []
    for (asn, ixp_id), ps in sorted(agg.items()):
        tc = class_of[asn]
        minor = (1.0 - beta.for_class(tc)) * ps
        to_as, to_ixp = (minor, ps) if tc.is_outbound else (ps, minor)
        a, x = as_pos[asn], ixp_pos[ixp_id]
        for row, col, w in ((a, x, to_as), (x, a, to_ixp)):
            if w > 0.0:
                rows.append(row)
                cols.append(col)
                data.append(w)
    W = sparse.csr_matrix((np.asarray(data, dtype=np.float64), (rows, cols)), shape=(n, n))
    W.sort_indices()
    return W


def sorted_rank_positions(values: np.ndarray) -> np.ndarray:
    """1-based ranks by descending value, ties to the lower index, via ``sorted``."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    ranks = np.empty(len(values), dtype=np.int64)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return ranks


@dataclass(frozen=True)
class RankEntry:
    label: str
    kind: str
    name: str
    value: float
    rank: int


def row_rank_table(values, labels, kinds=None, names=None, keep=None) -> tuple[RankEntry, ...]:
    """One frozen row per kept node, by descending value, ties to the lower index.

    ``keep`` is a callable on node indices; the survivors are re-ranked
    contiguously from 1.
    """
    kinds = kinds if kinds is not None else ("",) * len(labels)
    names = names if names is not None else ("",) * len(labels)
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    indices = [i for i in order if keep is None or keep(i)]
    return tuple(
        RankEntry(label=labels[i], kind=kinds[i], name=names[i], value=float(values[i]), rank=r)
        for r, i in enumerate(indices, start=1)
    )


def cold_sweep(snapshot, grid_h, grid_m, probes, beta_default, alpha, tol) -> dict:
    """Beta sweep that rebuilds the graph and starts PageRank uniform at each point.

    Returns ``asn -> (pr_value, pr_rank, delta_pr_rank, rpr_value, rpr_rank,
    delta_rpr_rank, delta_pr_value, delta_rpr_value)`` at ``beta_default``
    and over the grid points with ``beta_heavy < 1``.
    """
    from peergraph.graph import BetaParams, build_graph
    from peergraph.spectral import google_matrix, pagerank

    def point(beta):
        g = build_graph(snapshot, beta)
        idx = [g.as_index(asn) for asn in probes]
        out = []
        for direction in ("forward", "reverse"):
            P = pagerank(google_matrix(g, alpha, direction), tol=tol).P
            out.append((sorted_rank_positions(P)[idx], P[idx]))
        return out

    (pr_rank, pr_val), (rpr_rank, rpr_val) = point(beta_default)
    grid = [
        point(BetaParams(balanced=beta_default.balanced, mostly=bm, heavy=bh))
        for bh in grid_h
        if bh < 1.0
        for bm in grid_m
    ]
    result = {}
    for j, asn in enumerate(probes):
        def spread(direction, part):
            column = [p[direction][part][j] for p in grid]
            return max(column) - min(column)

        result[asn] = (
            float(pr_val[j]), int(pr_rank[j]), int(spread(0, 0)),
            float(rpr_val[j]), int(rpr_rank[j]), int(spread(1, 0)),
            float(spread(0, 1)), float(spread(1, 1)),
        )
    return result


def edge_list(g) -> list[tuple[int, int, float]]:
    """The aggregated edges of a graph as (asn, ixp_id, port size), in edge order."""
    asn, ixp_id = g.edge_ids()
    return list(zip(asn.tolist(), ixp_id.tolist(), g.port_size.tolist()))


def networkx_gexf(g) -> str:
    """GEXF text of a graph written by networkx from a ``DiGraph``.

    Nodes are added in index order with their label and attributes, then
    one edge per directed link of positive weight, its weight worked out
    edge by edge from the AS's class, in (source, target) order.  The
    ``<meta>`` header names the day of writing and the networkx version.
    """
    import io

    import networkx as nx

    graph = nx.DiGraph()
    for i, label in enumerate(g.labels):
        country = "" if i < g.n_as else g.ixp_country[i - g.n_as]
        graph.add_node(
            label,
            label=g.names[i] or label,
            type=g.kinds[i],
            country=country,
            port_capacity=float(g.capacity[i]),
        )
    classes = tuple(TrafficClass)
    as_class = g.as_class.tolist()
    links = []
    for a, x, ps in zip(g.edge_as.tolist(), g.edge_ixp.tolist(), g.port_size.tolist()):
        tc = classes[as_class[a]]
        minor = (1.0 - g.beta.for_class(tc)) * ps
        to_as, to_ixp = (minor, ps) if tc.is_outbound else (ps, minor)
        links += [(x, a, to_as), (a, x, to_ixp)]
    for src, dst, weight in sorted(links):
        if weight > 0.0:
            graph.add_edge(g.labels[src], g.labels[dst], weight=weight)
    buffer = io.BytesIO()
    nx.write_gexf(graph, buffer)
    return buffer.getvalue().decode("utf-8")


def json_graph_text(g) -> str:
    """Graph-file text as ``json.dumps`` writes the payload of node records."""
    classes = tuple(TrafficClass)
    payload = {
        "format": "peergraph-graph",
        "version": 1,
        "date": g.date.isoformat() if g.date else None,
        "beta": {"balanced": g.beta.balanced, "mostly": g.beta.mostly, "heavy": g.beta.heavy},
        "as_nodes": [
            {
                "asn": asn,
                "name": name,
                "info_ratio": classes[code].value,
                "info_scope": scope,
                "info_type": kind,
            }
            for asn, code, name, scope, kind in zip(
                g.asn.tolist(), g.as_class.tolist(), g.as_name, g.as_scope, g.as_type
            )
        ],
        "ixp_nodes": [
            {"id": ixp_id, "name": name, "country": country}
            for ixp_id, name, country in zip(g.ixp_id.tolist(), g.ixp_name, g.ixp_country)
        ],
        "edges": [list(edge) for edge in edge_list(g)],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


@dataclass(frozen=True)
class NetworkRecord:
    asn: int
    name: str
    info_ratio: TrafficClass
    info_scope: str
    info_type: str


@dataclass(frozen=True)
class IxpRecord:
    ixp_id: int
    name: str
    country: str


@dataclass(frozen=True)
class MembershipRecord:
    asn: int
    ixp_id: int
    port_size: float


@dataclass(frozen=True)
class RecordSnapshot:
    networks: tuple[NetworkRecord, ...]  # ascending asn
    ixps: tuple[IxpRecord, ...]  # ascending ixp_id
    memberships: tuple[MembershipRecord, ...]  # dump order
    report: ParseReport


def _encodes(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not a JSON integer")
    return value


def _valid_id(value) -> int:
    node_id = _integer(value)
    if not 1 <= node_id < 2**63:
        raise ValueError("id out of range")
    return node_id


def record_parse(path) -> RecordSnapshot:
    """A well-formed dump parsed into one frozen record per kept row.

    The drop rules are those of ``parse_snapshot``: rows whose id is not
    a JSON integer (a membership's) or one in [1, 2**63) (a network's or
    exchange's), whose numbers overflow, whose speed is not a JSON number
    or is negative, NaN or infinite, or whose text holds a lone surrogate
    are invalid; the last duplicate id wins; memberships naming an unknown AS
    or exchange are unresolved; a missing speed is 0.
    """
    raw = json.loads(Path(path).read_bytes())

    def section(key):
        value = raw[key]
        return value["data"] if isinstance(value, dict) else value

    bad_row = (KeyError, TypeError, ValueError, OverflowError)
    invalid_networks = duplicate_networks = 0
    nets: dict[int, NetworkRecord] = {}
    for rec in section("net"):
        try:
            record = NetworkRecord(
                asn=_valid_id(rec["asn"]),
                name=str(rec.get("name") or ""),
                info_ratio=TrafficClass.from_text(rec.get("info_ratio")),
                info_scope=str(rec.get("info_scope") or "Not Disclosed"),
                info_type=str(rec.get("info_type") or "Not Disclosed"),
            )
            if not _encodes(record.name + record.info_scope + record.info_type):
                raise ValueError("text holds a lone surrogate")
        except bad_row:
            invalid_networks += 1
            continue
        if record.asn in nets:
            duplicate_networks += 1
        nets[record.asn] = record

    invalid_ixps = duplicate_ixps = 0
    ixps: dict[int, IxpRecord] = {}
    for rec in section("ix"):
        try:
            record = IxpRecord(
                ixp_id=_valid_id(rec["id"]),
                name=str(rec.get("name") or ""),
                country=str(rec.get("country") or ""),
            )
            if not _encodes(record.name + record.country):
                raise ValueError("text holds a lone surrogate")
        except bad_row:
            invalid_ixps += 1
            continue
        if record.ixp_id in ixps:
            duplicate_ixps += 1
        ixps[record.ixp_id] = record

    invalid_memberships = unresolved = 0
    memberships: list[MembershipRecord] = []
    for rec in section("netixlan"):
        try:
            asn = _integer(rec["asn"])
            ixp_id = _integer(rec["ix_id"])
            speed = rec.get("speed")
            if isinstance(speed, bool) or not isinstance(speed, (int, float, type(None))):
                raise TypeError("speed is not a JSON number")
            port_size = 0.0 if speed is None else float(speed)
            if not (math.isfinite(port_size) and port_size >= 0):
                raise ValueError("speed must be finite and non-negative")
        except bad_row:
            invalid_memberships += 1
            continue
        if asn not in nets or ixp_id not in ixps:
            unresolved += 1
            continue
        memberships.append(MembershipRecord(asn=asn, ixp_id=ixp_id, port_size=port_size))

    report = ParseReport(
        networks=len(nets),
        ixps=len(ixps),
        memberships=len(memberships),
        invalid_networks=invalid_networks,
        invalid_ixps=invalid_ixps,
        invalid_memberships=invalid_memberships,
        duplicate_networks=duplicate_networks,
        duplicate_ixps=duplicate_ixps,
        unresolved_memberships=unresolved,
    )
    return RecordSnapshot(
        networks=tuple(sorted(nets.values(), key=lambda n: n.asn)),
        ixps=tuple(sorted(ixps.values(), key=lambda x: x.ixp_id)),
        memberships=tuple(memberships),
        report=report,
    )


def jacobi_pagerank(W, alpha: float = 0.85, tol: float = 1e-10, max_iter: int = 10_000,
                    start=None):
    """PageRank by the power iteration ``v <- G v`` on ``G = dense_google(W, alpha)``,
    normalized at every step, until the L1 change of one step drops below ``tol``.

    ``W`` is a dense weight matrix with ``W[i, j]`` the weight of ``j -> i``.
    Starts from the uniform vector or from ``start`` (normalized); returns a
    :class:`~peergraph.spectral.PageRankVector`.
    """
    from peergraph.errors import ConvergenceError
    from peergraph.spectral import PageRankVector

    G = dense_google(W, alpha)
    n = G.shape[0]
    if start is None:
        v = np.full(n, 1.0 / n)
    else:
        v = np.array(start, dtype=np.float64)
        v /= v.sum()
    for iteration in range(1, max_iter + 1):
        nxt = G @ v
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - v).sum())
        v = nxt
        if residual < tol:
            return PageRankVector(P=v, iterations=iteration, residual=residual)
    raise ConvergenceError(
        f"PageRank did not reach tol={tol} within {max_iter} iterations"
    )

"""Independent reference implementations used to check the library.

Everything here is deliberately brute force and dense: a Google matrix
assembled entry by entry, PageRank via a dense linear solve, the reduced
matrix via explicit block inversion and exhaustive set-partition search
for modularity.  None of it shares code with the package's computational
paths.

Four references are the package's earlier paths, kept to check the fast
ones that replaced them: the per-edge weight-matrix loop, the beta sweep
that rebuilds the graph and cold-starts PageRank at every point, the GEXF
export through a networkx ``DiGraph`` and ``nx.write_gexf``, and the graph
file as ``json.dumps`` of a payload of node records.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse


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


def loop_weight_matrix(snapshot, beta) -> sparse.csr_matrix:
    """Weight matrix of a snapshot built edge by edge from a port-size dict.

    Nodes are ordered ASes (ascending) then IXPs (ascending);
    ``W[i, j]`` is the weight of ``j -> i`` and zero weights are left out.
    """
    agg: dict[tuple[int, int], float] = {}
    for m in snapshot.memberships:
        if m.port_size > 0.0:
            agg[(m.asn, m.ixp_id)] = agg.get((m.asn, m.ixp_id), 0.0) + m.port_size
    as_ids = sorted({a for a, _ in agg})
    ixp_ids = sorted({x for _, x in agg})
    as_pos = {a: i for i, a in enumerate(as_ids)}
    ixp_pos = {x: len(as_ids) + i for i, x in enumerate(ixp_ids)}
    n = len(as_ids) + len(ixp_ids)
    rows, cols, data = [], [], []
    for (asn, ixp_id), ps in sorted(agg.items()):
        tc = snapshot.network_by_asn[asn].info_ratio
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


def networkx_gexf(g) -> str:
    """GEXF text of a graph written by networkx from a ``DiGraph``.

    Nodes are added in index order with their label and attributes, then
    one edge per stored entry of ``W`` in COO order.  The ``<meta>``
    header names the day of writing and the networkx version.
    """
    import io

    import networkx as nx

    from peergraph.graph import node_metrics

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
    return buffer.getvalue().decode("utf-8")


def json_graph_text(g) -> str:
    """Graph-file text as ``json.dumps`` writes the payload of node records."""
    import json

    payload = {
        "format": "peergraph-graph",
        "version": 1,
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
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"

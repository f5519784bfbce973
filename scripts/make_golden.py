#!/usr/bin/env python3
"""Regenerate the committed golden outputs for the fixture snapshot.

Everything here is computed independently of the package: the dump is
parsed with plain json, the weight matrix is assembled densely from the
documented weighting rules, PageRank comes from a dense linear solve,
the reduced matrix from an explicit dense block inversion and the
communities from a node-at-a-time Louvain on nested lists.  The CLI
end-to-end test compares its outputs against these files, so any change
to the library's numerics that alters results will show up as a diff.

Run from the repository root:  python3 scripts/make_golden.py
"""
from __future__ import annotations

import csv
import io
import json
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "fixture_snapshot.json"
GOLDEN = ROOT / "tests" / "golden"

ALPHA = 0.85
BETA = {"Heavy": 0.95, "Mostly": 0.75, "Balanced": 0.0, "Not Disclosed": 0.0}
OUTBOUND = {"Heavy Outbound", "Mostly Outbound"}
ISP_TYPES = {"Cable/DSL/ISP", "Not Disclosed"}
SUBSET_ASNS = [64500, 64501, 64504, 64510, 64515, 64516]
RECEIVER_COUNTRIES = ["DE", "US"]
HYPERGIANTS_K = 5
SWEEP_GRID_H = [0.90, 0.95]
SWEEP_GRID_M = [0.6, 0.8]


def beta_for(ratio: str) -> float:
    if ratio.startswith("Heavy"):
        return BETA["Heavy"]
    if ratio.startswith("Mostly"):
        return BETA["Mostly"]
    return BETA["Balanced"]


def load_fixture():
    raw = json.loads(FIXTURE.read_text())
    section = lambda key: raw[key]["data"] if isinstance(raw[key], dict) else raw[key]
    nets = {rec["asn"]: rec for rec in section("net")}
    ixps = {rec["id"]: rec for rec in section("ix")}
    edges: dict[tuple[int, int], float] = {}
    for rec in section("netixlan"):
        if rec.get("speed", 0) and rec["speed"] > 0:
            key = (rec["asn"], rec["ix_id"])
            edges[key] = edges.get(key, 0.0) + float(rec["speed"])
    return nets, ixps, edges


def build_dense(nets, ixps, edges, beta_h=0.95, beta_m=0.75):
    as_ids = sorted({a for a, _ in edges})
    ixp_ids = sorted({x for _, x in edges})
    index = {("AS", a): i for i, a in enumerate(as_ids)}
    index.update({("IX", x): len(as_ids) + j for j, x in enumerate(ixp_ids)})
    n = len(as_ids) + len(ixp_ids)
    W = np.zeros((n, n))
    for (asn, ixp_id), ps in edges.items():
        ratio = nets[asn].get("info_ratio") or "Not Disclosed"
        if ratio.startswith("Heavy"):
            b = beta_h
        elif ratio.startswith("Mostly"):
            b = beta_m
        else:
            b = 0.0
        a, x = index[("AS", asn)], index[("IX", ixp_id)]
        if ratio in OUTBOUND:
            W[a, x], W[x, a] = (1.0 - b) * ps, ps
        else:
            W[a, x], W[x, a] = ps, (1.0 - b) * ps
    labels = [f"AS{a}" for a in as_ids] + [f"IX{x}" for x in ixp_ids]
    kinds = ["AS"] * len(as_ids) + ["IXP"] * len(ixp_ids)
    names = [nets[a]["name"] for a in as_ids] + [ixps[x]["name"] for x in ixp_ids]
    return W, labels, kinds, names, as_ids, ixp_ids


def google(W):
    n = W.shape[0]
    S = np.empty_like(W)
    sums = W.sum(axis=0)
    for j in range(n):
        S[:, j] = W[:, j] / sums[j] if sums[j] > 0 else 1.0 / n
    return ALPHA * S + (1.0 - ALPHA) / n


def solve_pagerank(G):
    n = G.shape[0]
    A = np.eye(n) - G
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def ranks_of(values):
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    ranks = [0] * len(values)
    for r, i in enumerate(order, start=1):
        ranks[i] = r
    return order, ranks


def csv_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def rank_csv(values, labels, kinds, keep=None):
    order, _ = ranks_of(values)
    kept = [i for i in order if keep is None or keep(i)]
    rows = [["node", "type", "value", "rank"]]
    rows.extend(
        [labels[i], kinds[i], repr(float(values[i])), r]
        for r, i in enumerate(kept, start=1)
    )
    return csv_text(rows)


def reduced_and_censored(G, subset_idx):
    n = G.shape[0]
    r = subset_idx
    s = [i for i in range(n) if i not in set(r)]
    GR = G[np.ix_(r, r)] + G[np.ix_(r, s)] @ np.linalg.solve(
        np.eye(len(s)) - G[np.ix_(s, s)], G[np.ix_(s, r)]
    )
    # censor: zero diagonal, re-normalize columns
    C = GR.copy()
    off = C.sum(axis=0) - np.diag(C)
    np.fill_diagonal(C, 0.0)
    C /= off[None, :]
    return GR, C


def louvain(A, n_as):
    """Bipartite Louvain (Blondel et al. 2008 on Barber's 2007 modularity).

    ``A`` is the symmetric weight matrix as nested lists, its first ``n_as``
    nodes the AS side.  Nodes are visited one at a time in ascending order;
    a node takes the first community, scanned in ascending id, whose gain
    beats the best so far by more than 1e-12.  Each level ends when a sweep
    moves no node; each (community, side) pair then becomes one super node,
    numbered by its first node.  Communities are numbered by first node.
    """
    n = len(A)
    rows = [[(j, w) for j, w in enumerate(row) if w] for row in A]
    side = [int(i >= n_as) for i in range(n)]
    m = sum(w for row in rows for _, w in row) / 2.0
    final = list(range(n))
    if m <= 0:
        return final
    node_of = list(range(n))  # original node -> node of the current level
    comm = list(range(n))
    while True:
        k = [sum(w for _, w in row) for row in rows]
        mass = [{}, {}]
        for i, c in enumerate(comm):
            mass[side[i]][c] = mass[side[i]].get(c, 0.0) + k[i]
        any_move = False
        while True:
            moved = False
            for i, row in enumerate(rows):
                link = {}
                for j, w in row:
                    link[comm[j]] = link.get(comm[j], 0.0) + w
                own, current, opp = side[i], comm[i], mass[1 - side[i]]
                base_link = link.get(current, 0.0)
                base_null = k[i] * opp.get(current, 0.0) / m
                best_gain, best = 0.0, current
                for c in sorted(link):
                    if c == current:
                        continue
                    gain = (link[c] - base_link) - (k[i] * opp.get(c, 0.0) / m - base_null)
                    if gain > best_gain + 1e-12:
                        best_gain, best = gain, c
                if best != current:
                    mass[own][current] -= k[i]
                    mass[own][best] = mass[own].get(best, 0.0) + k[i]
                    comm[i] = best
                    moved = any_move = True
            if not moved:
                break
        number = {}
        for c in comm:
            number.setdefault(c, len(number))
        comm = [number[c] for c in comm]
        final = [comm[v] for v in node_of]
        if not any_move:
            return final
        supers = {}
        for i in range(len(rows)):
            supers.setdefault((comm[i], side[i]), len(supers))
        super_of = [supers[(comm[i], side[i])] for i in range(len(rows))]
        merged = [{} for _ in supers]
        for i, row in enumerate(rows):
            for j, w in row:
                target = merged[super_of[i]]
                target[super_of[j]] = target.get(super_of[j], 0.0) + w
        rows = [sorted(row.items()) for row in merged]
        side = [s for _, s in supers]  # dicts keep the order of first appearance
        comm = [c for c, _ in supers]
        node_of = [super_of[v] for v in node_of]


def cluster_csvs(W, labels, kinds, names, n_as, capacity, country):
    """The ``cluster`` table and its per-community profile table."""
    n = len(labels)
    A = [[float(W[i, j] + W[j, i]) for j in range(n)] for i in range(n)]
    comm = louvain(A, n_as)
    rows = [["node", "type", "name", "community"]]
    rows.extend([labels[i], kinds[i], names[i], comm[i]] for i in range(n))

    total_capacity = sum(capacity[n_as:])
    n_ixps = n - n_as
    profiles = []
    for c in range(max(comm) + 1):
        members = [i for i in range(n) if comm[i] == c]
        ixps = [i for i in members if i >= n_as]
        cap = sum(capacity[i] for i in ixps)
        table = sorted(Counter(country[i] for i in ixps if country[i]).items(),
                       key=lambda item: (-item[1], item[0]))
        profiles.append([
            c, 100.0 * cap / total_capacity, 100.0 * len(ixps) / n_ixps, len(ixps),
            len(members) - len(ixps), len(table), "|".join(f"{k}:{v}" for k, v in table),
        ])
    profiles.sort(key=lambda p: (-p[1], p[0]))
    prof_rows = [["community", "capacity_share_pct", "ixp_share_pct", "n_ixps", "n_as",
                  "n_countries", "countries"]]
    prof_rows.extend([p[0], repr(p[1]), repr(p[2]), *p[3:]] for p in profiles)
    return csv_text(rows), csv_text(prof_rows)


def reduced_csv(C, labels_subset, date):
    head = f"# peergraph=reduced direction=reverse censored=1 alpha={ALPHA!r} date={date}\n"
    rows = [["node", *labels_subset]]
    for i, label in enumerate(labels_subset):
        rows.append([label, *(repr(float(v)) for v in C[i, :])])
    return head + csv_text(rows)


def main() -> None:
    nets, ixps, edges = load_fixture()
    W, labels, kinds, names, as_ids, ixp_ids = build_dense(nets, ixps, edges)
    n_as = len(as_ids)
    G_fwd = google(W)
    G_rev = google(W.T)
    pr = solve_pagerank(G_fwd)
    rpr = solve_pagerank(G_rev)

    write(GOLDEN / "rank_forward.csv", rank_csv(pr, labels, kinds))
    write(GOLDEN / "rank_reverse.csv", rank_csv(rpr, labels, kinds))

    # --- reduced matrix (reverse direction, censored) and its beta-variant diff ---
    write(GOLDEN / "subset.txt", "".join(f"{a}\n" for a in SUBSET_ASNS))
    subset_idx = [as_ids.index(a) for a in SUBSET_ASNS]
    subset_labels = [f"AS{a}" for a in SUBSET_ASNS]
    _, C1 = reduced_and_censored(G_rev, subset_idx)
    write(GOLDEN / "reduced_reverse.csv", reduced_csv(C1, subset_labels, "2020-01-01"))

    W2, *_ = build_dense(nets, ixps, edges, beta_h=0.90)
    _, C2 = reduced_and_censored(google(W2.T), subset_idx)
    write(GOLDEN / "reduced_reverse_beta90.csv", reduced_csv(C2, subset_labels, "2020-01-01"))

    delta = (C2 - C1) / np.where(C1 == 0.0, np.nan, C1)
    delta[C1 == 0.0] = np.nan
    capped = np.clip(delta, -0.5, 1.0)
    head = "# peergraph=diff d1=2020-01-01 d2=2020-01-01 cap=-0.5:1.0\n"
    rows = [["node", *subset_labels]]
    for i, label in enumerate(subset_labels):
        rows.append([label, *(repr(float(v)) for v in capped[i, :])])
    write(GOLDEN / "diff_beta.csv", head + csv_text(rows))

    # --- country classification by strict IXP majority ---
    country_of = {x: ixps[x].get("country") or "" for x in ixp_ids}
    classify_rows = [["asn", "name", "country"]]
    assignment = {}
    for asn in as_ids:
        votes = Counter(
            country_of[x] for (a, x) in edges if a == asn and country_of[x]
        )
        label = "Tied"
        if votes:
            top, count = votes.most_common(1)[0]
            if 2 * count > sum(votes.values()):
                label = top
        assignment[asn] = label
        classify_rows.append([asn, nets[asn]["name"], label])
    write(GOLDEN / "classify.csv", csv_text(classify_rows))

    # --- hypergiants: top-k ASes by reverse PageRank ---
    order, _ = ranks_of(rpr)
    as_order = [i for i in order if kinds[i] == "AS"]
    giant_rows = [["rank", "node", "name", "value"]]
    for r, i in enumerate(as_order[:HYPERGIANTS_K], start=1):
        giant_rows.append([r, labels[i], names[i], repr(float(rpr[i]))])
    write(GOLDEN / "hypergiants.csv", csv_text(giant_rows))
    giants = {as_ids[i] for i in as_order[:HYPERGIANTS_K]}

    # --- per-country traffic receivers (forward PR, access types only) ---
    receiver_rows = [["country", "rank", "node", "name", "value"]]
    for country in RECEIVER_COUNTRIES:
        candidates = [
            i
            for i in [labels.index(f"AS{a}") for a in as_ids]
            if assignment[as_ids[i]] == country
            and (nets[as_ids[i]].get("info_type") or "Not Disclosed") in ISP_TYPES
            and as_ids[i] not in giants
        ]
        candidates.sort(key=lambda i: (-pr[i], i))
        for r, i in enumerate(candidates[:4], start=1):
            receiver_rows.append([country, r, labels[i], names[i], repr(float(pr[i]))])
    write(GOLDEN / "receivers.csv", csv_text(receiver_rows))

    # --- capacity time series (single date) ---
    raw = json.loads(FIXTURE.read_text())
    ports = raw["netixlan"]["data"] if isinstance(raw["netixlan"], dict) else raw["netixlan"]
    total = float(sum(rec.get("speed") or 0 for rec in ports))
    write(
        GOLDEN / "timeseries.csv",
        csv_text([["date", "total_capacity_mbit"], ["2020-01-01", repr(total)]]),
    )

    # --- beta sweep (2x2 grid) over the default probes ---
    capacity = {a: 0.0 for a in as_ids}
    for (a, x), ps in edges.items():
        capacity[a] += ps
    by_class: dict[str, list[tuple[float, int]]] = {}
    for a in as_ids:
        ratio = nets[a].get("info_ratio") or "Not Disclosed"
        by_class.setdefault(ratio, []).append((-capacity[a], a))
    class_order = [
        "Balanced", "Heavy Inbound", "Heavy Outbound",
        "Mostly Inbound", "Mostly Outbound", "Not Disclosed",
    ]
    shorts = {"Balanced": "B", "Heavy Inbound": "HI", "Heavy Outbound": "HO",
              "Mostly Inbound": "MI", "Mostly Outbound": "MO", "Not Disclosed": "ND"}
    probes = [a for ratio in class_order for _, a in sorted(by_class.get(ratio, []))[:4]]

    probe_idx = [as_ids.index(a) for a in probes]
    grid_pr_ranks, grid_rpr_ranks = [], []
    grid_pr_vals, grid_rpr_vals = [], []
    for bh in SWEEP_GRID_H:
        for bm in SWEEP_GRID_M:
            Wg, *_ = build_dense(nets, ixps, edges, beta_h=bh, beta_m=bm)
            p = solve_pagerank(google(Wg))
            q = solve_pagerank(google(Wg.T))
            _, pranks = ranks_of(p)
            _, qranks = ranks_of(q)
            grid_pr_ranks.append([pranks[i] for i in probe_idx])
            grid_rpr_ranks.append([qranks[i] for i in probe_idx])
            grid_pr_vals.append([p[i] for i in probe_idx])
            grid_rpr_vals.append([q[i] for i in probe_idx])
    _, pr_ranks0 = ranks_of(pr)
    _, rpr_ranks0 = ranks_of(rpr)
    sweep_rows = [[
        "asn", "name", "class", "pr_value", "pr_rank", "delta_pr_rank",
        "rpr_value", "rpr_rank", "delta_rpr_rank", "delta_pr_value", "delta_rpr_value",
    ]]
    for j, asn in enumerate(probes):
        i = as_ids.index(asn)
        pr_r = [row[j] for row in grid_pr_ranks]
        rpr_r = [row[j] for row in grid_rpr_ranks]
        pr_v = [row[j] for row in grid_pr_vals]
        rpr_v = [row[j] for row in grid_rpr_vals]
        ratio = nets[asn].get("info_ratio") or "Not Disclosed"
        sweep_rows.append([
            asn, nets[asn]["name"], shorts[ratio],
            repr(float(pr[i])), pr_ranks0[i], max(pr_r) - min(pr_r),
            repr(float(rpr[i])), rpr_ranks0[i], max(rpr_r) - min(rpr_r),
            repr(float(max(pr_v) - min(pr_v))), repr(float(max(rpr_v) - min(rpr_v))),
        ])
    write(GOLDEN / "sweep.csv", csv_text(sweep_rows))

    # --- bipartite Louvain communities and their profiles ---
    node_capacity = [0.0] * len(labels)
    for (a, x), ps in edges.items():
        node_capacity[as_ids.index(a)] += ps
        node_capacity[n_as + ixp_ids.index(x)] += ps
    node_country = [""] * n_as + [ixps[x].get("country") or "" for x in ixp_ids]
    cluster_text, profile_text = cluster_csvs(
        W, labels, kinds, names, n_as, node_capacity, node_country
    )
    write(GOLDEN / "cluster.csv", cluster_text)
    write(GOLDEN / "cluster_profiles.csv", profile_text)


if __name__ == "__main__":
    main()

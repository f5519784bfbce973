"""Command-line pipeline: ingest -> build -> rank/reduce/diff/classify/cluster/...

Every output file is written atomically.  Each command returns the paths
it wrote, and :func:`main` pairs each with a ``<output>.manifest.json``.
The manifest is made from the parsed flags alone: the command line, every
flag except the output paths (defaults included, input paths as given),
and the SHA-256 digests of all input and output files.  Inputs are
digested before the command runs, so they are recorded as the command
read them.  Identical inputs and flags reproduce identical bytes.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from datetime import date as Date
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    TIED,
    TYPE_ISP,
    TYPE_NOT_DISCLOSED,
    TYPE_NSP,
    beta_stability_sweep,
    classification_metrics,
    classify_countries,
    eums_coverage,
    top_hypergiants,
    traffic_receivers,
)
from .clustering import cluster_profiles, louvain_bipartite, symmetrize
from .errors import PeergraphError, SnapshotFormatError
from .graph import BetaParams, build_graph, fit_breakpoint
from .graphio import (
    atomic_write_text,
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
    _csv_text,
)
from .ingest import (
    as_port_capacity,
    capacity_timeseries,
    load_as_countries,
    load_market_shares,
    parse_snapshot,
    read_lines,
    validate_snapshot,
)
from .spectral import (
    censor_diagonal,
    google_matrix,
    pagerank,
    rank_table,
    reduced_google_matrix,
    relative_change,
)

_TYPE_SHORTHAND = {"ISP": TYPE_ISP, "ND": TYPE_NOT_DISCLOSED, "NSP": TYPE_NSP}


def _resolve_out(path: str) -> Path:
    """Relative outputs land in $PEERGRAPH_OUTPUT_DIR when it is set."""
    p = Path(path)
    base = os.environ.get("PEERGRAPH_OUTPUT_DIR")
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


# Flags (by argparse dest) that are not parameters: the subcommand, its
# handler and the output paths.
_NOT_PARAMETERS = ("command", "func", "out", "metrics_out", "coverage_out", "profile_out")
# Flags that name input files.  A timeseries --snapshot value is a list of
# [PATH, DATE] pairs, of which only the path is a file.
_INPUT_FLAGS = ("snapshot", "graph", "subset", "reduced", "truth", "exclude", "apnic", "probes")


def _input_paths(args) -> list[Path]:
    paths = []
    for dest in _INPUT_FLAGS:
        value = getattr(args, dest, None)
        values = [value] if isinstance(value, str) else value or []
        paths.extend(Path(v if isinstance(v, str) else v[0]) for v in values if v)
    return paths


def _write_manifests(argv: list[str], args, inputs: dict[str, str], outputs: list[Path]) -> None:
    """Write ``<output>.manifest.json`` next to each of ``outputs``."""
    if not outputs:
        return
    manifest = {
        "command": argv,
        "parameters": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS},
        "tool_version": __version__,
        "inputs": inputs,
        "outputs": {str(p): _digest(p) for p in outputs},
    }
    text = json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    for out in outputs:
        atomic_write_text(Path(str(out) + ".manifest.json"), text)


def _parse_date(flag: str, text: str) -> Date:
    try:
        return Date.fromisoformat(text)
    except ValueError as exc:
        raise PeergraphError(f"{flag} {text!r} is not a YYYY-MM-DD date ({exc})") from exc


# Points per sweep axis.  The paper's grid has 20; at PeeringDB scale one
# point costs two PageRank solves from an extrapolated start (about 5 ms), so
# 100 x 100 points bound a sweep to about a minute (44 s on 2 vCPUs).
GRID_COUNT_CAP = 100


def _parse_grid(flag: str, spec: str) -> tuple[float, ...]:
    """Grid spec ``start:stop:count`` (inclusive linspace, 1 <= count <= GRID_COUNT_CAP)
    or a single value.

    Every value is a beta, so it must lie in [0, 1].
    """
    try:
        if ":" not in spec:
            values = (float(spec),)
        else:
            start, stop, count = spec.split(":")
            if int(count) < 1:
                raise ValueError(f"count {count} is below 1")
            if int(count) > GRID_COUNT_CAP:
                cap = f"the cap is {GRID_COUNT_CAP} per axis"
                raise PeergraphError(f"{flag} {spec!r} asks for {count} points; {cap}")
            values = tuple(float(v) for v in np.linspace(float(start), float(stop), int(count)))
    except ValueError as exc:
        message = f"{flag} {spec!r} is not start:stop:count or a number ({exc})"
        raise PeergraphError(message) from exc
    if not all(0.0 <= v <= 1.0 for v in values):
        raise PeergraphError(f"{flag} {spec!r} holds a value that is not in [0, 1]")
    return values


# The smallest --tol.  The L1 change of one PageRank sweep stops falling
# near 1e-16, the rounding of float64 values that sum to 1, so a smaller
# tolerance is never met and the solver would run to its iteration cap.
TOL_FLOOR = 1e-14

_BETA = (lambda v: 0.0 <= v <= 1.0, "be in [0, 1]")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "be finite and positive")
_COUNT = (lambda v: v >= 1, "be at least 1")
# The rules for each numeric flag (by argparse dest), checked in order
# before any input is read.
_FLAG_RANGES = (
    ("alpha", lambda v: 0.0 <= v < 1.0, "be in [0, 1)"),
    ("tol", *_POSITIVE),
    ("tol", lambda v: v >= TOL_FLOOR, f"be at least {TOL_FLOOR!r}"),
    ("beta_h", *_BETA),
    ("beta_m", *_BETA),
    ("beta_b", *_BETA),
    ("k", *_COUNT),
    ("hypergiants_k", *_COUNT),
    ("outlier_factor", *_POSITIVE),
    ("cap", lambda v: v[0] <= v[1], "be numbers with LO <= HI"),
)


def _check_flags(args) -> None:
    """Raise :class:`PeergraphError` naming the first flag whose value is out of range.

    ``--validate`` without ``--reference-asn`` is refused here too.
    """
    for dest, ok, rule in _FLAG_RANGES:
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            shown = " ".join(map(repr, value)) if isinstance(value, list) else repr(value)
            raise PeergraphError(f"--{dest.replace('_', '-')} {shown} must {rule}")
    if getattr(args, "validate", False) and args.reference_asn is None:
        raise PeergraphError("--validate requires --reference-asn")


def _check_k(flag: str, k: int, g) -> None:
    if k > g.n_as:
        raise PeergraphError(f"{flag} {k} exceeds the number of ASes in the graph ({g.n_as})")


def _read_asns(path: str) -> dict[int, int]:
    """AS number -> line number of each entry of a probe or exclusion file, in file order.

    Raises :class:`SnapshotFormatError` naming the file, and the line of an
    entry that is not an AS number or repeats one; or naming the file when it
    lists no AS.
    """
    lines: dict[int, int] = {}
    for n, line in enumerate(read_lines(path, SnapshotFormatError), start=1):
        token = line.split("#", 1)[0].strip()
        if not token:
            continue
        try:
            asn = int(token[2:] if token[:2].upper() == "AS" else token)
        except ValueError as exc:
            message = f"{path}: line {n}: {token!r} is not an AS number"
            raise SnapshotFormatError(message) from exc
        if asn in lines:
            raise SnapshotFormatError(f"{path}: line {n}: AS{asn} repeats line {lines[asn]}")
        lines[asn] = n
    if not lines:
        raise SnapshotFormatError(f"{path}: the file lists no AS")
    return lines


def _parse_list(flag: str, text: str) -> list[str]:
    """The stripped, non-empty items of a comma list; refuses a list with none."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise PeergraphError(f"{flag} {text!r} lists nothing")
    return items


def _parse_countries(text: str) -> list[str]:
    """Country codes of a ``--countries`` comma list, upper-cased."""
    return [c.upper() for c in _parse_list("--countries", text)]


def _beta_from_args(args) -> BetaParams:
    return BetaParams(balanced=args.beta_b, mostly=args.beta_m, heavy=args.beta_h)


def cmd_ingest(args) -> list[Path]:
    snapshot = parse_snapshot(args.snapshot, _parse_date("--date", args.date))
    rep = snapshot.report
    print(
        f"parsed {args.snapshot}: {rep.networks} networks, {rep.ixps} ixps, "
        f"{rep.memberships} memberships"
    )
    dropped = (
        rep.invalid_networks + rep.invalid_ixps + rep.invalid_memberships
        + rep.unresolved_memberships
    )
    print(
        f"dropped: {rep.unresolved_memberships} unresolved memberships, "
        f"{rep.invalid_networks}/{rep.invalid_ixps}/{rep.invalid_memberships} invalid "
        f"net/ix/netixlan rows, {rep.duplicate_networks + rep.duplicate_ixps} duplicates"
    )
    outliers = []
    if args.validate:
        capacities = as_port_capacity(snapshot)
        reference = capacities.get(args.reference_asn, 0.0)
        if reference <= 0:
            raise PeergraphError(
                f"reference AS {args.reference_asn} has no capacity in this snapshot"
            )
        outliers = validate_snapshot(snapshot, reference, factor=args.outlier_factor)
        for o in outliers:
            print(
                f"outlier AS{o.asn} ({o.name}): {o.total_capacity:.0f} Mbit/s "
                f"> {o.threshold:.0f}"
            )
        print(f"outliers above {args.outlier_factor}x reference: {len(outliers)}")

    if args.out:
        out = _resolve_out(args.out)
        summary = {
            "date": snapshot.date.isoformat(),
            "networks": rep.networks,
            "ixps": rep.ixps,
            "memberships": rep.memberships,
            "dropped_total": dropped,
            "report": rep.__dict__,
            "total_capacity_mbit": sum(snapshot.port_size.tolist()),
            "outliers": [
                {"asn": o.asn, "name": o.name, "total_capacity": o.total_capacity}
                for o in outliers
            ],
        }
        atomic_write_text(out, json.dumps(summary, sort_keys=True, indent=1) + "\n")
        return [out]
    return []


def cmd_build(args) -> list[Path]:
    snapshot = parse_snapshot(args.snapshot, _parse_date("--date", args.date))
    g = build_graph(snapshot, _beta_from_args(args), min_members=args.min_members)
    out = _resolve_out(args.out)
    save_graph(g, out)
    print(f"built graph: {g.n_as} ASes, {g.n_ixp} IXPs, {g.n_edges} links -> {out}")
    return [out]


def cmd_rank(args) -> list[Path]:
    g = load_graph(args.graph)
    G = google_matrix(g, alpha=args.alpha, direction=args.direction)
    pr = pagerank(G, tol=args.tol)
    keep = np.array(g.kinds) == args.only if args.only else None
    table = rank_table(pr, keep=keep)
    out = _resolve_out(args.out)
    write_rank_csv(g, table, out)
    print(f"ranked {len(table)} nodes ({args.direction}) in {pr.iterations} iterations -> {out}")
    return [out]


def cmd_reduce(args) -> list[Path]:
    g = load_graph(args.graph)
    subset = read_subset_file(args.subset, g)
    G = google_matrix(g, alpha=args.alpha, direction=args.direction)
    R = reduced_google_matrix(G, subset, tol=args.tol)
    if g.date is not None:
        R = replace(R, date=g.date)
    if args.censor_diagonal:
        R = censor_diagonal(R)
    out = _resolve_out(args.out)
    write_reduced_csv(R, out)
    print(f"reduced matrix over {len(subset)} nodes ({args.direction}) -> {out}")
    return [out]


def cmd_diff(args) -> list[Path]:
    earlier = load_reduced_csv(args.reduced[0])
    later = load_reduced_csv(args.reduced[1])
    cap = tuple(args.cap) if args.cap else None
    change = relative_change(earlier, later, cap=cap)
    out = _resolve_out(args.out)
    write_change_csv(change, out)
    undefined = int(change.undefined.sum())
    print(f"diffed {len(change.labels)}x{len(change.labels)} cells ({undefined} undefined) -> {out}")
    return [out]


def cmd_classify(args) -> list[Path]:
    countries = None if args.countries is None else _parse_countries(args.countries)
    g = load_graph(args.graph)
    as_country = load_as_countries(args.truth) if args.truth else None
    assignment = classify_countries(g, rule=args.rule)
    rows = [["asn", "name", "country"]]
    rows.extend(map(list, zip(g.asn.tolist(), g.as_name, assignment)))
    out = _resolve_out(args.out)
    atomic_write_text(out, _csv_text(rows))
    outputs = [out]
    print(f"classified {g.n_as} ASes ({assignment.count(TIED)} tied) -> {out}")

    if as_country is not None:
        if countries is None:
            countries = sorted(set(assignment) - {TIED})
        metric_rows = [["country", "precision", "recall", "f1", "support"]]
        for row in classification_metrics(g, assignment, as_country, countries):
            metric_rows.append(
                [row.country, repr(row.precision), repr(row.recall), repr(row.f1), row.support]
            )
        metrics_out = _resolve_out(args.metrics_out or args.out + ".metrics.csv")
        atomic_write_text(metrics_out, _csv_text(metric_rows))
        outputs.append(metrics_out)
        print(f"classification metrics for {len(countries)} countries -> {metrics_out}")
    return outputs


def _ranked_nodes(g, table) -> list[list]:
    """(rank, label, name, value) rows of a rank table over ``g``'s nodes."""
    return [
        [rank, g.labels[i], g.names[i], repr(value)]
        for rank, (i, value) in enumerate(zip(table.index.tolist(), table.value.tolist()), 1)
    ]


def cmd_hypergiants(args) -> list[Path]:
    g = load_graph(args.graph)
    _check_k("--k", args.k, g)
    table = top_hypergiants(g, k=args.k, alpha=args.alpha, tol=args.tol)
    rows = [["rank", "node", "name", "value"], *_ranked_nodes(g, table)]
    out = _resolve_out(args.out)
    atomic_write_text(out, _csv_text(rows))
    print(f"top {args.k} diffusive ASes -> {out}")
    return [out]


def cmd_receivers(args) -> list[Path]:
    countries = _parse_countries(args.countries)
    types = frozenset(
        _TYPE_SHORTHAND.get(t.upper(), t) for t in _parse_list("--types", args.types)
    )
    g = load_graph(args.graph)
    _check_k("--hypergiants-k", args.hypergiants_k, g)
    exclusions = list(_read_asns(args.exclude)) if args.exclude else []
    shares = load_market_shares(args.apnic) if args.apnic else None
    assignment = classify_countries(g, rule=args.rule)
    giants = top_hypergiants(g, k=args.hypergiants_k, alpha=args.alpha, tol=args.tol)
    receivers = traffic_receivers(
        g,
        assignment,
        countries,
        hypergiant_asns=g.asn[giants.index],
        exclusions=exclusions,
        types=types,
        alpha=args.alpha,
        tol=args.tol,
    )
    rows = [["country", "rank", "node", "name", "value"]]
    for country in countries:
        rows.extend([country, *row] for row in _ranked_nodes(g, receivers[country]))
    out = _resolve_out(args.out)
    atomic_write_text(out, _csv_text(rows))
    outputs = [out]
    print(f"traffic receivers for {len(countries)} countries -> {out}")

    if shares is not None:
        coverage = eums_coverage(g, receivers, shares)
        cov_rows = [["country", "eums_pct"]]
        cov_rows.extend([c, repr(coverage[c])] for c in countries)
        coverage_out = _resolve_out(args.coverage_out or args.out + ".coverage.csv")
        atomic_write_text(coverage_out, _csv_text(cov_rows))
        outputs.append(coverage_out)
        print(f"market-share coverage -> {coverage_out}")
    return outputs


def cmd_sweep(args) -> list[Path]:
    date = _parse_date("--date", args.date)
    grid_h, grid_m = _parse_grid("--grid-h", args.grid_h), _parse_grid("--grid-m", args.grid_m)
    if not any(b < 1.0 for b in grid_h):
        message = f"--grid-h {args.grid_h!r} leaves no grid point (beta_heavy = 1 is excluded)"
        raise PeergraphError(message)
    probes = _read_asns(args.probes) if args.probes else None
    g = build_graph(parse_snapshot(args.snapshot, date), _beta_from_args(args))
    for asn, n in (probes or {}).items():
        if not g.contains_as(asn):
            message = f"{args.probes}: line {n}: AS{asn} is not a node of the graph"
            raise SnapshotFormatError(message)
    report = beta_stability_sweep(
        g,
        grid_heavy=grid_h,
        grid_mostly=grid_m,
        probes=None if probes is None else list(probes),
        alpha=args.alpha,
        tol=args.tol,
    )
    rows = [[
        "asn", "name", "class", "pr_value", "pr_rank", "delta_pr_rank",
        "rpr_value", "rpr_rank", "delta_rpr_rank", "delta_pr_value", "delta_rpr_value",
    ]]
    for row in report.rows:
        rows.append([
            row.asn, row.name, row.traffic_class.short, repr(row.pr_value), row.pr_rank,
            row.delta_pr_rank, repr(row.rpr_value), row.rpr_rank, row.delta_rpr_rank,
            repr(row.delta_pr_value), repr(row.delta_rpr_value),
        ])
    out = _resolve_out(args.out)
    atomic_write_text(out, _csv_text(rows))
    print(
        f"swept {len(report.grid_heavy)}x{len(report.grid_mostly)} grid points "
        f"for {len(report.rows)} probes in {report.iterations} PageRank iterations -> {out}"
    )
    return [out]


def cmd_cluster(args) -> list[Path]:
    g = load_graph(args.graph)
    partition = louvain_bipartite(symmetrize(g), g.n_as, seed=args.seed, shuffle=args.shuffle)
    rows = [["node", "type", "name", "community"]]
    rows.extend(map(list, zip(g.labels, g.kinds, g.names, partition.communities.tolist())))
    out = _resolve_out(args.out)
    atomic_write_text(out, _csv_text(rows))
    outputs = [out]
    print(
        f"{partition.n_communities} communities, modularity {partition.modularity:.6f} -> {out}"
    )

    if args.profile_out:
        profiles = cluster_profiles(partition, g)
        prof_rows = [[
            "community", "capacity_share_pct", "ixp_share_pct", "n_ixps", "n_as",
            "n_countries", "countries",
        ]]
        for p in profiles:
            table = "|".join(f"{c}:{n}" for c, n in p.country_counts)
            prof_rows.append([
                p.community, repr(p.capacity_share_pct), repr(p.ixp_share_pct),
                p.n_ixps, p.n_as, p.n_countries, table,
            ])
        profile_out = _resolve_out(args.profile_out)
        atomic_write_text(profile_out, _csv_text(prof_rows))
        outputs.append(profile_out)
        print(f"cluster profiles -> {profile_out}")
    return outputs


def cmd_export(args) -> list[Path]:
    g = load_graph(args.graph)
    out = _resolve_out(args.out)
    if args.format == "gexf":
        outputs = [export_gexf(g, out)]
    elif args.format == "edgelist":
        outputs = export_edgelist(g, out)
    else:
        outputs = [export_weight_csv(g, out)]
    print(f"exported {args.format} -> {', '.join(str(p) for p in outputs)}")
    return outputs


def cmd_timeseries(args) -> list[Path]:
    pairs = sorted(
        ((Path(path), _parse_date("--snapshot DATE", date)) for path, date in args.snapshot),
        key=lambda item: item[1],
    )
    if args.fit:
        dates = [d for _, d in pairs]
        if len(dates) < 4:
            raise PeergraphError(f"--fit needs at least 4 snapshots, got {len(dates)}")
        repeated = next((d for d, e in zip(dates, dates[1:]) if d == e), None)
        if repeated is not None:
            raise PeergraphError(
                f"--snapshot DATE {repeated.isoformat()} is given twice; --fit needs distinct dates"
            )
    snapshots = [parse_snapshot(path, date) for path, date in pairs]
    series = capacity_timeseries(snapshots)
    rows = [["date", "total_capacity_mbit"]]
    rows.extend([d.isoformat(), repr(v)] for d, v in series)
    out = _resolve_out(args.out)
    atomic_write_text(out, _csv_text(rows))
    print(f"capacity series over {len(series)} snapshots -> {out}")
    if not args.fit:
        return [out]

    fit = fit_breakpoint(series)
    fit_out = _resolve_out(args.out + ".fit.csv")
    atomic_write_text(fit_out, _csv_text([
        ["breakpoint", "slope_before_mbit_per_day", "slope_after_mbit_per_day", "sse"],
        [fit.breakpoint.isoformat(), repr(fit.slope_before), repr(fit.slope_after),
         repr(fit.sse)],
    ]))
    # Input unit is Mbit/s per day; report Gbit/day alongside.
    print(
        f"breakpoint {fit.breakpoint}: slopes {fit.slope_before:.6g} / "
        f"{fit.slope_after:.6g} Mbit/day "
        f"({fit.slope_before / 1e3:.4g} / {fit.slope_after / 1e3:.4g} Gbit/day) -> {fit_out}"
    )
    return [out, fit_out]


def _add_beta_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta-h", type=float, default=0.95, help="beta for Heavy classes")
    parser.add_argument("--beta-m", type=float, default=0.75, help="beta for Mostly classes")
    parser.add_argument(
        "--beta-b", type=float, default=0.0, help="beta for Balanced/Not Disclosed"
    )


def _add_spectral_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.85, help="damping factor")
    parser.add_argument("--tol", type=float, default=1e-10, help="L1 convergence tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peergraph",
        description="Build and analyze the weighted directed bipartite AS-IXP peering graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a snapshot dump and report counts")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--date", required=True, help="YYYY-MM-DD")
    p.add_argument("--validate", action="store_true", help="screen for capacity outliers")
    p.add_argument("--reference-asn", type=int, default=None)
    p.add_argument("--outlier-factor", type=float, default=10.0)
    p.add_argument("--out", default=None, help="optional summary JSON")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="build the capacity graph from a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--date", required=True)
    _add_beta_flags(p)
    p.add_argument("--min-members", type=int, default=1, help="drop IXPs with fewer members")
    p.add_argument("--out", required=True, help="graph JSON output")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("rank", help="PageRank / reverse PageRank table")
    p.add_argument("--graph", required=True)
    p.add_argument("--direction", choices=["forward", "reverse"], default="forward")
    _add_spectral_flags(p)
    p.add_argument("--only", choices=["AS", "IXP"], default=None, help="restrict and re-rank")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("reduce", help="reduced Google matrix for a node subset")
    p.add_argument("--graph", required=True)
    p.add_argument("--subset", required=True, help="file of AS numbers / AS-IX labels")
    p.add_argument("--direction", choices=["forward", "reverse"], default="reverse")
    p.add_argument("--censor-diagonal", action="store_true")
    _add_spectral_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("diff", help="relative change between two reduced matrices")
    p.add_argument("--reduced", nargs=2, required=True, metavar=("M1", "M2"))
    p.add_argument("--cap", nargs=2, type=float, default=None, metavar=("LO", "HI"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("classify", help="country attribution from IXP memberships")
    p.add_argument("--graph", required=True)
    p.add_argument("--rule", choices=["strict", "plurality"], default="strict")
    p.add_argument("--truth", default=None, help="asn,country rows for validation")
    p.add_argument("--countries", default=None, help="comma list for the metrics table")
    p.add_argument("--metrics-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("hypergiants", help="top diffusive ASes by reverse PageRank")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=20)
    _add_spectral_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hypergiants)

    p = sub.add_parser("receivers", help="per-country top traffic receivers")
    p.add_argument("--graph", required=True)
    p.add_argument("--countries", required=True, help="comma list, e.g. US,DE,FR")
    p.add_argument("--types", default="ISP,ND", help="business types (ISP,ND[,NSP] or full names)")
    p.add_argument("--exclude", default=None, help="file of AS numbers to drop")
    p.add_argument("--hypergiants-k", type=int, default=20)
    p.add_argument("--rule", choices=["strict", "plurality"], default="strict")
    _add_spectral_flags(p)
    p.add_argument("--apnic", nargs="+", default=None, help="market-share tables")
    p.add_argument("--coverage-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_receivers)

    p = sub.add_parser("sweep", help="rank stability over a beta grid")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--date", required=True)
    p.add_argument("--grid-h", default="0.9:1.0:20", help="start:stop:count (1.0 is excluded)")
    p.add_argument("--grid-m", default="0.6:0.8:20")
    _add_beta_flags(p)
    _add_spectral_flags(p)
    p.add_argument("--probes", default=None, help="file of probe AS numbers")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cluster", help="bipartite Louvain communities")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action="store_true", help="randomize the visit order")
    p.add_argument("--profile-out", default=None, help="per-cluster country table")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("export", help="graph export for external tools")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=["gexf", "edgelist", "csv"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("timeseries", help="total port capacity across snapshots")
    p.add_argument(
        "--snapshot",
        nargs=2,
        action="append",
        required=True,
        metavar=("PATH", "DATE"),
        help="repeatable snapshot/date pair",
    )
    p.add_argument(
        "--fit", action="store_true", help="piecewise-linear breakpoint fit, to <out>.fit.csv"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_timeseries)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process.

    Parsing leaves no state in it.  A parser holds about a thousand objects
    in reference cycles, which only the cyclic collector frees, so building
    one per call would cost an in-process caller a few ms per command.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    try:
        _check_flags(args)
        inputs = {str(p): _digest(p) for p in _input_paths(args)}
        outputs = args.func(args)
        _write_manifests(["peergraph", *argv], args, inputs, outputs)
    except (PeergraphError, OSError) as exc:
        message = str(exc).strip() or exc.__class__.__name__
        print(f"peergraph: {message.splitlines()[0]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

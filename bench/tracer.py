"""Outside-in tracing of the ``peergraph`` layers.

The tracer replaces public functions with timing wrappers at the module
attributes their callers look up: ``cli`` imported ``load_graph`` by name,
so ``peergraph.cli.load_graph`` is wrapped, and patching
``peergraph.graphio.load_graph`` alone would miss every CLI call.  Spans
(name, start, end, parent, command id) stay in memory; the caller writes
them out once.  Wrappers exist only while a traced pass runs, so the timed
passes execute the program untouched.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from pathlib import Path


def _graph_size(g) -> dict:
    return {"nodes": g.n_nodes, "nnz": int(g.W.nnz)}


def _parse_counts(snapshot) -> dict:
    r = snapshot.report
    dropped = (r.invalid_networks + r.invalid_ixps + r.invalid_memberships
               + r.unresolved_memberships + r.duplicate_networks + r.duplicate_ixps)
    return {"memberships": r.memberships, "dropped": dropped}


def _partition_stats(p) -> dict:
    return {"levels": len(p.history), "communities": p.n_communities,
            "modularity": float(p.modularity)}


def _sweep_points(report) -> dict:
    return {"points": len(report.grid_heavy) * len(report.grid_mostly)}


def _file_bytes(path) -> dict:
    return {"bytes": Path(path).stat().st_size}


# (function, span name, stats of the result).  The span name's prefix is the
# module that defines the function, which is the layer it is charged to.
FUNCTIONS = {
    "parse_snapshot": ("ingest.parse_snapshot", _parse_counts),
    "validate_snapshot": ("ingest.validate_snapshot", lambda r: {"outliers": len(r)}),
    "as_port_capacity": ("ingest.as_port_capacity", None),
    "load_ground_truth": ("ingest.load_ground_truth", None),
    "build_graph": ("graph.build_graph", _graph_size),
    "node_metrics": ("graph.node_metrics", None),
    "load_graph": ("graphio.load_graph", _graph_size),
    "save_graph": ("graphio.save_graph", _file_bytes),
    "export_gexf": ("graphio.export_gexf", None),
    "export_edgelist": ("graphio.export_edgelist", None),
    "export_weight_csv": ("graphio.export_weight_csv", None),
    "write_rank_csv": ("graphio.write_rank_csv", None),
    "write_reduced_csv": ("graphio.write_reduced_csv", None),
    "load_reduced_csv": ("graphio.load_reduced_csv", None),
    "write_change_csv": ("graphio.write_change_csv", None),
    "read_subset_file": ("graphio.read_subset_file", None),
    "google_matrix": ("spectral.google_matrix", None),
    "pagerank": ("spectral.pagerank", lambda r: {"iterations": r.iterations}),
    "rank_table": ("spectral.rank_table", None),
    "rank_positions": ("spectral.rank_positions", None),
    "reduced_google_matrix": ("spectral.reduced_google_matrix", None),
    "censor_diagonal": ("spectral.censor_diagonal", None),
    "relative_change": ("spectral.relative_change", None),
    "classify_countries": ("analysis.classify_countries", None),
    "classification_metrics": ("analysis.classification_metrics", None),
    "top_hypergiants": ("analysis.top_hypergiants", None),
    "traffic_receivers": ("analysis.traffic_receivers", None),
    "eums_coverage": ("analysis.eums_coverage", None),
    "beta_stability_sweep": ("analysis.beta_stability_sweep", _sweep_points),
    "symmetrize": ("clustering.symmetrize", None),
    "louvain_bipartite": ("clustering.louvain_bipartite", _partition_stats),
    "cluster_profiles": ("clustering.cluster_profiles", None),
}

# Every module whose globals a traced function is looked up from.
LOOKUP_MODULES = (
    "peergraph.cli",
    "peergraph.ingest",
    "peergraph.graph",
    "peergraph.graphio",
    "peergraph.spectral",
    "peergraph.analysis",
    "peergraph.clustering",
)

LAYERS = ("cli", "ingest", "graph", "graphio", "spectral", "analysis", "clustering")


class Tracer:
    """Span recorder; ``install`` patches the lookup sites, ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._command: int | None = None

    def install(self) -> None:
        for module_name in LOOKUP_MODULES:
            module = importlib.import_module(module_name)
            for attr, (span_name, stats) in FUNCTIONS.items():
                original = module.__dict__.get(attr)
                if callable(original):
                    self._patches.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, span_name, stats))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _open(self, name: str) -> dict:
        span = {
            "name": name,
            "command": self._command,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span_name: str, stats):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if stats is not None:
                span["stats"] = stats(result)
            return result

        return traced

    @contextmanager
    def command(self, command_id: int, name: str):
        """Root span of one CLI invocation; its descendants share ``command_id``."""
        self._command = command_id
        span = self._open(f"cli.{name}")
        try:
            yield
        finally:
            self._close(span)
            self._command = None


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(span["end"] - span["start"] - covered)
    return result


def _outermost_time(spans: list[dict], names: set[str]) -> float:
    """Total time in spans named ``names``, not counting one nested in another."""
    total = 0.0
    for span in spans:
        if span["name"] not in names:
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent is None:
            total += span["end"] - span["start"]
    return total


def _stat(spans: list[dict], name: str, key: str, combine=sum) -> float:
    values = [s["stats"][key] for s in spans if s["name"] == name and "stats" in s]
    return combine(values) if values else 0


def _calls(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


# Per-layer time metrics: metric name -> span names whose outermost time it sums.
TIME_METRICS = {
    "ingest.parse_s": {"ingest.parse_snapshot"},
    "ingest.validate_s": {"ingest.validate_snapshot", "ingest.as_port_capacity"},
    "graph.build_s": {"graph.build_graph"},
    "graph.node_metrics_s": {"graph.node_metrics"},
    "graphio.load_s": {"graphio.load_graph"},
    "graphio.save_s": {"graphio.save_graph"},
    "graphio.export_s": {"graphio.export_gexf", "graphio.export_edgelist",
                         "graphio.export_weight_csv"},
    "graphio.reduced_io_s": {"graphio.write_reduced_csv", "graphio.load_reduced_csv",
                             "graphio.write_change_csv"},
    "spectral.pagerank_s": {"spectral.pagerank"},
    "spectral.reduce_s": {"spectral.reduced_google_matrix"},
    "spectral.google_s": {"spectral.google_matrix"},
    "spectral.rank_table_s": {"spectral.rank_table", "spectral.rank_positions"},
    "spectral.diff_s": {"spectral.relative_change"},
    "analysis.sweep_s": {"analysis.beta_stability_sweep"},
    "analysis.hypergiants_s": {"analysis.top_hypergiants"},
    "analysis.receivers_s": {"analysis.traffic_receivers"},
    "analysis.classify_s": {"analysis.classify_countries", "analysis.classification_metrics"},
    "clustering.louvain_s": {"clustering.louvain_bipartite"},
    "clustering.profiles_s": {"clustering.cluster_profiles"},
}

CLI_COMMANDS = ("ingest", "build", "rank", "hypergiants", "receivers", "classify",
                "cluster", "export", "reduce", "diff", "sweep")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric of one traced pass; a layer the pass never entered reads 0."""
    metrics: dict[str, float] = {}
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_s"] = _outermost_time(spans, {f"cli.{command}"})
    metrics.update({name: _outermost_time(spans, names) for name, names in TIME_METRICS.items()})

    metrics["ingest.memberships"] = _stat(spans, "ingest.parse_snapshot", "memberships")
    metrics["ingest.dropped"] = _stat(spans, "ingest.parse_snapshot", "dropped")
    metrics["ingest.outliers"] = _stat(spans, "ingest.validate_snapshot", "outliers")
    metrics["graph.build_calls"] = _calls(spans, "graph.build_graph")
    metrics["graph.node_metrics_calls"] = _calls(spans, "graph.node_metrics")
    sized = [s for s in spans if s["name"] in ("graph.build_graph", "graphio.load_graph")]
    metrics["graph.nodes"] = max((s["stats"]["nodes"] for s in sized if "stats" in s), default=0)
    metrics["graph.nnz"] = max((s["stats"]["nnz"] for s in sized if "stats" in s), default=0)
    metrics["graphio.load_calls"] = _calls(spans, "graphio.load_graph")
    metrics["graphio.graph_bytes"] = _stat(spans, "graphio.save_graph", "bytes", max)
    metrics["spectral.pagerank_calls"] = _calls(spans, "spectral.pagerank")
    metrics["spectral.pagerank_iters"] = _stat(spans, "spectral.pagerank", "iterations")
    metrics["spectral.reduce_calls"] = _calls(spans, "spectral.reduced_google_matrix")
    metrics["analysis.sweep_points"] = _stat(spans, "analysis.beta_stability_sweep", "points")
    metrics["clustering.levels"] = _stat(spans, "clustering.louvain_bipartite", "levels")
    metrics["clustering.communities"] = _stat(spans, "clustering.louvain_bipartite", "communities")
    metrics["clustering.modularity"] = _stat(spans, "clustering.louvain_bipartite", "modularity",
                                             max)

    own = self_times(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for span, t in zip(spans, own) if span["name"].split(".", 1)[0] == layer
        )
    return metrics


def top_self_times(spans: list[dict], limit: int = 8) -> list[tuple[str, float]]:
    """Span names with the largest summed self time, largest first."""
    totals: dict[str, float] = {}
    for span, t in zip(spans, self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + t
    return sorted(totals.items(), key=lambda item: -item[1])[:limit]

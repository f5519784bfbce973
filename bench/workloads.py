"""The two workloads: the CLI command sequence of one pass, and its checks.

Every command runs with the pass directory as its working directory and
names inputs as ``../inputs/<file>``, so the manifests of two passes are
byte-identical too.  A check takes the pass directory and raises
``checks.CheckFailed``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

IN = "../inputs/"


@dataclass
class Command:
    name: str
    argv: list[str]
    outputs: list[str]  # primary outputs, relative to the pass directory
    check: Callable[[Path], None] = field(repr=False)


class Workload:
    """Inputs and scale come from the parent's config; ``prepare`` runs untimed."""

    def __init__(self, config: dict, work: Path) -> None:
        self.inputs = config["inputs"]
        self.scale = config["scale"]
        self.work = work

    def prepare(self, cli) -> None:
        pass

    def commands(self, cli) -> list[Command]:
        raise NotImplementedError

    def expected(self, date: str) -> dict:
        return self.inputs["expected"][date]


class Pipeline(Workload):
    """One snapshot through the commands that reproduce the paper's tables,
    ending with the beta sweep over a stated grid, single-threaded."""

    def commands(self, cli) -> list[Command]:
        inp, exp = self.inputs, self.expected("1")
        n_nodes = exp["n_as"] + exp["n_ixp"]
        k = self.scale["hypergiants_k"]
        countries = inp["countries"]

        def receivers(d: Path) -> None:
            rows = checks.read_rows(d / "receivers.csv")
            for country in countries:
                mine = [r for r in rows if r["country"] == country]
                checks.require(len(mine) <= 4, f"receivers: {len(mine)} rows for {country}")
                checks.require([int(r["rank"]) for r in mine] == list(range(1, len(mine) + 1)),
                               f"receivers: ranks for {country} are not contiguous")
                values = [float(r["value"]) for r in mine]
                checks.require(all(a >= b for a, b in zip(values, values[1:])),
                               f"receivers: values increase for {country}")
            checks.require({r["country"] for r in rows} <= set(countries),
                           "receivers: country outside the request")
            checks.line_count(d / "receivers.csv.coverage.csv", len(countries))
            checks.shares(d / "receivers.csv.coverage.csv", "eums_pct", 0.0, 100.0)

        def classify(d: Path) -> None:
            rows = checks.read_rows(d / "classify.csv")
            checks.require(len(rows) == exp["n_as"], "classify: not one row per AS")
            checks.require(len({r["asn"] for r in rows}) == exp["n_as"], "classify: repeated AS")
            for column in ("precision", "recall", "f1"):
                checks.shares(d / "classify.csv.metrics.csv", column)

        def edgelist(d: Path) -> None:
            checks.line_count(d / "edges.csv", exp["n_edges"])
            checks.line_count(d / "edges_as_nodes.csv", exp["n_as"])
            checks.line_count(d / "edges_ixp_nodes.csv", exp["n_ixp"])

        return [
            Command("ingest", ["ingest", "--snapshot", IN + "dump_1.json", "--date", inp["date_1"],
                               "--validate", "--reference-asn", str(inp["reference_asn"]),
                               "--out", "ingest.json"],
                    ["ingest.json"], lambda d: checks.ingest_summary(d / "ingest.json", exp)),
            Command("build", ["build", "--snapshot", IN + "dump_1.json", "--date", inp["date_1"],
                              "--out", "graph.json"],
                    ["graph.json"], lambda d: checks.graph_json(d / "graph.json", exp)),
            Command("rank", ["rank", "--graph", "graph.json", "--direction", "forward",
                             "--out", "rank_forward.csv"],
                    ["rank_forward.csv"],
                    lambda d: checks.rank_csv(d / "rank_forward.csv", n_nodes)),
            Command("rank", ["rank", "--graph", "graph.json", "--direction", "reverse",
                             "--out", "rank_reverse.csv"],
                    ["rank_reverse.csv"],
                    lambda d: checks.rank_csv(d / "rank_reverse.csv", n_nodes)),
            Command("hypergiants", ["hypergiants", "--graph", "graph.json", "--k", str(k),
                                    "--out", "hypergiants.csv"],
                    ["hypergiants.csv"],
                    lambda d: checks.ranked_table(d / "hypergiants.csv", k, "AS")),
            Command("receivers", ["receivers", "--graph", "graph.json",
                                  "--countries", ",".join(countries),
                                  "--apnic", IN + "apnic.csv", "--out", "receivers.csv"],
                    ["receivers.csv", "receivers.csv.coverage.csv"], receivers),
            Command("classify", ["classify", "--graph", "graph.json", "--truth", IN + "asorg.csv",
                                 "--out", "classify.csv"],
                    ["classify.csv", "classify.csv.metrics.csv"], classify),
            Command("cluster", ["cluster", "--graph", "graph.json", "--profile-out",
                                "profiles.csv", "--out", "cluster.csv"],
                    ["cluster.csv", "profiles.csv"],
                    lambda d: checks.cluster(d / "cluster.csv", d / "profiles.csv", n_nodes)),
            Command("export", ["export", "--graph", "graph.json", "--format", "edgelist",
                               "--out", "edges.csv"],
                    ["edges.csv", "edges_as_nodes.csv", "edges_ixp_nodes.csv"], edgelist),
            # Every beta is below 1, so each aggregated edge is a link in both directions.
            Command("export", ["export", "--graph", "graph.json", "--format", "gexf",
                               "--out", "graph.gexf"],
                    ["graph.gexf"],
                    lambda d: checks.gexf(d / "graph.gexf", n_nodes, 2 * exp["n_edges"])),
            self._sweep(cli),
        ]

    def _sweep(self, cli) -> Command:
        inp, exp = self.inputs, self.expected("1")
        # ``--threads 1`` is the flag's default; pass it only while the CLI has it.
        has_threads = any("--threads" in a.option_strings for a in cli.build_parser()._actions)
        argv = ["--threads", "1"] if has_threads else []
        argv += ["sweep", "--snapshot", IN + "dump_1.json", "--date", inp["date_1"],
                 "--grid-h", self.scale["grid_h"], "--grid-m", self.scale["grid_m"],
                 "--out", "sweep.csv"]
        return Command("sweep", argv, ["sweep.csv"],
                       lambda d: checks.sweep(d / "sweep.csv", exp["probes"]))


class ReduceDiff(Workload):
    """Two dated snapshots, reduced onto a mixed AS/IXP subset and diffed."""

    def prepare(self, cli) -> None:
        """Build and rank both dates once, untimed: the subset and the PageRank
        slices that the reduced matrices must fix come from these tables."""
        prep = self.work / "prep"
        prep.mkdir()
        inp = self.inputs
        here = Path.cwd()
        os.chdir(prep)
        try:
            for date in ("1", "2"):
                steps = [["build", "--snapshot", IN + f"dump_{date}.json",
                          "--date", inp[f"date_{date}"], "--out", f"graph_{date}.json"]]
                steps += [["rank", "--graph", f"graph_{date}.json", "--direction", direction,
                           "--out", f"rank_{direction}_{date}.csv"]
                          for direction in ("forward", "reverse")]
                for argv in steps:
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"preparation failed: peergraph {' '.join(argv)}")
        finally:
            os.chdir(here)
        self.pagerank = {
            (direction, date): checks.rank_csv(prep / f"rank_{direction}_{date}.csv")
            for direction in ("forward", "reverse") for date in ("1", "2")
        }
        both = self.pagerank[("forward", "2")]
        top_as = [label for label in self.pagerank[("reverse", "1")]
                  if label.startswith("AS") and label in both][: self.scale["subset_as"]]
        top_ixp = [label for label in self.pagerank[("forward", "1")]
                   if label.startswith("IX") and label in both][: self.scale["subset_ixp"]]
        (self.work / "inputs" / "subset.txt").write_text(
            "\n".join(top_as + top_ixp) + "\n", encoding="utf-8")
        self.graph_digest = {d: checks.sha256(prep / f"graph_{d}.json") for d in ("1", "2")}

    def commands(self, cli) -> list[Command]:
        inp = self.inputs
        cmds = []
        for date in ("1", "2"):
            def built(d: Path, date=date) -> None:
                checks.graph_json(d / f"graph_{date}.json", self.expected(date))
                checks.require(checks.sha256(d / f"graph_{date}.json") == self.graph_digest[date],
                               f"graph_{date}.json differs from the preparation build")
            cmds.append(Command("build", ["build", "--snapshot", IN + f"dump_{date}.json",
                                          "--date", inp[f"date_{date}"],
                                          "--out", f"graph_{date}.json"],
                                [f"graph_{date}.json"], built))
        for censored in (False, True):
            for date in ("1", "2"):
                for direction in (("reverse",) if censored else ("forward", "reverse")):
                    out = f"reduced_{direction}{'_censored' if censored else ''}_{date}.csv"
                    argv = ["reduce", "--graph", f"graph_{date}.json", "--subset",
                            IN + "subset.txt", "--direction", direction, "--out", out]
                    if censored:
                        argv.insert(-2, "--censor-diagonal")
                    pr = self.pagerank[(direction, date)]
                    cmds.append(Command(
                        "reduce", argv, [out],
                        lambda d, out=out, pr=pr, c=censored: checks.stochastic(d / out, pr, c)))
        for stem in ("reduced_forward", "reduced_reverse", "reduced_reverse_censored"):
            out = "diff" + stem.removeprefix("reduced") + ".csv"
            m1, m2 = f"{stem}_1.csv", f"{stem}_2.csv"
            cmds.append(Command("diff", ["diff", "--reduced", m1, m2, "--out", out], [out],
                                lambda d, out=out, m1=m1, m2=m2: checks.diff(d / out, d / m1,
                                                                             d / m2)))
        return cmds


WORKLOADS = {"pipeline": Pipeline, "reduce-diff": ReduceDiff}

"""End-to-end CLI runs on the bundled fixture, checked against golden files.

The golden outputs are produced by scripts/make_golden.py, an independent
dense implementation (linear-solve PageRank, explicit block inversion for
the reduction, a node-at-a-time loop Louvain for the communities).
Labels, ranks, communities and structure must match exactly; float cells
are compared numerically.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from peergraph.cli import build_parser, main

from conftest import DATA_DIR, FIXTURE_SNAPSHOT, GOLDEN_DIR

DATE = "2020-01-01"


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader([line for line in lines if not line.startswith("#")]))
    return meta, rows


def assert_matches_golden(actual, golden, tol=1e-9):
    meta_a, rows_a = read_csv(actual)
    meta_g, rows_g = read_csv(GOLDEN_DIR / golden)
    assert meta_a == meta_g
    assert len(rows_a) == len(rows_g), f"{actual}: row count differs from {golden}"
    for row_a, row_g in zip(rows_a, rows_g):
        assert len(row_a) == len(row_g)
        for cell_a, cell_g in zip(row_a, row_g):
            try:
                value_a, value_g = float(cell_a), float(cell_g)
            except ValueError:
                assert cell_a == cell_g
                continue
            if math.isnan(value_g):
                assert math.isnan(value_a)
            else:
                assert value_a == pytest.approx(value_g, rel=tol, abs=tol)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Build both graphs once; individual tests derive their outputs here."""
    path = tmp_path_factory.mktemp("cli")
    assert main([
        "build", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE,
        "--out", str(path / "graph.json"),
    ]) == 0
    assert main([
        "build", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE,
        "--beta-h", "0.90", "--out", str(path / "graph90.json"),
    ]) == 0
    return path


def test_ingest_reports_counts(tmp_path, capsys):
    out = tmp_path / "summary.json"
    rc = main([
        "ingest", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE,
        "--validate", "--reference-asn", "64500", "--out", str(out),
    ])
    assert rc == 0
    assert "31 networks, 6 ixps, 58 memberships" in capsys.readouterr().out
    summary = json.loads(out.read_text())
    assert summary["networks"] == 31 and summary["outliers"] == []
    assert out.with_name(out.name + ".manifest.json").exists()


def test_build_is_deterministic(workdir, tmp_path):
    out = tmp_path / "again.json"
    assert main([
        "build", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE, "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (workdir / "graph.json").read_bytes()


def test_rank_forward_matches_golden(workdir, tmp_path):
    out = tmp_path / "rank_f.csv"
    assert main([
        "rank", "--graph", str(workdir / "graph.json"), "--direction", "forward",
        "--out", str(out),
    ]) == 0
    assert_matches_golden(out, "rank_forward.csv")


def test_rank_reverse_matches_golden(workdir, tmp_path):
    out = tmp_path / "rank_r.csv"
    assert main([
        "rank", "--graph", str(workdir / "graph.json"), "--direction", "reverse",
        "--out", str(out),
    ]) == 0
    assert_matches_golden(out, "rank_reverse.csv")


def test_rank_runs_are_byte_identical(workdir, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main([
            "rank", "--graph", str(workdir / "graph.json"), "--out", str(out),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def reduced(workdir):
    for graph, name in (("graph.json", "red.csv"), ("graph90.json", "red90.csv")):
        assert main([
            "reduce", "--graph", str(workdir / graph),
            "--subset", str(GOLDEN_DIR / "subset.txt"),
            "--direction", "reverse", "--censor-diagonal",
            "--out", str(workdir / name),
        ]) == 0
    return workdir / "red.csv", workdir / "red90.csv"


def test_reduce_matches_golden(reduced):
    assert_matches_golden(reduced[0], "reduced_reverse.csv")
    assert_matches_golden(reduced[1], "reduced_reverse_beta90.csv")


def test_diff_matches_golden(reduced, tmp_path):
    out = tmp_path / "diff.csv"
    assert main([
        "diff", "--reduced", str(reduced[0]), str(reduced[1]),
        "--cap", "-0.5", "1.0", "--out", str(out),
    ]) == 0
    assert_matches_golden(out, "diff_beta.csv")


def test_diff_rejects_subset_mismatch(workdir, reduced, tmp_path, capsys):
    other_subset = tmp_path / "subset.txt"
    other_subset.write_text("64500\n64501\n")
    small = tmp_path / "small.csv"
    assert main([
        "reduce", "--graph", str(workdir / "graph.json"), "--subset", str(other_subset),
        "--censor-diagonal", "--out", str(small),
    ]) == 0
    rc = main(["diff", "--reduced", str(reduced[0]), str(small), "--out", str(tmp_path / "d.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("peergraph:") and "subset" in err


def test_diff_refuses_a_diff_file(reduced, tmp_path, capsys):
    d = tmp_path / "d.csv"
    assert main(["diff", "--reduced", str(reduced[0]), str(reduced[1]), "--out", str(d)]) == 0
    out = tmp_path / "dd.csv"
    assert main(["diff", "--reduced", str(d), str(d), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"peergraph: {d}: line 1: not a reduced-matrix CSV")
    assert not out.exists()


def test_classify_matches_golden(workdir, tmp_path):
    out = tmp_path / "classify.csv"
    rc = main([
        "classify", "--graph", str(workdir / "graph.json"), "--out", str(out),
        "--truth", str(DATA_DIR / "asorg_fixture.csv"), "--countries", "DE,US",
        "--metrics-out", str(tmp_path / "metrics.csv"),
    ])
    assert rc == 0
    assert_matches_golden(out, "classify.csv")
    # hand-computed: DE has 15 true positives, 1 false positive, 2 false negatives
    _, rows = read_csv(tmp_path / "metrics.csv")
    metrics = {row[0]: row for row in rows[1:]}
    assert float(metrics["DE"][1]) == pytest.approx(15 / 16)
    assert float(metrics["DE"][2]) == pytest.approx(15 / 17)
    assert int(metrics["DE"][4]) == 17
    assert float(metrics["US"][1]) == pytest.approx(9 / 10)
    assert float(metrics["US"][2]) == pytest.approx(9 / 12)
    assert int(metrics["US"][4]) == 12


def test_classify_countries_parse_like_receivers(workdir, tmp_path):
    # Both commands strip and upper-case the comma list.
    tables = []
    for countries in ("DE,US", "de, US"):
        metrics = tmp_path / f"metrics_{len(tables)}.csv"
        assert main([
            "classify", "--graph", str(workdir / "graph.json"),
            "--truth", str(DATA_DIR / "asorg_fixture.csv"), "--countries", countries,
            "--metrics-out", str(metrics), "--out", str(tmp_path / "classify.csv"),
        ]) == 0
        tables.append(metrics.read_bytes())
    assert [row[0] for row in read_csv(metrics)[1][1:]] == ["DE", "US"]
    assert tables[0] == tables[1]


def test_hypergiants_matches_golden(workdir, tmp_path):
    out = tmp_path / "giants.csv"
    assert main([
        "hypergiants", "--graph", str(workdir / "graph.json"), "--k", "5",
        "--out", str(out),
    ]) == 0
    assert_matches_golden(out, "hypergiants.csv")


def test_receivers_matches_golden(workdir, tmp_path):
    out = tmp_path / "receivers.csv"
    rc = main([
        "receivers", "--graph", str(workdir / "graph.json"),
        "--countries", "DE,US", "--types", "ISP,ND", "--hypergiants-k", "5",
        "--apnic", str(DATA_DIR / "apnic_fixture.csv"),
        "--coverage-out", str(tmp_path / "coverage.csv"),
        "--out", str(out),
    ])
    assert rc == 0
    assert_matches_golden(out, "receivers.csv")
    _, rows = read_csv(tmp_path / "coverage.csv")
    coverage = {row[0]: float(row[1]) for row in rows[1:]}
    # every receiver either has a market-share entry or contributes zero
    _, receiver_rows = read_csv(out)
    apnic = {}
    for line in (DATA_DIR / "apnic_fixture.csv").read_text().splitlines():
        if line and not line.startswith("#"):
            asn, country, share, _ = line.split(",")
            apnic[(int(asn), country)] = float(share)
    for country in ("DE", "US"):
        expected = sum(
            apnic.get((int(row[2].removeprefix("AS")), country), 0.0)
            for row in receiver_rows[1:]
            if row[0] == country
        )
        assert coverage[country] == pytest.approx(expected)


def test_sweep_matches_golden(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE,
        "--grid-h", "0.90:0.95:2", "--grid-m", "0.6:0.8:2", "--out", str(out),
    ])
    assert rc == 0
    assert_matches_golden(out, "sweep.csv")


def test_cluster_matches_golden(workdir, tmp_path):
    out, profiles = tmp_path / "cluster.csv", tmp_path / "profiles.csv"
    assert main([
        "cluster", "--graph", str(workdir / "graph.json"), "--profile-out", str(profiles),
        "--out", str(out),
    ]) == 0
    assert_matches_golden(out, "cluster.csv")
    assert_matches_golden(profiles, "cluster_profiles.csv")


def test_cluster_deterministic_and_consistent(workdir, tmp_path):
    outs = []
    for name in ("p1.csv", "p2.csv"):
        out = tmp_path / name
        assert main([
            "cluster", "--graph", str(workdir / "graph.json"),
            "--out", str(out), "--profile-out", str(tmp_path / ("prof_" + name)),
        ]) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()

    _, rows = read_csv(outs[0])
    assert len(rows) == 1 + 35  # header + 30 ASes + 5 IXPs
    communities = {row[0]: int(row[3]) for row in rows[1:]}
    assert set(communities.values()) == set(range(max(communities.values()) + 1))

    _, prof_rows = read_csv(tmp_path / "prof_p1.csv")
    assert sum(float(r[1]) for r in prof_rows[1:]) == pytest.approx(100.0, abs=1e-9)
    assert sum(float(r[2]) for r in prof_rows[1:]) == pytest.approx(100.0, abs=1e-9)


def test_export_formats(workdir, tmp_path):
    for fmt, name in (("gexf", "g.gexf"), ("edgelist", "e.csv"), ("csv", "w.csv")):
        assert main([
            "export", "--graph", str(workdir / "graph.json"), "--format", fmt,
            "--out", str(tmp_path / name),
        ]) == 0
    assert (tmp_path / "e_as_nodes.csv").exists()
    assert (tmp_path / "g.gexf").read_text().startswith("<?xml")


def test_timeseries_matches_golden(tmp_path):
    out = tmp_path / "series.csv"
    assert main([
        "timeseries", "--snapshot", str(FIXTURE_SNAPSHOT), DATE, "--out", str(out),
    ]) == 0
    assert_matches_golden(out, "timeseries.csv")


def test_timeseries_fit(tmp_path, capsys):
    out = tmp_path / "series.csv"
    args = ["timeseries"]
    for day in ("01", "02", "03", "04"):
        args += ["--snapshot", str(FIXTURE_SNAPSHOT), f"2020-01-{day}"]
    assert main(args + ["--fit", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "breakpoint" in printed  # constant series: slopes are zero
    assert "0 / 0 Gbit/day" in printed
    # The fit goes to a table named from --out; the first of tied breakpoints wins.
    fit = tmp_path / "series.csv.fit.csv"
    assert fit.read_text().splitlines() == [
        "breakpoint,slope_before_mbit_per_day,slope_after_mbit_per_day,sse",
        "2020-01-02,0.0,0.0,0.0",
    ]
    manifest = json.loads((tmp_path / "series.csv.fit.csv.manifest.json").read_text())
    assert sorted(manifest["outputs"]) == [str(out), str(fit)]


def test_manifest_digests_cover_inputs_and_outputs(workdir):
    manifest = json.loads((workdir / "graph.json.manifest.json").read_text())
    assert manifest["tool_version"]
    assert str(FIXTURE_SNAPSHOT) in manifest["inputs"]
    assert str(workdir / "graph.json") in manifest["outputs"]
    digest = hashlib.sha256((workdir / "graph.json").read_bytes()).hexdigest()
    assert manifest["outputs"][str(workdir / "graph.json")] == digest


def test_missing_input_is_single_line_error(tmp_path, capsys):
    rc = main(["rank", "--graph", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("peergraph:") and err.count("\n") == 1


def test_manifest_digests_an_input_as_it_was_before_the_run(workdir, tmp_path):
    # An output written over its own input: the manifest records the graph the
    # command read, not the rank table that replaced it.
    graph = tmp_path / "g.json"
    graph.write_bytes((workdir / "graph.json").read_bytes())
    before = hashlib.sha256(graph.read_bytes()).hexdigest()
    assert main(["rank", "--graph", str(graph), "--out", str(graph)]) == 0
    manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
    after = hashlib.sha256(graph.read_bytes()).hexdigest()
    assert before != after
    assert manifest["inputs"] == {str(graph): before}
    assert manifest["outputs"] == {str(graph): after}


# A comma list with no item: the flag and the command's other arguments.
EMPTY_LISTS = {
    "receivers --countries": ("--countries", ["receivers", "--countries", ","]),
    "classify --countries": ("--countries", [
        "classify", "--truth", str(DATA_DIR / "asorg_fixture.csv"), "--countries", ",",
    ]),
    "receivers --types": ("--types", ["receivers", "--countries", "DE", "--types", ","]),
}


@pytest.mark.parametrize("case", list(EMPTY_LISTS))
def test_an_empty_list_flag_is_refused(workdir, tmp_path, capsys, case):
    flag, argv = EMPTY_LISTS[case]
    out = tmp_path / "out" / "table.csv"
    rc = main([*argv, "--graph", str(workdir / "graph.json"), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"peergraph: {flag} ','")
    assert not out.parent.exists()


def test_output_dir_env_override(workdir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PEERGRAPH_OUTPUT_DIR", str(tmp_path))
    assert main([
        "rank", "--graph", str(workdir / "graph.json"), "--out", "relative.csv",
    ]) == 0
    assert (tmp_path / "relative.csv").exists()

    # A relative directory prefixes the default names of secondary outputs once.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PEERGRAPH_OUTPUT_DIR", "outdir")
    graph = str(workdir / "graph.json")
    assert main([
        "classify", "--graph", graph, "--truth", str(DATA_DIR / "asorg_fixture.csv"),
        "--out", "c.csv",
    ]) == 0
    assert main([
        "receivers", "--graph", graph, "--countries", "DE",
        "--apnic", str(DATA_DIR / "apnic_fixture.csv"), "--out", "r.csv",
    ]) == 0
    series = [
        arg for day in ("01", "02", "03", "04")
        for arg in ("--snapshot", str(FIXTURE_SNAPSHOT), f"2020-01-{day}")
    ]
    assert main(["timeseries", *series, "--fit", "--out", "t.csv"]) == 0
    assert main(["cluster", "--graph", graph, "--profile-out", "p.csv", "--out", "k.csv"]) == 0
    assert main(["export", "--graph", graph, "--format", "edgelist", "--out", "e.csv"]) == 0
    written = sorted(p.name for p in (tmp_path / "outdir").iterdir())
    assert written == sorted(
        name + suffix
        for name in (
            "c.csv", "c.csv.metrics.csv", "r.csv", "r.csv.coverage.csv", "t.csv",
            "t.csv.fit.csv", "k.csv", "p.csv", "e.csv", "e_as_nodes.csv", "e_ixp_nodes.csv",
        )
        for suffix in ("", ".manifest.json")
    )
    manifest = json.loads((tmp_path / "outdir" / "c.csv.manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["outdir/c.csv", "outdir/c.csv.metrics.csv"]
    manifest = json.loads((tmp_path / "outdir" / "e_as_nodes.csv.manifest.json").read_text())
    assert sorted(manifest["outputs"]) == [
        "outdir/e.csv", "outdir/e_as_nodes.csv", "outdir/e_ixp_nodes.csv",
    ]


# Flags (by argparse dest) that name output files; a manifest records every
# other flag as a parameter.
OUTPUT_FLAGS = {"out", "metrics_out", "coverage_out", "profile_out"}


def _contract_cases(graph, reduced, tmp):
    """Case name -> (argv without --out, the input files that argv names)."""
    snapshot, subset = str(FIXTURE_SNAPSHOT), str(GOLDEN_DIR / "subset.txt")
    truth, apnic = str(DATA_DIR / "asorg_fixture.csv"), str(DATA_DIR / "apnic_fixture.csv")
    exclude, later = tmp / "exclude.txt", tmp / "later.json"
    exclude.write_text("AS64501\n")
    later.write_bytes(FIXTURE_SNAPSHOT.read_bytes())
    cases = {
        "ingest": (["ingest", "--snapshot", snapshot, "--date", DATE, "--validate",
                    "--reference-asn", "64500"], [snapshot]),
        "build": (["build", "--snapshot", snapshot, "--date", DATE], [snapshot]),
        "rank": (["rank", "--graph", graph, "--only", "AS"], [graph]),
        "reduce": (["reduce", "--graph", graph, "--subset", subset], [graph, subset]),
        "diff": (["diff", "--reduced", *reduced], reduced),
        "classify": (["classify", "--graph", graph, "--truth", truth, "--countries", "DE,US",
                      "--metrics-out", str(tmp / "metrics.csv")], [graph, truth]),
        "hypergiants": (["hypergiants", "--graph", graph, "--k", "5"], [graph]),
        "receivers": (["receivers", "--graph", graph, "--countries", "DE,US",
                       "--hypergiants-k", "5", "--exclude", str(exclude), "--apnic", apnic,
                       "--coverage-out", str(tmp / "coverage.csv")], [graph, str(exclude), apnic]),
        "sweep": (["sweep", "--snapshot", snapshot, "--date", DATE, "--grid-h", "0.9",
                   "--grid-m", "0.7", "--probes", subset], [snapshot, subset]),
        "cluster": (["cluster", "--graph", graph, "--profile-out", str(tmp / "profiles.csv")],
                    [graph]),
        "timeseries": (["timeseries", "--snapshot", snapshot, DATE,
                        "--snapshot", str(later), "2020-02-01"], [snapshot, str(later)]),
    }
    dated = []  # --snapshot PATH DATE over four dated copies of the fixture
    for month in ("03", "04", "05", "06"):
        path = tmp / f"dump_{month}.json"
        path.write_bytes(FIXTURE_SNAPSHOT.read_bytes())
        dated += ["--snapshot", str(path), f"2020-{month}-01"]
    cases["timeseries fit"] = (["timeseries", "--fit", *dated], dated[1::3])
    for fmt in ("gexf", "edgelist", "csv"):
        cases[f"export {fmt}"] = (["export", "--graph", graph, "--format", fmt], [graph])
    return cases


def _parser_dests(command):
    """The argparse dests of ``command``'s flags, read from the CLI's own parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.dest for a in sub.choices[command]._actions if not isinstance(a, argparse._HelpAction)
    }


CONTRACT_CASES = [
    "build", "classify", "cluster", "diff", "export csv", "export edgelist", "export gexf",
    "hypergiants", "ingest", "rank", "receivers", "reduce", "sweep", "timeseries",
    "timeseries fit",
]


@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_manifest_records_every_flag_and_digests_every_file(workdir, reduced, tmp_path, case):
    cases = _contract_cases(str(workdir / "graph.json"), [str(p) for p in reduced], tmp_path)
    argv, inputs = cases[case]
    argv = argv + ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    manifests = sorted(tmp_path.glob("*.manifest.json"))
    assert manifests
    for path in manifests:
        manifest = json.loads(path.read_text())
        assert manifest["command"] == ["peergraph", *argv]
        assert set(manifest["parameters"]) == _parser_dests(argv[0]) - OUTPUT_FLAGS
        assert sorted(manifest["inputs"]) == sorted(inputs)
        assert str(path).removesuffix(".manifest.json") in manifest["outputs"]
        for file, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert hashlib.sha256(Path(file).read_bytes()).hexdigest() == digest, file


def test_main_builds_its_parser_once(workdir, reduced, tmp_path, monkeypatch):
    import peergraph.cli as cli

    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    cases = _contract_cases(str(workdir / "graph.json"), [str(p) for p in reduced], tmp_path)
    # The repeated --snapshot of "timeseries fit" appends to a list: a parser
    # that kept it from one call would grow it in the next.
    texts = []
    calls = (("timeseries fit", "t.csv"), ("receivers", "r.csv"), ("timeseries fit", "t.csv"))
    for case, out in calls:
        assert main(cases[case][0] + ["--out", str(tmp_path / out)]) == 0
        texts.append((tmp_path / (out + ".manifest.json")).read_text())
    assert built == [1]
    assert texts[0] == texts[2]


# Runs in a fresh interpreter in which ``import networkx`` fails.
WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None
import peergraph.cli
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "networkx" and mod]
assert not loaded, loaded
snapshot, out = sys.argv[1:]
assert peergraph.cli.main([
    "build", "--snapshot", snapshot, "--date", "2020-01-01", "--out", out + "/graph.json",
]) == 0
assert peergraph.cli.main([
    "export", "--graph", out + "/graph.json", "--format", "gexf", "--out", out + "/graph.gexf",
]) == 0
"""


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this package."""
    import peergraph

    path = [str(Path(peergraph.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


def test_build_and_gexf_export_run_without_networkx(fixture_graph, tmp_path):
    from peergraph.graphio import export_gexf

    result = run_python(WITHOUT_NETWORKX, str(FIXTURE_SNAPSHOT), str(tmp_path))
    assert result.returncode == 0, result.stderr
    expected = export_gexf(fixture_graph, tmp_path / "in_process.gexf")
    assert (tmp_path / "graph.gexf").read_bytes() == expected.read_bytes()


SCIPY_PROBE = """
import json, sys
from peergraph.cli import main

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print("probe", json.dumps(["import", 0, scipy_loaded()]))
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    print("probe", json.dumps([argv[0], rc, scipy_loaded()]))
"""


def test_commands_that_build_no_sparse_matrix_never_import_scipy(workdir, reduced, tmp_path):
    # scipy.sparse is imported where a sparse matrix is built, so the package
    # import and these nine commands start without paying for it.
    graph = str(workdir / "graph.json")
    out = str(tmp_path)
    commands = [
        ["ingest", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE, "--validate",
         "--reference-asn", "64500", "--out", f"{out}/ingest.json"],
        ["build", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE, "--out", f"{out}/g.json"],
        ["classify", "--graph", graph, "--truth", str(DATA_DIR / "asorg_fixture.csv"),
         "--out", f"{out}/classify.csv"],
        ["export", "--graph", graph, "--format", "edgelist", "--out", f"{out}/edges.csv"],
        ["export", "--graph", graph, "--format", "gexf", "--out", f"{out}/graph.gexf"],
        ["export", "--graph", graph, "--format", "csv", "--out", f"{out}/weights.csv"],
        ["diff", "--reduced", str(reduced[0]), str(reduced[1]), "--out", f"{out}/diff.csv"],
        ["timeseries", "--snapshot", str(FIXTURE_SNAPSHOT), DATE, "--out", f"{out}/ts.csv"],
        ["cluster", "--graph", graph, "--profile-out", f"{out}/profiles.csv",
         "--out", f"{out}/cluster.csv"],
        # rank builds the Google operator: the probe must see scipy arrive.
        ["rank", "--graph", graph, "--out", f"{out}/rank.csv"],
    ]
    result = run_python(SCIPY_PROBE, json.dumps(commands))
    assert result.returncode == 0, result.stderr
    steps = [
        json.loads(line.removeprefix("probe "))
        for line in result.stdout.splitlines()
        if line.startswith("probe ")
    ]
    assert [name for name, _, _ in steps] == ["import"] + [argv[0] for argv in commands]
    assert all(rc == 0 for _, rc, _ in steps), steps
    assert [loaded for _, _, loaded in steps[:-1]] == [[]] * (len(steps) - 1)
    assert "scipy.sparse" in steps[-1][2]


def test_lone_surrogate_name_is_an_invalid_network(tmp_path):
    dump = json.loads(FIXTURE_SNAPSHOT.read_text())
    dump["net"]["data"][1]["name"] = "\ud800bad"
    snapshot = tmp_path / "dump.json"
    snapshot.write_text(json.dumps(dump))

    invalid = []
    for source in (FIXTURE_SNAPSHOT, snapshot):
        summary = tmp_path / f"{source.stem}.summary.json"
        assert main([
            "ingest", "--snapshot", str(source), "--date", DATE, "--out", str(summary),
        ]) == 0
        invalid.append(json.loads(summary.read_text())["report"]["invalid_networks"])
    assert invalid[1] == invalid[0] + 1

    graph = str(tmp_path / "graph.json")
    assert main(["build", "--snapshot", str(snapshot), "--date", DATE, "--out", graph]) == 0
    assert main(["classify", "--graph", graph, "--out", str(tmp_path / "c.csv")]) == 0
    assert main([
        "export", "--graph", graph, "--format", "edgelist", "--out", str(tmp_path / "e.csv"),
    ]) == 0
    for name in ("e.csv", "e_as_nodes.csv", "e_ixp_nodes.csv"):
        assert (tmp_path / (name + ".manifest.json")).exists()

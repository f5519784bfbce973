"""Probe, exclusion, subset, ground-truth and reduced-matrix files: a bad line is reported
with its file and number.

A bad flag value is reported with the flag and the value.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from peergraph import cli
from peergraph.cli import main
from peergraph.graph import build_graph
from peergraph.graphio import SUBSET_CAP, save_graph
from peergraph.ingest import TrafficClass

from conftest import FIXTURE_SNAPSHOT, GOLDEN_DIR, make_snapshot

DATE = "2020-01-01"


def _graph(tmp_path) -> str:
    graph = str(tmp_path / "graph.json")
    assert main(["build", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE,
                 "--out", graph]) == 0
    return graph


def _argv(tmp_path, command: str, path, out: str) -> list[str]:
    """``command`` on the fixture, reading ``path`` as the file that command takes."""
    if command == "sweep":
        return ["sweep", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE,
                "--grid-h", "0.9", "--grid-m", "0.7", "--probes", str(path), "--out", out]
    graph = _graph(tmp_path)
    if command == "reduce":
        return ["reduce", "--graph", graph, "--subset", str(path), "--out", out]
    if command == "classify":
        return ["classify", "--graph", graph, "--truth", str(path), "--out", out]
    flag = "--exclude" if command == "receivers" else "--apnic"
    return ["receivers", "--graph", graph, "--countries", "DE", flag, str(path), "--out", out]


@pytest.mark.parametrize("command", ["sweep", "receivers"])
def test_bad_asn_line_names_file_and_line(tmp_path, capsys, command):
    asns = tmp_path / "asns.txt"
    asns.write_text("# comment\nAS64500\nfoo  # not a number\n")
    assert main(_argv(tmp_path, command, asns, str(tmp_path / "out.csv"))) == 1
    err = capsys.readouterr().err
    assert err == f"peergraph: {asns}: line 3: 'foo' is not an AS number\n"


def test_unknown_subset_entry_names_file_and_line(tmp_path, capsys):
    subset = tmp_path / "subset.txt"
    subset.write_text("# giants\nAS64500\nfoo\nIX4\n")
    assert main(_argv(tmp_path, "reduce", subset, str(tmp_path / "out.csv"))) == 1
    err = capsys.readouterr().err
    assert err == f"peergraph: {subset}: line 3: 'foo' is not a node of the graph\n"


# Each case writes a subset, probe or exclusion file whose entries are
# numbers, but not ones the command can use; the message names the file and,
# where an entry is at fault, its line.
ENTRY_DEFECTS = {
    "repeated subset entry": (
        "reduce", "AS64500\n# again, by number\n64500\n", "line 3: '64500' repeats node AS64500"
    ),
    "empty subset": ("reduce", "# nothing\n\n", "the subset lists no node"),
    "absent probe": ("sweep", "64500\nAS99999\n", "line 2: AS99999 is not a node of the graph"),
    "repeated probe": ("sweep", "64500\nAS64500\n", "line 2: AS64500 repeats line 1"),
    "empty probe file": ("sweep", "# no probes\n", "the file lists no AS"),
    "repeated exclusion": (
        "receivers", "as64501\n# again, by number\n64501\n", "line 3: AS64501 repeats line 1"
    ),
    "empty exclusion file": ("receivers", "\n", "the file lists no AS"),
}


@pytest.mark.parametrize("defect", sorted(ENTRY_DEFECTS))
def test_unusable_entry_names_file_and_line(tmp_path, capsys, defect):
    command, text, fragment = ENTRY_DEFECTS[defect]
    path = tmp_path / "entries.txt"
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert main(_argv(tmp_path, command, path, str(out))) == 1
    assert capsys.readouterr().err == f"peergraph: {path}: {fragment}\n"
    assert not out.exists()



def test_subset_over_the_cap_is_refused_at_its_first_extra_entry(tmp_path, capsys):
    """The cap is checked before an entry is looked up, so no dense block is built."""
    asns = range(1, SUBSET_CAP + 2)
    snapshot = make_snapshot([(a, TrafficClass.BALANCED) for a in asns], [(1, "DE")],
                             [(a, 1, 100.0) for a in asns])
    graph = str(save_graph(build_graph(snapshot), tmp_path / "graph.json"))
    subset = tmp_path / "subset.txt"
    # The extra entry is not even a node, and a bad line follows it.
    subset.write_text("# the cap\n" + "".join(f"AS{a}\n" for a in asns[:-1]) + "AS0\nfoo\n")
    out = tmp_path / "out.csv"
    assert main(["reduce", "--graph", graph, "--subset", str(subset), "--out", str(out)]) == 1
    line = SUBSET_CAP + 2
    assert capsys.readouterr().err == (
        f"peergraph: {subset}: line {line}: entry 1001 is over the cap of 1000 nodes\n"
    )
    assert not out.exists()

    subset.write_text("".join(f"AS{a}\n" for a in asns[:-1]))  # exactly the cap
    assert main(["reduce", "--graph", graph, "--subset", str(subset), "--out", str(out)]) == 0


SWEEP = ["sweep", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE]
BUILD = ["build", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE]
INGEST = ["ingest", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE,
          "--validate", "--reference-asn", "64500"]
TIMESERIES = ["timeseries", "--fit"]
# A path that does not exist: a flag whose range needs no input is checked
# before any input is read, so these cases never reach the file.
ABSENT = "absent.json"
# Replaced by a graph built from the fixture.
GRAPH = "<graph>"

# Each case gives one flag a value that does not parse or is out of range;
# the message must name the flag and the value.
FLAG_DEFECTS = {
    "grid-h with a word": (
        SWEEP + ["--grid-h", "0.9:a:2"],
        "--grid-h '0.9:a:2' is not start:stop:count or a number",
    ),
    "grid-m with two fields": (
        SWEEP + ["--grid-m", "0.6:0.8"],
        "--grid-m '0.6:0.8' is not start:stop:count or a number",
    ),
    "grid-m with count 0": (
        SWEEP + ["--grid-m", "0.6:0.8:0"],
        "--grid-m '0.6:0.8:0' is not start:stop:count or a number (count 0 is below 1)",
    ),
    "date with month 13": (
        ["build", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", "2020-13-01"],
        "--date '2020-13-01' is not a YYYY-MM-DD date (month must be in 1..12)",
    ),
    "timeseries date": (
        ["timeseries", "--snapshot", str(FIXTURE_SNAPSHOT), "1 Jan 2020"],
        "--snapshot DATE '1 Jan 2020' is not a YYYY-MM-DD date",
    ),
    "grid-h nan": (
        SWEEP + ["--grid-h", "nan"], "--grid-h 'nan' holds a value that is not in [0, 1]"
    ),
    "grid-m above 1": (
        SWEEP + ["--grid-m", "0.6:1.5:3"],
        "--grid-m '0.6:1.5:3' holds a value that is not in [0, 1]",
    ),
    "grid-h without a point": (
        SWEEP + ["--grid-h", "1.0"],
        "--grid-h '1.0' leaves no grid point (beta_heavy = 1 is excluded)",
    ),
    "alpha 1": (["rank", "--graph", ABSENT, "--alpha", "1"], "--alpha 1.0 must be in [0, 1)"),
    "tol 0": (["rank", "--graph", ABSENT, "--tol", "0"], "--tol 0.0 must be finite and positive"),
    "tol nan": (
        ["hypergiants", "--graph", ABSENT, "--tol", "nan"], "--tol nan must be finite and positive"
    ),
    "reduce tol nan": (
        ["reduce", "--graph", ABSENT, "--subset", ABSENT, "--tol", "nan"],
        "--tol nan must be finite and positive",
    ),
    "sweep tol inf": (SWEEP + ["--tol", "inf"], "--tol inf must be finite and positive"),
    "tol below the floor": (
        ["rank", "--graph", ABSENT, "--tol", "1e-300"], "--tol 1e-300 must be at least 1e-14"
    ),
    "grid-m above the cap": (
        SWEEP + ["--grid-m", "0.6:0.8:101"],
        "--grid-m '0.6:0.8:101' asks for 101 points; the cap is 100 per axis",
    ),
    "beta-h above 1": (BUILD + ["--beta-h", "1.5"], "--beta-h 1.5 must be in [0, 1]"),
    "beta-m above 1": (BUILD + ["--beta-m", "1.5"], "--beta-m 1.5 must be in [0, 1]"),
    "beta-b nan": (SWEEP + ["--beta-b", "nan"], "--beta-b nan must be in [0, 1]"),
    "k 0": (["hypergiants", "--graph", ABSENT, "--k", "0"], "--k 0 must be at least 1"),
    "k above the AS count": (
        ["hypergiants", "--graph", GRAPH, "--k", "9999"],
        "--k 9999 exceeds the number of ASes in the graph",
    ),
    "hypergiants-k 0": (
        ["receivers", "--graph", ABSENT, "--countries", "DE", "--hypergiants-k", "0"],
        "--hypergiants-k 0 must be at least 1",
    ),
    "hypergiants-k above the AS count": (
        ["receivers", "--graph", GRAPH, "--countries", "DE", "--hypergiants-k", "9999"],
        "--hypergiants-k 9999 exceeds the number of ASes in the graph",
    ),
    "outlier-factor 0": (
        INGEST + ["--outlier-factor", "0"], "--outlier-factor 0.0 must be finite and positive"
    ),
    "outlier-factor nan": (
        INGEST + ["--outlier-factor", "nan"], "--outlier-factor nan must be finite and positive"
    ),
    "cap with nan": (
        ["diff", "--reduced", ABSENT, ABSENT, "--cap", "nan", "1"],
        "--cap nan 1.0 must be numbers with LO <= HI",
    ),
    "cap inverted": (
        ["diff", "--reduced", ABSENT, ABSENT, "--cap", "5", "-5"],
        "--cap 5.0 -5.0 must be numbers with LO <= HI",
    ),
    "validate without a reference AS": (
        ["ingest", "--snapshot", ABSENT, "--date", DATE, "--validate"],
        "--validate requires --reference-asn",
    ),
    "fit over 3 snapshots": (
        TIMESERIES + [a for date in ("2020-01-01", "2020-02-01", "2020-03-01")
                      for a in ("--snapshot", str(FIXTURE_SNAPSHOT), date)],
        "--fit needs at least 4 snapshots, got 3",
    ),
    "fit over a repeated date": (
        TIMESERIES + [a for date in ("2020-01-01", "2020-02-01", "2020-02-01", "2020-03-01")
                      for a in ("--snapshot", str(FIXTURE_SNAPSHOT), date)],
        "--snapshot DATE 2020-02-01 is given twice; --fit needs distinct dates",
    ),
}


@pytest.mark.parametrize("defect", sorted(FLAG_DEFECTS))
def test_bad_flag_value_names_flag_and_value(tmp_path, capsys, defect):
    argv, fragment = FLAG_DEFECTS[defect]
    if GRAPH in argv:
        graph = _graph(tmp_path)
        argv = [graph if arg == GRAPH else arg for arg in argv]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"peergraph: {fragment}")
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["sweep", "receivers", "reduce", "classify", "receivers --apnic"]
)
def test_non_utf8_line_names_file_and_line(tmp_path, capsys, command):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"64500,DE,1.0,1\n\xff\xfe\n")
    out = tmp_path / "out.csv"
    assert main(_argv(tmp_path, command, path, str(out))) == 1
    err = capsys.readouterr().err
    assert err == f"peergraph: {path}: line 2: not UTF-8 (invalid start byte)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "receivers --apnic"])
def test_unreadable_truth_file_leaves_no_output(tmp_path, command):
    out = tmp_path / "out" / "table.csv"
    assert main(_argv(tmp_path, command, tmp_path / "missing.csv", str(out))) == 1
    assert not out.parent.exists()


# A field over the csv module's size limit (131,072 characters by default).
OVERSIZED = "D" * 200_000


@pytest.mark.parametrize("command", ["classify", "diff"])
def test_oversized_field_names_file_and_line(tmp_path, capsys, command):
    path = tmp_path / "table.csv"
    out = tmp_path / "out.csv"
    if command == "classify":
        path.write_text(f"# asn,country\n64500,{OVERSIZED}\n")
        argv = _argv(tmp_path, command, path, str(out))
    else:
        meta = "# peergraph=reduced direction=reverse censored=0 alpha=0.85 date=-"
        path.write_text(f"{meta}\nnode,AS1,{OVERSIZED}\n")
        argv = ["diff", "--reduced", str(path), str(path), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"peergraph: {path}: line 2: field larger than field limit (131072)\n"
    assert not out.exists()


def test_diff_refuses_matrices_reduced_at_different_alphas(tmp_path, capsys):
    graph = _graph(tmp_path)
    subset = tmp_path / "subset.txt"
    subset.write_text("64500\n64501\nIX1\n")
    reduced = []
    for alpha in ("0.5", "0.85"):
        reduced.append(str(tmp_path / f"reduced_{alpha}.csv"))
        assert main(["reduce", "--graph", graph, "--subset", str(subset),
                     "--alpha", alpha, "--out", reduced[-1]]) == 0
    out = tmp_path / "diff.csv"
    assert main(["diff", "--reduced", *reduced, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "peergraph: reduced matrices have different alphas (0.5 and 0.85)\n"
    assert not out.exists()


def _edited_graph(tmp_path, edit) -> Path:
    path = Path(_graph(tmp_path))
    payload = json.loads(path.read_text())
    for edge in payload["edges"]:
        edit(edge)
    path.write_text(json.dumps(payload))
    return path


def _overflow(edge: list) -> None:
    """AS64500's edges to IX1 and IX2 at 1e308: each is finite, their sum is not."""
    if edge[0] == 64500 and edge[1] in (1, 2):
        edge[2] = 1e308


OVERFLOW = "port capacity sums past the float range at AS64500"


@pytest.mark.parametrize("command", ["rank", "reduce", "cluster"])
def test_graph_whose_capacity_overflows_is_refused(tmp_path, capsys, command):
    graph = _edited_graph(tmp_path, _overflow)
    out = tmp_path / "out.csv"
    argv = [command, "--graph", str(graph), "--out", str(out)]
    if command == "reduce":
        argv += ["--subset", str(GOLDEN_DIR / "subset.txt")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"peergraph: {graph}: {OVERFLOW}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "timeseries", "ingest", "sweep"])
def test_dump_whose_capacity_overflows_is_refused(tmp_path, capsys, command):
    payload = json.loads(FIXTURE_SNAPSHOT.read_text())
    for membership in payload["netixlan"]["data"]:
        if membership["asn"] == 64500 and membership["ix_id"] in (1, 2):
            membership["speed"] = 1e308
    dump = tmp_path / "dump.json"
    dump.write_text(json.dumps(payload))
    out = tmp_path / "out"
    argv = {
        "build": ["build", "--snapshot", str(dump), "--date", DATE],
        "timeseries": ["timeseries", "--snapshot", str(dump), DATE],
        "ingest": ["ingest", "--snapshot", str(dump), "--date", DATE],
        "sweep": ["sweep", "--snapshot", str(dump), "--date", DATE, "--grid-h", "0.9",
                  "--grid-m", "0.7"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"peergraph: {dump}: {OVERFLOW}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "sweep", "ingest"])
def test_dump_without_networks_is_refused_naming_the_file(tmp_path, capsys, command):
    payload = json.loads(FIXTURE_SNAPSHOT.read_text())
    payload["net"] = []
    dump = tmp_path / "dump.json"
    dump.write_text(json.dumps(payload))
    out = tmp_path / "out"
    argv = {
        "build": ["build", "--snapshot", str(dump), "--date", DATE],
        "sweep": ["sweep", "--snapshot", str(dump), "--date", DATE, "--grid-h", "0.9",
                  "--grid-m", "0.7"],
        "ingest": ["ingest", "--snapshot", str(dump), "--date", DATE, "--validate",
                   "--reference-asn", "64500"],
    }[command]
    message = (
        "reference AS 64500 has no capacity in this snapshot" if command == "ingest"
        else "snapshot has no positive-capacity membership"
    )
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"peergraph: {dump}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("size, shown", [
    (float("nan"), "nan"), (float("inf"), "inf"), (0.0, "0.0"), (-5.0, "-5.0"),
])
def test_bad_port_size_is_shown_as_a_plain_number(tmp_path, capsys, size, shown):
    def edit(edge: list) -> None:
        if edge[:2] == [64500, 1]:
            edge[2] = size

    graph = _edited_graph(tmp_path, edit)
    assert main(["rank", "--graph", str(graph), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == (
        f"peergraph: {graph}: edge AS64500-IX1 has port size {shown}; "
        "port sizes must be finite and positive\n"
    )


def test_programming_error_propagates(tmp_path, monkeypatch):
    # Only typed errors and OS errors become one-line messages; any other
    # exception is a defect and keeps its traceback.
    graph = _graph(tmp_path)

    def broken(*args, **kwargs):
        raise ValueError("defect")

    monkeypatch.setattr(cli, "classify_countries", broken)
    with pytest.raises(ValueError, match="defect"):
        main(["classify", "--graph", graph, "--out", str(tmp_path / "out.csv")])

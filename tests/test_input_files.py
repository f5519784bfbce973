"""Probe, exclusion, subset and ground-truth files: a bad line is reported with its file and number."""
from __future__ import annotations

import pytest

from peergraph.cli import main

from conftest import FIXTURE_SNAPSHOT

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

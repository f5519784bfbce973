"""Probe and exclusion files: a bad line is reported with its file and number."""
from __future__ import annotations

import pytest

from peergraph.cli import main

from conftest import FIXTURE_SNAPSHOT

DATE = "2020-01-01"


@pytest.mark.parametrize("command", ["sweep", "receivers"])
def test_bad_asn_line_names_file_and_line(tmp_path, capsys, command):
    asns = tmp_path / "asns.txt"
    asns.write_text("# comment\nAS64500\nfoo  # not a number\n")
    out = str(tmp_path / "out.csv")
    if command == "sweep":
        argv = ["sweep", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE,
                "--grid-h", "0.9", "--grid-m", "0.7", "--probes", str(asns), "--out", out]
    else:
        graph = str(tmp_path / "graph.json")
        assert main(["build", "--snapshot", str(FIXTURE_SNAPSHOT), "--date", DATE,
                     "--out", graph]) == 0
        argv = ["receivers", "--graph", graph, "--countries", "DE",
                "--exclude", str(asns), "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"peergraph: {asns}: line 3: 'foo' is not an AS number\n"

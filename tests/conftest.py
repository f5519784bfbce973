"""Shared builders: synthetic snapshots, random graphs, fixture paths."""
from __future__ import annotations

from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest

from peergraph.graph import BetaParams, build_graph
from peergraph.ingest import RawSnapshot, TrafficClass

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURE_SNAPSHOT = DATA_DIR / "fixture_snapshot.json"
FIXTURE_DATE = Date(2020, 1, 1)

ALL_CLASSES = tuple(TrafficClass)


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def make_snapshot(
    networks: list[tuple[int, TrafficClass]],
    ixps: list[tuple[int, str]],
    memberships: list[tuple[int, int, float]],
    date: Date = Date(2020, 1, 1),
    info_types: dict[int, str] | None = None,
) -> RawSnapshot:
    """Snapshot from terse tuples; names are synthesized from the ids.

    Nodes may come in any order; memberships keep theirs.
    """
    info_types = info_types or {}
    networks = sorted(networks, key=lambda n: n[0])
    ixps = sorted(ixps, key=lambda x: x[0])
    asn = [a for a, _ in networks]
    return RawSnapshot(
        date=date,
        asn=_frozen(asn, np.int64),
        as_class=_frozen([ALL_CLASSES.index(tc) for _, tc in networks], np.int8),
        as_name=tuple(f"net-{a}" for a in asn),
        as_scope=("Regional",) * len(asn),
        as_type=tuple(info_types.get(a, "NSP") for a in asn),
        ixp_id=_frozen([i for i, _ in ixps], np.int64),
        ixp_name=tuple(f"ix-{i}" for i, _ in ixps),
        ixp_country=tuple(c for _, c in ixps),
        port_asn=_frozen([a for a, _, _ in memberships], np.int64),
        port_ixp_id=_frozen([i for _, i, _ in memberships], np.int64),
        port_size=_frozen([s for _, _, s in memberships], np.float64),
    )


# The node columns that snapshots and graphs share, and those of a snapshot.
NODE_COLUMNS = ("asn", "as_class", "as_name", "as_scope", "as_type",
                "ixp_id", "ixp_name", "ixp_country")
SNAPSHOT_COLUMNS = NODE_COLUMNS + ("port_asn", "port_ixp_id", "port_size")


def column_values(source, names: tuple[str, ...]) -> dict:
    """The named columns of a snapshot or graph as plain values that ``==`` compares."""
    values = {}
    for name in names:
        value = getattr(source, name)
        values[name] = value.tolist() if isinstance(value, np.ndarray) else value
    return values


def snapshot_fields(snapshot: RawSnapshot) -> dict:
    """Date, report and columns of a snapshot, for comparisons."""
    fields = column_values(snapshot, SNAPSHOT_COLUMNS)
    return fields | {"date": snapshot.date, "report": snapshot.report}


def node_columns(g) -> tuple[tuple, tuple]:
    """The AS and IXP node columns of a graph, in the form ``_assemble`` takes."""
    return (g.asn, g.as_class, g.as_name, g.as_scope, g.as_type), (
        g.ixp_id, g.ixp_name, g.ixp_country,
    )


def random_snapshot(
    rng: np.random.Generator,
    max_as: int = 120,
    max_ixp: int = 40,
    countries: tuple[str, ...] = ("DE", "US", "BR", "JP", ""),
) -> RawSnapshot:
    """Random connected-ish membership structure with integer port sizes."""
    n_as = int(rng.integers(2, max_as + 1))
    n_ixp = int(rng.integers(1, max_ixp + 1))
    networks = [
        (1000 + i, ALL_CLASSES[int(rng.integers(0, len(ALL_CLASSES)))])
        for i in range(n_as)
    ]
    ixps = [(1 + j, countries[int(rng.integers(0, len(countries)))]) for j in range(n_ixp)]
    memberships: list[tuple[int, int, float]] = []
    for asn, _ in networks:
        for ixp_id in rng.choice(n_ixp, size=int(rng.integers(1, min(n_ixp, 4) + 1)), replace=False):
            memberships.append((asn, 1 + int(ixp_id), float(rng.integers(1, 1_000_001))))
    return make_snapshot(networks, ixps, memberships)


def edge_dict(g) -> dict[tuple[int, int], float]:
    """(asn, ixp_id) -> aggregated port size of a graph's edges."""
    return {(asn, ixp_id): ps for asn, ixp_id, ps in g.edge_list()}


def random_graph(rng: np.random.Generator, max_as: int = 120, max_ixp: int = 40):
    return build_graph(random_snapshot(rng, max_as, max_ixp))


@pytest.fixture()
def fixture_snapshot():
    from peergraph.ingest import parse_snapshot

    return parse_snapshot(FIXTURE_SNAPSHOT, FIXTURE_DATE)


@pytest.fixture()
def fixture_graph(fixture_snapshot):
    return build_graph(fixture_snapshot)

"""Shared builders: synthetic snapshots, random graphs, fixture paths."""
from __future__ import annotations

from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from peergraph.graph import BetaParams, build_graph
from peergraph.ingest import (
    IxpRecord,
    MembershipRecord,
    NetworkRecord,
    RawSnapshot,
    TrafficClass,
)

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURE_SNAPSHOT = DATA_DIR / "fixture_snapshot.json"
FIXTURE_DATE = Date(2020, 1, 1)

ALL_CLASSES = tuple(TrafficClass)


def make_snapshot(
    networks: list[tuple[int, TrafficClass]],
    ixps: list[tuple[int, str]],
    memberships: list[tuple[int, int, float]],
    date: Date = Date(2020, 1, 1),
    info_types: dict[int, str] | None = None,
) -> RawSnapshot:
    """Snapshot from terse tuples; names are synthesized from the ids."""
    info_types = info_types or {}
    return RawSnapshot(
        date=date,
        networks=tuple(
            NetworkRecord(
                asn=asn,
                name=f"net-{asn}",
                info_ratio=tc,
                info_scope="Regional",
                info_type=info_types.get(asn, "NSP"),
            )
            for asn, tc in networks
        ),
        ixps=tuple(IxpRecord(ixp_id=i, name=f"ix-{i}", country=c) for i, c in ixps),
        memberships=tuple(
            MembershipRecord(asn=a, ixp_id=i, port_size=s) for a, i, s in memberships
        ),
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


def random_weights(rng: np.random.Generator, n: int, density: float = 0.25) -> sparse.csc_matrix:
    """Random non-negative sparse weights with a few dangling columns."""
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    W = np.where(mask, rng.random((n, n)), 0.0)
    kill = rng.random(n) < 0.15  # force some dangling columns
    W[:, kill] = 0.0
    return sparse.csc_matrix(W)


@pytest.fixture()
def fixture_snapshot():
    from peergraph.ingest import parse_snapshot

    return parse_snapshot(FIXTURE_SNAPSHOT, FIXTURE_DATE)


@pytest.fixture()
def fixture_graph(fixture_snapshot):
    return build_graph(fixture_snapshot)

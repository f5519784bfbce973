"""Ingestion of PeeringDB snapshot dumps and external ground-truth tables.

A snapshot dump is a single JSON object per date holding three record
families: "net" (ASes), "ix" (exchanges) and "netixlan" (one row per
router port an AS has at an exchange).  Each family may be either a bare
array or an object with a "data" array, which covers both hand-written
fixtures and the daily dump files published for the community.
"""
from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date as Date
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import GroundTruthFormatError, SnapshotFormatError


class TrafficClass(Enum):
    """Declared inbound/outbound traffic imbalance of an AS."""

    BALANCED = "Balanced"
    HEAVY_INBOUND = "Heavy Inbound"
    HEAVY_OUTBOUND = "Heavy Outbound"
    MOSTLY_INBOUND = "Mostly Inbound"
    MOSTLY_OUTBOUND = "Mostly Outbound"
    NOT_DISCLOSED = "Not Disclosed"

    @classmethod
    def from_text(cls, text: object) -> "TrafficClass":
        """Map a free-text ratio label to a class; anything unknown is Not Disclosed."""
        if not isinstance(text, str):
            return cls.NOT_DISCLOSED
        return _RATIO_BY_TEXT.get(text.strip().lower(), cls.NOT_DISCLOSED)

    @property
    def is_outbound(self) -> bool:
        return self in (TrafficClass.HEAVY_OUTBOUND, TrafficClass.MOSTLY_OUTBOUND)

    @property
    def short(self) -> str:
        return _RATIO_SHORT[self]


_RATIO_BY_TEXT = {
    "balanced": TrafficClass.BALANCED,
    "heavy inbound": TrafficClass.HEAVY_INBOUND,
    "heavy outbound": TrafficClass.HEAVY_OUTBOUND,
    "mostly inbound": TrafficClass.MOSTLY_INBOUND,
    "mostly outbound": TrafficClass.MOSTLY_OUTBOUND,
    "not disclosed": TrafficClass.NOT_DISCLOSED,
}

_RATIO_SHORT = {
    TrafficClass.BALANCED: "B",
    TrafficClass.HEAVY_INBOUND: "HI",
    TrafficClass.HEAVY_OUTBOUND: "HO",
    TrafficClass.MOSTLY_INBOUND: "MI",
    TrafficClass.MOSTLY_OUTBOUND: "MO",
    TrafficClass.NOT_DISCLOSED: "ND",
}


@dataclass(frozen=True)
class NetworkRecord:
    asn: int
    name: str
    info_ratio: TrafficClass
    info_scope: str
    info_type: str


@dataclass(frozen=True)
class IxpRecord:
    ixp_id: int
    name: str
    country: str  # ISO-3166 alpha-2 or ""


@dataclass(frozen=True)
class MembershipRecord:
    asn: int
    ixp_id: int
    port_size: float  # Mbit/s, one record per router port


@dataclass(frozen=True)
class ParseReport:
    """Bookkeeping for one parsed dump: kept counts and per-record drop reasons."""

    networks: int = 0
    ixps: int = 0
    memberships: int = 0
    invalid_networks: int = 0
    invalid_ixps: int = 0
    invalid_memberships: int = 0
    duplicate_networks: int = 0
    duplicate_ixps: int = 0
    unresolved_memberships: int = 0


@dataclass(frozen=True, eq=False)
class RawSnapshot:
    """One parsed dump.  Every membership resolves inside the same snapshot."""

    date: Date
    networks: tuple[NetworkRecord, ...]
    ixps: tuple[IxpRecord, ...]
    memberships: tuple[MembershipRecord, ...]
    report: ParseReport = field(default_factory=ParseReport)

    @cached_property
    def network_by_asn(self) -> dict[int, NetworkRecord]:
        return {n.asn: n for n in self.networks}

    @cached_property
    def ixp_by_id(self) -> dict[int, IxpRecord]:
        return {x.ixp_id: x for x in self.ixps}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RawSnapshot):
            return NotImplemented
        return (
            self.date == other.date
            and self.networks == other.networks
            and self.ixps == other.ixps
            and self.memberships == other.memberships
        )


def _section(raw: Mapping, key: str) -> list:
    """Return the record array for one dump family ("net", "ix", "netixlan")."""
    if key not in raw:
        raise SnapshotFormatError(f"dump is missing the '{key}' section")
    value = raw[key]
    if isinstance(value, Mapping) and isinstance(value.get("data"), list):
        return value["data"]
    if isinstance(value, list):
        return value
    raise SnapshotFormatError(f"dump section '{key}' is neither an array nor an object with 'data'")


def _is_utf8(text: str) -> bool:
    """False when ``text`` holds a lone surrogate, which UTF-8 cannot encode.

    JSON can spell one (``"\\ud800"``), but no output file can hold it.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_snapshot(path: str | Path, date: Date) -> RawSnapshot:
    """Parse one dump file into a snapshot.

    Field-level problems are non-fatal: malformed records (among them a
    membership speed that is negative, NaN or infinite, and network or
    exchange text holding a lone surrogate) are skipped and counted,
    memberships whose AS or exchange is unknown are dropped and counted.
    A missing speed is kept as port size 0 (graph construction discards
    zero-capacity memberships later).  Duplicated AS numbers or exchange
    ids keep the last occurrence.
    """
    try:
        raw = json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, Mapping):
        raise SnapshotFormatError(f"{path}: top-level value must be an object")

    invalid_networks = duplicate_networks = 0
    nets: dict[int, NetworkRecord] = {}
    for rec in _section(raw, "net"):
        try:
            asn = int(rec["asn"])
            if asn <= 0:
                raise ValueError("asn must be positive")
            record = NetworkRecord(
                asn=asn,
                name=str(rec.get("name") or ""),
                info_ratio=TrafficClass.from_text(rec.get("info_ratio")),
                info_scope=str(rec.get("info_scope") or "Not Disclosed"),
                info_type=str(rec.get("info_type") or "Not Disclosed"),
            )
            if not _is_utf8(record.name + record.info_scope + record.info_type):
                raise ValueError("text holds a lone surrogate")
        except (KeyError, TypeError, ValueError):
            invalid_networks += 1
            continue
        if asn in nets:
            duplicate_networks += 1
        nets[asn] = record

    invalid_ixps = duplicate_ixps = 0
    ixps: dict[int, IxpRecord] = {}
    for rec in _section(raw, "ix"):
        try:
            ixp_id = int(rec["id"])
            if ixp_id <= 0:
                raise ValueError("id must be positive")
            record = IxpRecord(
                ixp_id=ixp_id,
                name=str(rec.get("name") or ""),
                country=str(rec.get("country") or ""),
            )
            if not _is_utf8(record.name + record.country):
                raise ValueError("text holds a lone surrogate")
        except (KeyError, TypeError, ValueError):
            invalid_ixps += 1
            continue
        if ixp_id in ixps:
            duplicate_ixps += 1
        ixps[ixp_id] = record

    invalid_memberships = unresolved = 0
    memberships: list[MembershipRecord] = []
    for rec in _section(raw, "netixlan"):
        try:
            asn = int(rec["asn"])
            ixp_id = int(rec["ix_id"])
            speed = rec.get("speed")
            port_size = 0.0 if speed is None else float(speed)
            if not (math.isfinite(port_size) and port_size >= 0):
                raise ValueError("speed must be finite and non-negative")
        except (KeyError, TypeError, ValueError):
            invalid_memberships += 1
            continue
        if asn not in nets or ixp_id not in ixps:
            unresolved += 1
            continue
        memberships.append(MembershipRecord(asn=asn, ixp_id=ixp_id, port_size=port_size))

    report = ParseReport(
        networks=len(nets),
        ixps=len(ixps),
        memberships=len(memberships),
        invalid_networks=invalid_networks,
        invalid_ixps=invalid_ixps,
        invalid_memberships=invalid_memberships,
        duplicate_networks=duplicate_networks,
        duplicate_ixps=duplicate_ixps,
        unresolved_memberships=unresolved,
    )
    return RawSnapshot(
        date=date,
        networks=tuple(sorted(nets.values(), key=lambda n: n.asn)),
        ixps=tuple(sorted(ixps.values(), key=lambda x: x.ixp_id)),
        memberships=tuple(memberships),
        report=report,
    )


def as_port_capacity(snapshot: RawSnapshot) -> dict[int, float]:
    """Total declared port capacity per AS (sum over all its router ports)."""
    totals: dict[int, float] = defaultdict(float)
    for m in snapshot.memberships:
        totals[m.asn] += m.port_size
    return dict(totals)


@dataclass(frozen=True)
class OutlierReport:
    asn: int
    name: str
    total_capacity: float
    threshold: float
    memberships: tuple[tuple[int, float], ...]  # (ixp_id, port_size)


def validate_snapshot(
    snapshot: RawSnapshot,
    reference_capacity: float,
    factor: float = 10.0,
) -> tuple[OutlierReport, ...]:
    """Flag ASes whose total port capacity exceeds ``factor * reference_capacity``.

    The comparison is a strict inequality: an AS sitting exactly at the
    threshold is not flagged.  ``reference_capacity`` is typically the
    capacity of a trusted large network in the same snapshot.
    """
    if reference_capacity <= 0:
        raise ValueError("reference_capacity must be positive")
    if factor <= 0:
        raise ValueError("factor must be positive")
    threshold = factor * reference_capacity
    totals = as_port_capacity(snapshot)
    details: dict[int, list[tuple[int, float]]] = {
        asn: [] for asn, total in totals.items() if total > threshold
    }
    for m in snapshot.memberships:
        if m.asn in details:
            details[m.asn].append((m.ixp_id, m.port_size))
    flagged = [
        OutlierReport(
            asn, snapshot.network_by_asn[asn].name, totals[asn], threshold, tuple(ports)
        )
        for asn, ports in details.items()
    ]
    flagged.sort(key=lambda r: (-r.total_capacity, r.asn))
    return tuple(flagged)


@dataclass(frozen=True)
class EumsEntry:
    share: float  # end-user market share, percent
    rank: int  # national rank


@dataclass(frozen=True)
class GroundTruthReport:
    malformed_asorg: int = 0
    duplicate_asorg: int = 0
    malformed_apnic: int = 0
    duplicate_apnic: int = 0


@dataclass(frozen=True)
class GroundTruth:
    """External reference data: AS registration country and per-country EUMS."""

    as_country: dict[int, str]
    eums: dict[tuple[int, str], EumsEntry]
    report: GroundTruthReport = field(default_factory=GroundTruthReport)


def _rows(path: str | Path) -> Iterable[list[str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GroundTruthFormatError(f"{path}: {exc}") from exc
    for row in csv.reader(text.splitlines()):
        if not row or row[0].lstrip().startswith("#"):
            continue
        yield [cell.strip() for cell in row]


def load_ground_truth(
    asorg_path: str | Path | None = None,
    apnic_paths: Sequence[str | Path] = (),
) -> GroundTruth:
    """Load AS-to-country rows and per-country end-user market share tables.

    AS-org rows are ``asn,country_code``; APNIC rows are
    ``asn,country_code,eums_percent,national_rank``.  Malformed rows are
    skipped and counted; duplicate keys keep the last occurrence.
    """
    as_country: dict[int, str] = {}
    malformed_asorg = duplicate_asorg = 0
    if asorg_path is not None:
        for row in _rows(asorg_path):
            try:
                if len(row) < 2 or not row[1]:
                    raise ValueError("need (asn, country)")
                asn = int(row[0])
            except ValueError:
                malformed_asorg += 1
                continue
            if asn in as_country:
                duplicate_asorg += 1
            as_country[asn] = row[1].upper()

    eums: dict[tuple[int, str], EumsEntry] = {}
    malformed_apnic = duplicate_apnic = 0
    for path in apnic_paths:
        for row in _rows(path):
            try:
                if len(row) < 4 or not row[1]:
                    raise ValueError("need (asn, country, eums, rank)")
                asn = int(row[0])
                country = row[1].upper()
                share = float(row[2])
                rank = int(row[3])
                if not 0.0 <= share <= 100.0 or rank < 1:
                    raise ValueError("out of range")
            except ValueError:
                malformed_apnic += 1
                continue
            key = (asn, country)
            if key in eums:
                duplicate_apnic += 1
            eums[key] = EumsEntry(share=share, rank=rank)

    report = GroundTruthReport(
        malformed_asorg=malformed_asorg,
        duplicate_asorg=duplicate_asorg,
        malformed_apnic=malformed_apnic,
        duplicate_apnic=duplicate_apnic,
    )
    return GroundTruth(as_country=as_country, eums=eums, report=report)


def capacity_timeseries(
    snapshots: Sequence[RawSnapshot],
) -> tuple[tuple[Date, float], ...]:
    """Per-date total of all membership port sizes, in input order."""
    if not snapshots:
        raise ValueError("need at least one snapshot")
    return tuple(
        (s.date, float(sum(m.port_size for m in s.memberships))) for s in snapshots
    )

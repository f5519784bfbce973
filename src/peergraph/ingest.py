"""Ingestion of PeeringDB snapshot dumps and external reference tables.

A snapshot dump is a single JSON object per date holding three record
families: "net" (ASes), "ix" (exchanges) and "netixlan" (one row per
router port an AS has at an exchange).  Each family may be either a bare
array or an object with a "data" array, which covers both hand-written
fixtures and the daily dump files published for the community.

A parsed dump is a :class:`RawSnapshot` of columns: the node columns of
:class:`~peergraph.graph.PeeringGraph` plus one column per membership
field, so graph construction reads the arrays as they are.

The reference tables are CSV files read into plain dicts:
:func:`load_as_countries` maps each AS to its registration country and
:func:`load_market_shares` each (AS, country) pair to its end-user market
share.
"""
from __future__ import annotations

import csv
import functools
import gc
import json
import math
from dataclasses import dataclass, field
from datetime import date as Date
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import GroundTruthFormatError, PeergraphError, SnapshotFormatError


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
        """The initials of the class name: ``B``, ``HI``, ``HO``, ``MI``, ``MO``, ``ND``."""
        return "".join(word[0] for word in self.value.split())


_RATIO_BY_TEXT = {tc.value.lower(): tc for tc in TrafficClass}


# Traffic-class code of an AS or an edge: the class's position in this tuple.
CLASSES = tuple(TrafficClass)
_CODE = {tc: code for code, tc in enumerate(CLASSES)}


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
    """One parsed dump, stored as columns.

    The node columns have the layout of :class:`~peergraph.graph.PeeringGraph`:
    the read-only int64 arrays ``asn`` and ``ixp_id``, ascending and
    without repeats; the read-only int8 array ``as_class`` (each AS's
    traffic-class code, its position in :data:`CLASSES`); and tuples of
    strings ``as_name``, ``as_scope``, ``as_type``, ``ixp_name`` and
    ``ixp_country``.

    The membership columns hold one entry per router port, in dump order:
    the read-only int64 arrays ``port_asn`` and ``port_ixp_id`` and the
    read-only float64 array ``port_size`` (Mbit/s, finite and
    non-negative).  Every membership names an AS and an exchange listed in
    the same snapshot.
    """

    date: Date
    asn: np.ndarray
    as_class: np.ndarray
    as_name: tuple[str, ...]
    as_scope: tuple[str, ...]
    as_type: tuple[str, ...]
    ixp_id: np.ndarray
    ixp_name: tuple[str, ...]
    ixp_country: tuple[str, ...]
    port_asn: np.ndarray
    port_ixp_id: np.ndarray
    port_size: np.ndarray
    report: ParseReport = field(default_factory=ParseReport)


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _not_utf8(error: type[PeergraphError], path, data: bytes, exc: UnicodeDecodeError):
    """``error`` naming the file and the line of the first byte that is not UTF-8."""
    line = data.count(b"\n", 0, exc.start) + 1
    return error(f"{path}: line {line}: not UTF-8 ({exc.reason})")


def read_lines(path: str | Path, error: type[PeergraphError]) -> list[str]:
    """The lines of a UTF-8 text file.

    Raises ``error`` naming the file and the line when the file holds a
    byte sequence that is not UTF-8.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise _not_utf8(error, path, data, exc) from exc


def csv_rows(
    path: str | Path, lines: Sequence[str], error: type[PeergraphError], offset: int = 0
) -> Iterator[tuple[int, list[str]]]:
    """Each CSV row of ``lines`` with the number of the file line it ends on.

    ``lines`` are the lines of ``path`` after its first ``offset`` lines.
    Raises ``error`` naming the file and the line where the csv module
    refuses a row, for instance one holding a field over its size limit.
    """
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield offset + reader.line_num, row
    except csv.Error as exc:
        raise error(f"{path}: line {offset + reader.line_num}: {exc}") from exc


def _section(path, raw: Mapping, key: str) -> list:
    """Return the record array for one dump family ("net", "ix", "netixlan")."""
    if key not in raw:
        raise SnapshotFormatError(f"{path}: dump is missing the '{key}' section")
    value = raw[key]
    if isinstance(value, Mapping) and isinstance(value.get("data"), list):
        return value["data"]
    if isinstance(value, list):
        return value
    raise SnapshotFormatError(
        f"{path}: dump section '{key}' is neither an array nor an object with 'data'"
    )


def _is_utf8(text: str) -> bool:
    """False when ``text`` holds a lone surrogate, which UTF-8 cannot encode.

    JSON can spell one (``"\\ud800"``), but no output file can hold it.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _node_id(value: object) -> int:
    """A JSON integer (not a boolean) in [1, 2**63), as a node id."""
    if type(value) is not int:
        raise TypeError("an id must be a JSON integer")
    if not 0 < value < 2**63:
        raise ValueError("a node id must be in [1, 2**63)")
    return value


# What converting the fields of one malformed row can raise.
_BAD_ROW = (KeyError, TypeError, ValueError, OverflowError)


def _collector_paused(func):
    """``func`` run with the cyclic garbage collector paused for the whole call.

    Decoding a dump or a graph file allocates some 10^5 containers, and
    none of them is in a cycle.  Left on, the collector runs full passes
    over all of them while the call holds the decoded tree, and finds
    nothing to free.  The collector's state before the call is restored
    however the call ends.
    """
    @functools.wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@_collector_paused
def parse_snapshot(path: str | Path, date: Date) -> RawSnapshot:
    """Parse one dump file into a snapshot.

    Field-level problems are non-fatal: malformed records (among them an
    id that is not a JSON integer, a network or exchange id outside
    [1, 2**63), a number too large to convert, a membership speed that is
    not a JSON number or is negative, NaN or infinite, and network or
    exchange text holding a lone surrogate) are skipped and counted,
    memberships whose AS or exchange is unknown are dropped and counted.
    A missing speed is kept as port size 0 (graph construction
    discards zero-capacity memberships later).  Duplicated AS numbers or
    exchange ids keep the last occurrence.  A file that is not UTF-8 JSON
    with the three sections raises :class:`SnapshotFormatError`.

    The cyclic garbage collector is paused during the call: the decoded
    dump holds no cycle, so a collection over it would only cost time.
    """
    data = Path(path).read_bytes()
    try:
        raw = json.loads(data)
    except UnicodeDecodeError as exc:
        raise _not_utf8(SnapshotFormatError, path, data, exc) from exc
    except (ValueError, RecursionError) as exc:
        raise SnapshotFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, Mapping):
        raise SnapshotFormatError(f"{path}: top-level value must be an object")

    invalid_networks = duplicate_networks = 0
    nets: dict[int, tuple[int, str, str, str]] = {}  # asn -> (class code, name, scope, type)
    for rec in _section(path, raw, "net"):
        try:
            asn = _node_id(rec["asn"])
            row = (
                _CODE[TrafficClass.from_text(rec.get("info_ratio"))],
                str(rec.get("name") or ""),
                str(rec.get("info_scope") or "Not Disclosed"),
                str(rec.get("info_type") or "Not Disclosed"),
            )
            if not _is_utf8(row[1] + row[2] + row[3]):
                raise ValueError("text holds a lone surrogate")
        except _BAD_ROW:
            invalid_networks += 1
            continue
        if asn in nets:
            duplicate_networks += 1
        nets[asn] = row

    invalid_ixps = duplicate_ixps = 0
    ixps: dict[int, tuple[str, str]] = {}  # ixp_id -> (name, country)
    for rec in _section(path, raw, "ix"):
        try:
            ixp_id = _node_id(rec["id"])
            row = (str(rec.get("name") or ""), str(rec.get("country") or ""))
            if not _is_utf8(row[0] + row[1]):
                raise ValueError("text holds a lone surrogate")
        except _BAD_ROW:
            invalid_ixps += 1
            continue
        if ixp_id in ixps:
            duplicate_ixps += 1
        ixps[ixp_id] = row

    invalid_memberships = unresolved = 0
    port_asn: list[int] = []
    port_ixp_id: list[int] = []
    port_size: list[float] = []
    for rec in _section(path, raw, "netixlan"):
        try:
            # A record that is not an object fails at the first lookup.
            asn, ixp_id, speed = rec["asn"], rec["ix_id"], rec.get("speed")
            if type(asn) is not int or type(ixp_id) is not int:
                raise TypeError("an id must be a JSON integer")
            if speed is not None and type(speed) not in (int, float):
                raise TypeError("a speed must be a JSON number")
            size = 0.0 if speed is None else float(speed)
            if not 0.0 <= size < math.inf:
                raise ValueError("speed must be finite and non-negative")
        except _BAD_ROW:
            invalid_memberships += 1
            continue
        if asn not in nets or ixp_id not in ixps:
            unresolved += 1
            continue
        port_asn.append(asn)
        port_ixp_id.append(ixp_id)
        port_size.append(size)

    report = ParseReport(
        networks=len(nets),
        ixps=len(ixps),
        memberships=len(port_size),
        invalid_networks=invalid_networks,
        invalid_ixps=invalid_ixps,
        invalid_memberships=invalid_memberships,
        duplicate_networks=duplicate_networks,
        duplicate_ixps=duplicate_ixps,
        unresolved_memberships=unresolved,
    )
    asn_ids, ixp_ids = sorted(nets), sorted(ixps)
    as_class, as_name, as_scope, as_type = zip(*[nets[a] for a in asn_ids]) if nets else ((),) * 4
    ixp_name, ixp_country = zip(*[ixps[x] for x in ixp_ids]) if ixps else ((),) * 2
    return RawSnapshot(
        date=date,
        asn=_frozen(np.array(asn_ids, dtype=np.int64)),
        as_class=_frozen(np.array(as_class, dtype=np.int8)),
        as_name=as_name,
        as_scope=as_scope,
        as_type=as_type,
        ixp_id=_frozen(np.array(ixp_ids, dtype=np.int64)),
        ixp_name=ixp_name,
        ixp_country=ixp_country,
        port_asn=_frozen(np.array(port_asn, dtype=np.int64)),
        port_ixp_id=_frozen(np.array(port_ixp_id, dtype=np.int64)),
        port_size=_frozen(np.array(port_size, dtype=np.float64)),
        report=report,
    )


def as_port_capacity(snapshot: RawSnapshot) -> dict[int, float]:
    """Total declared port capacity per AS with a membership, summed in membership order."""
    asn, where = np.unique(snapshot.port_asn, return_inverse=True)
    totals = np.bincount(where, weights=snapshot.port_size, minlength=asn.size)
    return dict(zip(asn.tolist(), totals.tolist()))


@dataclass(frozen=True)
class OutlierReport:
    asn: int
    name: str
    total_capacity: float
    threshold: float


def validate_snapshot(
    snapshot: RawSnapshot,
    reference_capacity: float,
    factor: float = 10.0,
) -> tuple[OutlierReport, ...]:
    """Flag ASes whose total port capacity exceeds ``factor * reference_capacity``.

    The comparison is a strict inequality: an AS sitting exactly at the
    threshold is not flagged.  ``reference_capacity`` is typically the
    capacity of a trusted large network in the same snapshot.  Each
    report gives the AS, its name, its total from :func:`as_port_capacity`
    and the threshold; they are ordered by descending total, then by AS
    number.
    """
    if not 0.0 < reference_capacity < math.inf:
        raise ValueError(
            f"reference_capacity must be finite and positive, got {reference_capacity}"
        )
    if not 0.0 < factor < math.inf:
        raise ValueError(f"factor must be finite and positive, got {factor}")
    threshold = factor * reference_capacity
    flagged = [
        OutlierReport(asn, snapshot.as_name[np.searchsorted(snapshot.asn, asn)], total, threshold)
        for asn, total in as_port_capacity(snapshot).items()
        if total > threshold
    ]
    flagged.sort(key=lambda r: (-r.total_capacity, r.asn))
    return tuple(flagged)


def _rows(path: str | Path) -> Iterator[list[str]]:
    """The stripped cells of each row of a reference table, without comment rows."""
    try:
        lines = read_lines(path, GroundTruthFormatError)
    except OSError as exc:
        raise GroundTruthFormatError(f"{path}: {exc}") from exc
    for _, row in csv_rows(path, lines, GroundTruthFormatError):
        if row and not row[0].lstrip().startswith("#"):
            yield [cell.strip() for cell in row]


def load_as_countries(path: str | Path) -> dict[int, str]:
    """AS number -> registration country, from ``asn,country_code`` rows.

    Malformed rows are skipped; a repeated AS keeps its last row.
    """
    as_country: dict[int, str] = {}
    for row in _rows(path):
        try:
            asn = int(row[0])
        except ValueError:
            continue
        if len(row) >= 2 and row[1]:
            as_country[asn] = row[1].upper()
    return as_country


def load_market_shares(paths: Sequence[str | Path]) -> dict[tuple[int, str], float]:
    """(AS number, country) -> end-user market share in percent.

    Rows are ``asn,country_code,eums_percent,national_rank``.  Malformed
    rows are skipped, among them a share outside [0, 100] and a rank
    below 1; a repeated (AS, country) pair keeps its last row.
    """
    shares: dict[tuple[int, str], float] = {}
    for path in paths:
        for row in _rows(path):
            try:
                if len(row) < 4 or not row[1]:
                    raise ValueError("need (asn, country, eums, rank)")
                asn, share, rank = int(row[0]), float(row[2]), int(row[3])
            except ValueError:
                continue
            if 0.0 <= share <= 100.0 and rank >= 1:
                shares[asn, row[1].upper()] = share
    return shares


def capacity_timeseries(
    snapshots: Sequence[RawSnapshot],
) -> tuple[tuple[Date, float], ...]:
    """Per-date total of all membership port sizes, in input order.

    Raises ``ValueError`` naming the AS of the first membership at which a
    total overflows the float range.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot")
    series = []
    for s in snapshots:
        total = float(sum(s.port_size.tolist()))
        if not math.isfinite(total):
            with np.errstate(over="ignore"):
                k = int(np.flatnonzero(~np.isfinite(np.cumsum(s.port_size)))[0])
            raise ValueError(f"port capacity sums past the float range at AS{s.port_asn[k]}")
        series.append((s.date, total))
    return tuple(series)

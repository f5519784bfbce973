"""The weighted directed bipartite AS-IXP capacity graph.

Nodes are the ASes and IXPs that share at least one positive-capacity
membership.  Router ports of one AS at one IXP are aggregated by summation
into a single undirected port size ``ps``.  Each aggregated edge is split
into two directed edges whose weights depend on the AS's traffic class:
the declared direction carries the full port size, the opposite direction
carries ``(1 - beta) * ps`` with a per-class beta coefficient.

A graph stores its aggregated edges as columns sorted by (asn, ixp_id):
AS node index, IXP node index, port size and the AS's traffic-class code.
They are the graph's one copy of its edges: the directed weights are one
vectorized function of them and a :class:`BetaParams`
(:meth:`PeeringGraph.edge_weights`, listed as links by
:meth:`PeeringGraph.links`), so re-weighting a graph for another beta
reuses its edges without rebuilding the graph.  Each node's total port
capacity is a node column as well (:attr:`PeeringGraph.capacity`).  The
links as a sparse matrix, ``PeeringGraph.W``, are kept only for the
benchmark tracer.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import EmptyGraphError
from .ingest import CLASSES, RawSnapshot, TrafficClass, _frozen

if TYPE_CHECKING:
    from scipy import sparse

_OUTBOUND = np.array([tc.is_outbound for tc in CLASSES])


@dataclass(frozen=True)
class BetaParams:
    """Per-class traffic imbalance coefficients, each in [0, 1].

    ``balanced`` applies to Balanced and Not Disclosed ASes, ``mostly`` to
    the Mostly In/Outbound classes and ``heavy`` to the Heavy classes.
    """

    balanced: float = 0.0
    mostly: float = 0.75
    heavy: float = 0.95

    def __post_init__(self) -> None:
        for name in ("balanced", "mostly", "heavy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"beta for {name} classes must be in [0, 1], got {v}")

    def for_class(self, tc: TrafficClass) -> float:
        if tc in (TrafficClass.HEAVY_INBOUND, TrafficClass.HEAVY_OUTBOUND):
            return self.heavy
        if tc in (TrafficClass.MOSTLY_INBOUND, TrafficClass.MOSTLY_OUTBOUND):
            return self.mostly
        return self.balanced


@dataclass(frozen=True, eq=False)
class PeeringGraph:
    """Immutable bipartite capacity graph.

    Node indices run over ASes first (ascending AS number) then IXPs
    (ascending exchange id); the ordering is part of the output contract
    for every matrix and rank table derived from the graph.

    Nodes are stored as columns in that order: the read-only int64 arrays
    ``asn`` and ``ixp_id``, the read-only int8 array ``as_class`` (each
    AS's traffic-class code, its position in
    :data:`~peergraph.ingest.CLASSES`), and tuples of strings ``as_name``,
    ``as_scope``, ``as_type``, ``ixp_name`` and ``ixp_country``: the
    layout of a :class:`~peergraph.ingest.RawSnapshot`, restricted to the
    nodes with an edge.

    The four edge columns are read-only arrays of equal length, one entry
    per aggregated (AS, IXP) edge, sorted by (asn, ixp_id):

    - ``edge_as``: node index of the AS (``0 <= i < n_as``);
    - ``edge_ixp``: node index of the IXP (``n_as <= i < n_nodes``);
    - ``port_size``: aggregated port size, finite and positive;
    - ``edge_class``: traffic-class code of the AS.

    ``capacity`` is the read-only float64 node column of total port
    capacity: the sum of the port sizes of a node's edges, in edge order.
    ``by_ixp`` is the read-only permutation that sorts the edges by
    (ixp_id, asn), computed once per graph; the Google operator stores the
    edges in that order, under the sparse pattern ``ixp_pattern``.
    ``outbound`` marks the edges whose AS declares outbound traffic.
    ``W`` is :meth:`links` as a sparse matrix, kept only for the benchmark
    tracer.
    """

    date: Date | None
    beta: BetaParams
    asn: np.ndarray
    as_class: np.ndarray
    as_name: tuple[str, ...]
    as_scope: tuple[str, ...]
    as_type: tuple[str, ...]
    ixp_id: np.ndarray
    ixp_name: tuple[str, ...]
    ixp_country: tuple[str, ...]
    edge_as: np.ndarray
    edge_ixp: np.ndarray
    port_size: np.ndarray
    edge_class: np.ndarray

    @property
    def n_as(self) -> int:
        return self.asn.shape[0]

    @property
    def n_ixp(self) -> int:
        return self.ixp_id.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.n_as + self.n_ixp

    @property
    def n_edges(self) -> int:
        return self.port_size.shape[0]

    @cached_property
    def _as_pos(self) -> dict[int, int]:
        return dict(zip(self.asn.tolist(), range(self.n_as)))

    @cached_property
    def _ixp_pos(self) -> dict[int, int]:
        return dict(zip(self.ixp_id.tolist(), range(self.n_ixp)))

    def as_index(self, asn: int) -> int:
        return self._as_pos[asn]

    def contains_as(self, asn: int) -> bool:
        return asn in self._as_pos

    def ixp_index(self, ixp_id: int) -> int:
        return self.n_as + self._ixp_pos[ixp_id]

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(
            [f"AS{a}" for a in self.asn.tolist()] + [f"IX{x}" for x in self.ixp_id.tolist()]
        )

    @cached_property
    def kinds(self) -> tuple[str, ...]:
        return ("AS",) * self.n_as + ("IXP",) * self.n_ixp

    @cached_property
    def names(self) -> tuple[str, ...]:
        return self.as_name + self.ixp_name

    @cached_property
    def capacity(self) -> np.ndarray:
        n = self.n_nodes
        capacity = np.bincount(self.edge_as, weights=self.port_size, minlength=n) + np.bincount(
            self.edge_ixp, weights=self.port_size, minlength=n
        )
        # bincount gives integers when there are no weights (an edgeless graph)
        return _frozen(capacity.astype(np.float64, copy=False))

    @cached_property
    def by_ixp(self) -> np.ndarray:
        return _frozen(np.lexsort((self.edge_as, self.edge_ixp)))

    @cached_property
    def ixp_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, indptr) of the edges grouped by IXP, in :attr:`by_ixp` order.

        Entry ``k`` of ``indices`` is the AS node index of the ``k``-th edge
        in that order, and the edges of IXP ``n_as + x`` are those from
        ``indptr[x]`` to ``indptr[x + 1]``: the pattern of a sparse matrix
        with one row (CSR) or column (CSC) per IXP.  Both are int32, the
        index type scipy would otherwise convert them to at every build.
        """
        at_ixp = self.edge_ixp[self.by_ixp]
        indptr = np.searchsorted(at_ixp, np.arange(self.n_as, self.n_nodes + 1))
        indices = self.edge_as[self.by_ixp]
        return _frozen(indices.astype(np.int32)), _frozen(indptr.astype(np.int32))

    @cached_property
    def outbound(self) -> np.ndarray:
        return _frozen(_OUTBOUND[self.edge_class])

    def edge_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """The (asn, ixp_id) of each edge, in edge order."""
        return self.asn[self.edge_as], self.ixp_id[self.edge_ixp - self.n_as]

    def edge_weights(self, beta: BetaParams) -> tuple[np.ndarray, np.ndarray]:
        """The two directed weights of every edge under ``beta``, in edge order.

        Returns the weights of the links IXP -> AS and AS -> IXP: ``ps`` in
        the AS's declared direction and ``(1 - beta) * ps`` in the other.
        """
        coef = np.array([1.0 - beta.for_class(tc) for tc in CLASSES])
        minor = coef[self.edge_class] * self.port_size
        return (
            np.where(self.outbound, minor, self.port_size),
            np.where(self.outbound, self.port_size, minor),
        )

    def links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source, target, weight) of every directed link of positive weight.

        The weights are :meth:`edge_weights` at the graph's own ``beta``:
        first the links IXP -> AS, then AS -> IXP, each in edge order.
        Links of zero weight (beta = 1) are left out.
        """
        into_as, into_ixp = self.edge_weights(self.beta)
        source = np.concatenate([self.edge_ixp, self.edge_as])
        target = np.concatenate([self.edge_as, self.edge_ixp])
        weight = np.concatenate([into_as, into_ixp])
        keep = weight > 0.0
        return source[keep], target[keep], weight[keep]

    @cached_property
    def W(self) -> sparse.csr_matrix:
        """:meth:`links` as CSR with sorted indices: ``W[i, j]`` is the link ``j -> i``.

        No command reads it; it is kept because the benchmark tracer reports
        ``W.nnz`` as the graph size.  scipy is imported only here.
        """
        from scipy import sparse

        source, target, weight = self.links()
        W = sparse.csr_matrix((weight, (target, source)), shape=(self.n_nodes, self.n_nodes))
        W.sort_indices()
        return W


def _positions(ids: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``wanted`` in the sorted ``ids``, and which are present."""
    pos = np.searchsorted(ids, wanted)
    found = np.zeros(wanted.shape, dtype=bool)
    inside = pos < ids.size
    found[inside] = ids[pos[inside]] == wanted[inside]
    return pos, found


def _sorted_nodes(kind: str, ids: Sequence[int], *columns: Sequence) -> tuple:
    """``ids`` as a sorted int64 array, each column as a tuple in that order.

    Raises ``ValueError`` naming the first id that is listed twice.
    """
    ids = np.array(ids, dtype=np.int64)
    if np.any(ids[1:] < ids[:-1]):
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        columns = tuple([col[i] for i in order.tolist()] for col in columns)
    twice = ids[1:][ids[1:] == ids[:-1]]
    if twice.size:
        raise ValueError(f"{kind} {twice[0]} is listed twice")
    return (_frozen(ids), *map(tuple, columns))


def _assemble(
    as_columns: Sequence[Sequence],
    ixp_columns: Sequence[Sequence],
    edge_asn: Sequence[int],
    edge_ixp_id: Sequence[int],
    port_size: Sequence[float],
    beta: BetaParams,
    date: Date | None,
) -> PeeringGraph:
    """Canonical graph from node columns and edge columns keyed by node id.

    ``as_columns`` is (asn, traffic-class code, name, scope, type) and
    ``ixp_columns`` is (ixp_id, name, country), one entry per node in any
    order.  Nodes are sorted by id and edges by (asn, ixp_id); the edges
    are sorted only when they are not already in that order, as those of
    a saved graph always are.  Raises
    ``ValueError`` naming the record when a node id is listed twice, an
    edge names an unlisted node or appears twice, or a port size is not
    finite and positive.
    """
    asn, as_class, as_name, as_scope, as_type = _sorted_nodes("AS", *as_columns)
    ixp_id, ixp_name, ixp_country = _sorted_nodes("IXP", *ixp_columns)
    as_class = _frozen(np.array(as_class, dtype=np.int8))

    edge_asn = np.asarray(edge_asn, dtype=np.int64)
    edge_ixp_id = np.asarray(edge_ixp_id, dtype=np.int64)
    port_size = np.array(port_size, dtype=np.float64)
    bad = ~(np.isfinite(port_size) & (port_size > 0.0))
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"edge AS{edge_asn[k]}-IX{edge_ixp_id[k]} has port size {port_size[k]!r}; "
            "port sizes must be finite and positive"
        )
    a, as_listed = _positions(asn, edge_asn)
    x, ixp_listed = _positions(ixp_id, edge_ixp_id)
    unlisted = ~(as_listed & ixp_listed)
    if unlisted.any():
        k = int(np.flatnonzero(unlisted)[0])
        raise ValueError(
            f"edge AS{edge_asn[k]}-IX{edge_ixp_id[k]} names a node that is not listed"
        )

    step_a, step_x = np.diff(a), np.diff(x)
    if np.any((step_a < 0) | ((step_a == 0) & (step_x < 0))):
        order = np.lexsort((x, a))
        a, x, port_size = a[order], x[order], port_size[order]
        step_a, step_x = np.diff(a), np.diff(x)
    repeated = (step_a == 0) & (step_x == 0)
    if repeated.any():
        k = int(np.flatnonzero(repeated)[0])
        raise ValueError(f"edge AS{asn[a[k]]}-IX{ixp_id[x[k]]} is listed twice")

    return PeeringGraph(
        date=date,
        beta=beta,
        asn=asn,
        as_class=as_class,
        as_name=as_name,
        as_scope=as_scope,
        as_type=as_type,
        ixp_id=ixp_id,
        ixp_name=ixp_name,
        ixp_country=ixp_country,
        edge_as=_frozen(a),
        edge_ixp=_frozen(asn.size + x),
        port_size=_frozen(port_size),
        edge_class=_frozen(as_class[a]),
    )


def build_graph(
    snapshot: RawSnapshot,
    beta: BetaParams | None = None,
    min_members: int = 1,
) -> PeeringGraph:
    """Construct the capacity graph for one snapshot.

    Memberships with zero port size are discarded; multiple router ports
    of one (AS, IXP) pair are summed in membership order.  ``min_members``
    optionally removes IXPs with fewer distinct member ASes before the
    graph is assembled (the default keeps every IXP that has at least one
    member).
    """
    beta = beta or BetaParams()
    positive = snapshot.port_size > 0.0
    asn = snapshot.port_asn[positive]
    ixp_id = snapshot.port_ixp_id[positive]
    size = snapshot.port_size[positive]

    # Group the ports of each (asn, ixp_id) pair; the stable sort keeps them
    # in membership order, and bincount adds them in that order.
    order = np.lexsort((ixp_id, asn))
    asn, ixp_id, size = asn[order], ixp_id[order], size[order]
    first = np.ones(asn.size, dtype=bool)
    first[1:] = (asn[1:] != asn[:-1]) | (ixp_id[1:] != ixp_id[:-1])
    size = np.bincount(np.cumsum(first) - 1, weights=size)
    asn, ixp_id = asn[first], ixp_id[first]

    if min_members > 1:
        ixps, members = np.unique(ixp_id, return_counts=True)
        keep = np.isin(ixp_id, ixps[members >= min_members])
        asn, ixp_id, size = asn[keep], ixp_id[keep], size[keep]

    if size.size == 0:
        raise EmptyGraphError("snapshot has no positive-capacity membership")

    a = np.searchsorted(snapshot.asn, np.unique(asn)).tolist()
    x = np.searchsorted(snapshot.ixp_id, np.unique(ixp_id)).tolist()
    as_text = (snapshot.as_name, snapshot.as_scope, snapshot.as_type)
    as_columns = (snapshot.asn[a], snapshot.as_class[a], *([c[i] for i in a] for c in as_text))
    ixp_text = (snapshot.ixp_name, snapshot.ixp_country)
    ixp_columns = (snapshot.ixp_id[x], *([c[i] for i in x] for c in ixp_text))
    return _assemble(as_columns, ixp_columns, asn, ixp_id, size, beta, snapshot.date)


@dataclass(frozen=True)
class BreakpointFit:
    breakpoint: object  # same type as the input x values
    slope_before: float
    slope_after: float
    sse: float


def _segment_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    # Least-squares line; returns (slope, sse).
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    denom = float(dx @ dx)
    slope = float(dx @ (y - ym)) / denom
    residual = y - (ym + slope * dx)
    return slope, float(residual @ residual)


def fit_breakpoint(series: Sequence[tuple[object, float]]) -> BreakpointFit:
    """Single-breakpoint piecewise-linear least squares.

    Every interior point is tried as the segment boundary (shared by both
    segments); the candidate with the smallest total squared residual
    wins, first one on ties.  X values may be dates or numbers and must be
    strictly increasing; slopes are per day for date inputs.
    """
    points = list(series)
    if len(points) < 4:
        raise ValueError("need at least 4 points for a breakpoint fit")
    raw_x = [p[0] for p in points]
    if isinstance(raw_x[0], Date):
        x = np.array([d.toordinal() for d in raw_x], dtype=np.float64)
    else:
        x = np.array(raw_x, dtype=np.float64)
    if np.any(np.diff(x) <= 0):
        raise ValueError("x values must be strictly increasing")
    y = np.array([p[1] for p in points], dtype=np.float64)

    best: tuple[float, int, float, float] | None = None
    for k in range(1, len(points) - 1):
        s1, e1 = _segment_fit(x[: k + 1], y[: k + 1])
        s2, e2 = _segment_fit(x[k:], y[k:])
        total = e1 + e2
        if best is None or total < best[0]:
            best = (total, k, s1, s2)
    assert best is not None
    sse, k, s1, s2 = best
    return BreakpointFit(breakpoint=raw_x[k], slope_before=s1, slope_after=s2, sse=sse)

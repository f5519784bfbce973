"""Google matrix machinery: PageRank, rank tables, stochastic complementation, temporal diffs.

A rank table is two columns, node indices in rank order and their values;
every ranking here orders by descending value, then by lower node index.

The Google matrix of a peering graph with ``N`` nodes is
``G = alpha * S + (1 - alpha) / N`` where ``S`` column-normalizes the
weight matrix (``S[i, j] = W[i, j] / w_out(j)``) and columns without
out-weight are replaced by the uniform column ``1/N``.  ``G`` is kept
implicit: applying it costs ``O(nnz + N)``.  The graph is bipartite, every
link joining an AS and an IXP, so ``S`` is two blocks: the links into the
IXPs and the links into the ASes.  These two sparse blocks are the
operator's only form; no N x N matrix is built.

PageRank is the fixed point of ``G``, found by two-sided Gauss-Seidel.
One sweep updates the IXP entries from the current vector, then the AS
entries from the new IXP entries, each side with the dangling and teleport
mass of the vector as it stands; this costs one application of ``G`` and,
on this two-cyclic matrix, contracts as much as two power steps (Young's
theory; Arasu, Novak, Tomkins, Tomlin, "PageRank computation and the
structure of the web", WWW 2002).

The reduced matrix for a node subset ``r`` (complement ``s``) is the
stochastic complement

    G_R = G_rr + G_rs (I - G_ss)^{-1} G_sr,

an exact Markov-chain reduction: the restriction of the PageRank vector
to ``r``, L1-normalized, is a fixed point of ``G_R``.  ``I - G_ss`` is the
sparse matrix ``I - alpha * A_ss`` minus a rank-one teleport/dangling
term, so one solve of the sparse part plus a Sherman-Morrison correction
handles all right-hand sides at once.  ``A_ss`` links only ASes to IXPs,
so eliminating the complement's ASes leaves one dense system over its
IXPs.

scipy is imported where a sparse matrix is built, not at module level, so
the functions that only read rank tables or reduced matrices do not load it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date as Date
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import CensorError, ConvergenceError, SubsetMismatchError
from .graph import BetaParams, PeeringGraph
from .ingest import _frozen

if TYPE_CHECKING:
    from scipy import sparse

DEFAULT_ALPHA = 0.85
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True, eq=False)
class GoogleMatrix:
    """Implicit Google matrix of a peering graph in one direction (see :func:`google_matrix`).

    The normalized weights are kept as their two nonzero blocks: ``to_ixp``
    (IXP rows, AS columns) as CSR and ``to_as`` (AS rows, IXP columns) as
    CSC, so that both products of a PageRank sweep loop over the IXPs.
    Both blocks have one pattern, the graph's cached
    :attr:`~peergraph.graph.PeeringGraph.ixp_pattern`: row ``x`` of
    ``to_ixp`` and column ``x`` of ``to_as`` hold the edges of IXP ``x``
    by ascending AS.  The two blocks are the operator's only form: PageRank
    and the stochastic complement both read them directly.  An edge of zero
    weight (a beta of 1) stays a stored zero.  ``dangling`` marks the nodes
    without out-weight, whose columns of ``G`` are uniform.
    """

    alpha: float
    direction: str
    labels: tuple[str, ...]
    N: int
    n_as: int
    to_ixp: sparse.csr_matrix
    to_as: sparse.csc_matrix
    dangling: np.ndarray


def google_matrix(
    g: PeeringGraph,
    alpha: float = DEFAULT_ALPHA,
    direction: str = "forward",
    beta: BetaParams | None = None,
) -> GoogleMatrix:
    """The Google matrix of ``g`` under ``beta`` (by default ``g.beta``).

    The weights are :meth:`~peergraph.graph.PeeringGraph.edge_weights`;
    ``direction="reverse"`` swaps the two weights of every edge, which
    inverts every link.  Each node's out-weight is summed over its edges
    in edge order.
    """
    from scipy import sparse

    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if direction not in ("forward", "reverse"):
        raise ValueError("direction must be 'forward' or 'reverse'")
    into_as, into_ixp = g.edge_weights(g.beta if beta is None else beta)
    if direction == "reverse":
        into_as, into_ixp = into_ixp, into_as
    n, order, pattern = g.n_nodes, g.by_ixp, g.ixp_pattern
    out_weight = np.bincount(
        np.concatenate([g.edge_as, g.edge_ixp]), np.concatenate([into_ixp, into_as]), n
    )
    scale = np.divide(1.0, out_weight, out=np.zeros(n), where=out_weight > 0)
    return GoogleMatrix(
        alpha=float(alpha),
        direction=direction,
        labels=g.labels,
        N=n,
        n_as=g.n_as,
        to_ixp=sparse.csr_matrix(
            ((into_ixp * scale[g.edge_as])[order], *pattern), shape=(g.n_ixp, g.n_as)
        ),
        to_as=sparse.csc_matrix(
            ((into_as * scale[g.edge_ixp])[order], *pattern), shape=(g.n_as, g.n_ixp)
        ),
        dangling=out_weight == 0.0,
    )


@dataclass(frozen=True)
class PageRankVector:
    P: np.ndarray
    iterations: int
    residual: float


def pagerank(
    G: GoogleMatrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: np.ndarray | None = None,
) -> PageRankVector:
    """Gauss-Seidel sweeps until the L1 change of one sweep drops below tol.

    One sweep sets the IXP entries to those of ``G @ v`` for the vector
    ``v`` as it stands (``to_ixp`` times the AS entries), then the AS
    entries likewise from the new IXP entries (``to_as``), recomputing the
    dangling and teleport mass before each side.  The vector is then
    normalized to sum 1, and the iteration stops once its L1 change over
    the sweep is below ``tol``.  The fixed point is the PageRank vector.

    The iteration starts from the uniform vector, or from ``start``
    (normalized to sum 1), such as the PageRank of a slightly different
    chain; the fixed point and the convergence test do not depend on it.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if start is None:
        v = np.full(G.N, 1.0 / G.N)
    else:
        v = np.array(start, dtype=np.float64)
        if v.shape != (G.N,) or not np.isfinite(v).all() or v.min() < 0 or v.sum() <= 0:
            raise ValueError("start must be a finite non-negative vector with positive sum")
        v /= v.sum()
    alpha, n, n_as = G.alpha, G.N, G.n_as
    dangling = np.flatnonzero(G.dangling)

    def lost(x: np.ndarray) -> float:
        """Mass that every node receives: dangling columns and teleport."""
        return (alpha * float(x[dangling].sum()) + (1.0 - alpha) * float(x.sum())) / n

    for iteration in range(1, max_iter + 1):
        nxt = v.copy()
        nxt[n_as:] = alpha * (G.to_ixp @ nxt[:n_as]) + lost(nxt)
        nxt[:n_as] = alpha * (G.to_as @ nxt[n_as:]) + lost(nxt)
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - v).sum())
        v = nxt
        if residual < tol:
            return PageRankVector(P=v, iterations=iteration, residual=residual)
    raise ConvergenceError(
        f"PageRank did not reach tol={tol} within {max_iter} iterations"
    )


@dataclass(frozen=True, eq=False)
class RankTable:
    """Nodes in rank order, as two read-only columns of equal length.

    ``index`` holds node indices (int64) and ``value`` their values
    (float64); the node at position ``k`` has rank ``k + 1``.  Labels,
    kinds, names and AS numbers are read from the graph by index.
    """

    index: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return self.index.shape[0]

    def top(self, k: int) -> RankTable:
        """The first ``k`` rows."""
        return RankTable(index=self.index[:k], value=self.value[:k])


def _rank_order(values: np.ndarray) -> np.ndarray:
    """Node indices by descending value; ties keep the lower index first."""
    return np.lexsort((np.arange(values.shape[0]), -values))


def rank_table(values: np.ndarray | PageRankVector, keep: np.ndarray | None = None) -> RankTable:
    """Order nodes by descending value; ties break toward the lower node index.

    ``keep`` optionally is a boolean mask over the nodes; only the nodes it
    marks are ranked, contiguously from 1.
    """
    vec = np.asarray(values.P if isinstance(values, PageRankVector) else values, dtype=np.float64)
    if keep is not None and np.shape(keep) != vec.shape:
        raise ValueError("keep must be a mask over the value vector")
    index = np.arange(vec.shape[0]) if keep is None else np.flatnonzero(keep)
    index = index[_rank_order(vec[index])]
    return RankTable(index=_frozen(index), value=_frozen(vec[index]))


def rank_positions(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """1-based rank of each of ``nodes`` under the same ordering as :func:`rank_table`.

    A node's rank is one plus the number of larger values plus the number
    of equal values at a lower index; only the given nodes are ranked,
    against one sort of the values.
    """
    values = np.asarray(values, dtype=np.float64)
    nodes = np.asarray(nodes, dtype=np.int64)
    mine = values[nodes]
    ascending = np.sort(values)
    up_to = np.searchsorted(ascending, mine, side="right")
    ranks = 1 + values.size - up_to
    tied = up_to - np.searchsorted(ascending, mine, side="left") > 1
    for j in np.flatnonzero(tied).tolist():
        ranks[j] += np.count_nonzero(values[: nodes[j]] == mine[j])
    return ranks


@dataclass(frozen=True)
class ReducedGoogleMatrix:
    """Dense stochastic complement over an ordered node subset.

    ``GR[i, j]`` is the reduced transition probability toward subset node
    ``i`` from subset node ``j`` (direct plus every indirect path through
    the censored complement).  The PageRank of the subset nodes,
    L1-normalized, is a fixed point of ``GR``.
    """

    labels: tuple[str, ...]
    GR: np.ndarray
    direction: str
    alpha: float
    censored: bool = False
    date: Date | None = None


def _dense_block(G: GoogleMatrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Normalized weights ``A[rows][:, cols]`` over node indices, dense, from the two blocks."""
    out = np.zeros((rows.size, cols.size))
    row_as, col_as = rows < G.n_as, cols < G.n_as
    out[np.ix_(row_as, ~col_as)] = G.to_as[:, cols[~col_as] - G.n_as][rows[row_as]].toarray()
    out[np.ix_(~row_as, col_as)] = G.to_ixp[rows[~row_as] - G.n_as][:, cols[col_as]].toarray()
    return out


def _solve_complement(
    A_xa: sparse.csr_matrix, A_ax: sparse.csc_matrix, alpha: float, b: np.ndarray
) -> None:
    """Overwrite ``b`` with the solution ``Y`` of ``(I - alpha * A_ss) Y = b``.

    The complement lists its ASes (``a``) before its IXPs (``x``), and
    ``A_xa`` and ``A_ax`` are the only nonzero blocks of ``A_ss``: every
    link joins an AS and an IXP.  So eliminating ``a`` is exact and leaves
    the dense system

        (I - alpha^2 A_xa A_ax) y_x = b_x + alpha A_xa b_a,
        y_a = b_a + alpha A_ax y_x.

    Columns of ``A`` sum to at most 1, so ``K = I - alpha^2 A_xa A_ax`` is
    strictly column diagonally dominant with ``||K^-1||_1 <= 1 / (1 - alpha^2)``.
    """
    n_a = A_ax.shape[0]
    K = (A_xa @ A_ax).toarray()
    K *= -(alpha**2)
    K.flat[:: K.shape[0] + 1] += 1.0
    b[n_a:] = np.linalg.solve(K, b[n_a:] + alpha * (A_xa @ b[:n_a]))
    b[:n_a] += alpha * (A_ax @ b[n_a:])


def reduced_google_matrix(
    G: GoogleMatrix,
    subset: Sequence[int],
    tol: float = DEFAULT_TOL,
) -> ReducedGoogleMatrix:
    """Stochastic complement of ``G`` onto ``subset`` (order preserved).

    ``I - G_ss = M - 1 q^T`` with sparse ``M = I - alpha * A_ss``.  One
    solve of ``M`` over the stacked right-hand sides ``[1 | G_sr]`` gives
    the Sherman-Morrison correction for the rank-one term.  That solve
    eliminates the complement's ASes exactly and solves one dense system
    over its IXPs.  The residual of every column is checked against
    ``tol``.  With an empty complement the result is ``G`` itself
    restricted to the requested ordering.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    r = np.asarray(list(subset), dtype=np.int64)
    if r.size == 0:
        raise ValueError("subset must contain at least one node")
    if np.unique(r).size != r.size:
        raise ValueError("subset nodes must be distinct")
    if r.min() < 0 or r.max() >= G.N:
        raise ValueError("subset index out of range")

    alpha, n, n_as = G.alpha, G.N, G.n_as
    s = np.setdiff1d(np.arange(n), r, assume_unique=True)
    n_sa = int(np.searchsorted(s, n_as))  # s ascends: its ASes come first
    s_a, s_x = s[:n_sa], s[n_sa:] - n_as
    A_xa, A_ax = G.to_ixp[s_x][:, s_a], G.to_as[s_a][:, s_x]
    dang_s = G.dangling[s].astype(np.float64)
    base = (1.0 - alpha) / n

    def from_complement(AY: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``G_.s @ Y`` from ``AY = A_.s @ Y``; dangling and teleport fill every row alike."""
        GY = alpha * AY
        GY += (alpha / n) * (dang_s @ Y)
        GY += base * Y.sum(axis=0)
        return GY

    # Dense G_rr and G_sr blocks (columns indexed by the subset order).
    G_r = alpha * _dense_block(G, np.concatenate([r, s]), r) + (alpha / n) * G.dangling[r] + base
    G_rr, B = G_r[: r.size], G_r[r.size :]
    HZ = np.column_stack([np.ones(s.size), B])
    _solve_complement(A_xa, A_ax, alpha, HZ)
    h, Z = HZ[:, 0], HZ[:, 1:]
    # I - G_ss = M - 1 q^T with q = (alpha/n)*dangling_s + (1-alpha)/n.
    q = (alpha / n) * dang_s + base
    Y = Z + np.outer(h, q @ Z) / (1.0 - float(q @ h))
    G_ssY = from_complement(np.vstack([A_ax @ Y[n_sa:], A_xa @ Y[:n_sa]]), Y)
    residual = float(np.abs(Y - G_ssY - B).sum(axis=0).max())
    if not residual <= max(tol, 1e-9):
        raise ConvergenceError(f"complement solve residual {residual:.3e} exceeds tolerance")
    # A_rs @ Y, one sparse product per side of r.
    r_as = r < n_as
    A_rsY = np.empty((r.size, Y.shape[1]))
    A_rsY[r_as] = G.to_as[r[r_as]][:, s_x] @ Y[n_sa:]
    A_rsY[~r_as] = G.to_ixp[r[~r_as] - n_as][:, s_a] @ Y[:n_sa]
    return ReducedGoogleMatrix(
        labels=tuple(G.labels[i] for i in r),
        GR=np.asfortranarray(G_rr + from_complement(A_rsY, Y)),
        direction=G.direction,
        alpha=alpha,
    )


def censor_diagonal(R: ReducedGoogleMatrix) -> ReducedGoogleMatrix:
    """Zero the diagonal and re-normalize every column to sum 1."""
    GR = R.GR.copy()
    off_mass = GR.sum(axis=0) - np.diag(GR)
    if np.any(off_mass <= 0):
        bad = int(np.flatnonzero(off_mass <= 0)[0])
        raise CensorError(
            f"column for node {R.labels[bad]} has no off-diagonal mass to re-normalize"
        )
    np.fill_diagonal(GR, 0.0)
    GR /= off_mass[None, :]
    return replace(R, GR=np.asfortranarray(GR), censored=True)


@dataclass(frozen=True)
class ChangeMatrix:
    """Entrywise relative change between two reduced matrices.

    ``delta[i, j] = (later[i, j] - earlier[i, j]) / earlier[i, j]``;
    cells whose earlier value is zero are undefined and carried as NaN.
    A vanished link is exactly -1.  ``cap`` is a display clamp only and
    does not alter the stored values.
    """

    labels: tuple[str, ...]
    delta: np.ndarray
    dates: tuple[Date | None, Date | None]
    cap: tuple[float, float] | None = None

    @property
    def undefined(self) -> np.ndarray:
        return np.isnan(self.delta)

    def capped(self) -> np.ndarray:
        if self.cap is None:
            return self.delta.copy()
        return np.clip(self.delta, self.cap[0], self.cap[1])


def relative_change(
    earlier: ReducedGoogleMatrix,
    later: ReducedGoogleMatrix,
    cap: tuple[float, float] | None = None,
) -> ChangeMatrix:
    """Relative change of every reduced-matrix element between two dates.

    ``cap = (lo, hi)`` needs ``lo <= hi``; a NaN bound is refused.  Raises
    :class:`SubsetMismatchError` unless both matrices have the same labels
    in the same order, direction, censoring and alpha.
    """
    if cap is not None and not cap[0] <= cap[1]:
        raise ValueError(f"cap must be (lo, hi) with lo <= hi, got {cap}")
    if earlier.labels != later.labels:
        raise SubsetMismatchError("reduced matrices cover different node subsets")
    if earlier.direction != later.direction:
        raise SubsetMismatchError("reduced matrices have different directions")
    if earlier.censored != later.censored:
        raise SubsetMismatchError("reduced matrices are not censored identically")
    if earlier.alpha != later.alpha:
        raise SubsetMismatchError(
            f"reduced matrices have different alphas ({earlier.alpha!r} and {later.alpha!r})"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = (later.GR - earlier.GR) / earlier.GR
    delta[earlier.GR == 0.0] = np.nan
    return ChangeMatrix(
        labels=earlier.labels,
        delta=delta,
        dates=(earlier.date, later.date),
        cap=cap,
    )

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
stochastic complement (Meyer, "Stochastic complementation, uncoupling
Markov chains, and the theory of nearly reducible systems", SIAM Review
1989)

    G_R = G_rr + G_rs (I - G_ss)^{-1} G_sr,

an exact Markov-chain reduction: the restriction of the PageRank vector
to ``r``, L1-normalized, is a fixed point of ``G_R``.  ``I - G_ss`` is the
sparse ``I - alpha * A_ss`` minus a rank-one teleport/dangling term, so
one sparse solve and a Sherman-Morrison step give every column.  ``A_ss``
links only ASes to IXPs: eliminating the complement's ASes leaves one
dense system over its IXPs, and ``G_R`` needs only small products of its
solution, so no dense array has a row per complement AS.

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


def _solve_ixp_system(
    A_xa: sparse.csr_matrix, A_ax: sparse.csc_matrix, alpha: float, rhs: np.ndarray, tol: float
) -> np.ndarray:
    """``K^-1 rhs`` for ``K = I - alpha^2 A_xa A_ax``, refused unless its residual is within tol.

    Columns of ``A`` sum to at most 1, so ``K`` is strictly column
    diagonally dominant with ``||K^-1||_1 <= 1 / (1 - alpha^2)``.  The
    dense ``K`` is freed before the residual ``||rhs - K W_x||_1`` of each
    column is taken through ``A_ax`` and ``A_xa``, one column at a time.
    """
    K = (A_xa @ A_ax).toarray()
    K *= -(alpha**2)
    K.flat[:: K.shape[0] + 1] += 1.0
    W_x = np.linalg.solve(K, rhs)
    del K
    residual = max(
        float(np.abs(b - w + alpha**2 * (A_xa @ (A_ax @ w))).sum()) for b, w in zip(rhs.T, W_x.T)
    )
    if not residual <= max(tol, 1e-9):
        raise ConvergenceError(f"complement solve residual {residual:.3e} exceeds tolerance")
    return W_x


def reduced_google_matrix(
    G: GoogleMatrix,
    subset: Sequence[int],
    tol: float = DEFAULT_TOL,
) -> ReducedGoogleMatrix:
    """Stochastic complement of ``G`` onto ``subset`` (order preserved).

    With ``M = I - alpha * A_ss``, ``I - G_ss = M - 1 q^T`` and
    ``G_sr = alpha * A_sr + 1 c^T``, so ``G_R`` follows by one
    Sherman-Morrison step from ``q^T W`` and ``A_rs W`` for
    ``W = M^-1 b``, ``b = [1 | A_sr]``.  The complement lists its ASes
    (``a``) before its IXPs (``x``).  Eliminating ``a`` leaves
    ``K W_x = b_x + alpha A_xa b_a`` (:func:`_solve_ixp_system`), and
    ``W_a = b_a + alpha A_ax W_x`` enters both products through sparse
    ones.  Raises :class:`ConvergenceError` when the residual of the IXP
    system exceeds ``tol`` or ``G_R`` has an entry that is not finite.
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

    alpha, n, n_as, k = G.alpha, G.N, G.n_as, r.size
    base = (1.0 - alpha) / n
    s = np.setdiff1d(np.arange(n), r, assume_unique=True)
    n_sa = int(np.searchsorted(s, n_as))  # s ascends: its ASes come first
    s_a, s_x = s[:n_sa], s[n_sa:] - n_as
    r_as = r < n_as
    r_a, r_x = r[r_as], r[~r_as] - n_as
    sa_rows, sx_rows, ra_rows, rx_rows = G.to_as[s_a], G.to_ixp[s_x], G.to_as[r_a], G.to_ixp[r_x]
    A_xa, A_ax, A_rx_sa = sx_rows[:, s_a], sa_rows[:, s_x], rx_rows[:, s_a]
    # Column 0 of b is the ones, column 1 + j that of subset node j: an
    # AS's column of A_sr is nonzero on s_x only, an IXP's on s_a only.
    col_a, col_x = 1 + np.flatnonzero(r_as), 1 + np.flatnonzero(~r_as)
    b_a, ones_a = sa_rows[:, r_x], np.ones(n_sa)
    rhs = np.zeros((s_x.size, k + 1))
    rhs[:, 0] = 1.0 + alpha * (A_xa @ ones_a)
    rhs[:, col_a] = sx_rows[:, r_a].toarray()
    rhs[:, col_x] = alpha * (A_xa @ b_a).toarray()
    W_x = _solve_ixp_system(A_xa, A_ax, alpha, rhs, tol)
    # q = (alpha/n) * dangling_s + (1-alpha)/n and q^T W = q_a^T W_a + q_x^T W_x.
    q_a, q_x = np.split((alpha / n) * G.dangling[s] + base, [n_sa])
    qW = (alpha * (A_ax.T @ q_a) + q_x) @ W_x
    qW[0] += q_a.sum()
    qW[col_x] += b_a.T @ q_a
    A_rsW = np.empty((k, k + 1))
    A_rsW[r_as] = ra_rows[:, s_x] @ W_x
    A_rsW[~r_as] = alpha * ((A_rx_sa @ A_ax) @ W_x)
    A_rsW[~r_as, 0] += A_rx_sa @ ones_a
    A_rsW[np.ix_(~r_as, col_x)] += (A_rx_sa @ b_a).toarray()
    # Rows q^T and G_rs = alpha A_rs + 1 q^T times W, then times
    # Z = M^-1 G_sr = W [c^T; alpha I], then times Y = (I - G_ss)^-1 G_sr.
    c = (alpha / n) * G.dangling[r] + base
    QW = np.vstack([qW, alpha * A_rsW + qW])
    QZ = alpha * QW[:, 1:] + np.outer(QW[:, 0], c)
    QY = QZ + np.outer(QW[:, 0], QZ[0]) / (1.0 - QW[0, 0])
    GR = QY[1:] + c
    GR[np.ix_(r_as, ~r_as)] += alpha * ra_rows[:, r_x].toarray()
    GR[np.ix_(~r_as, r_as)] += alpha * rx_rows[:, r_a].toarray()
    if not np.isfinite(GR).all():
        raise ConvergenceError("reduced matrix has an entry that is not finite")
    return ReducedGoogleMatrix(
        labels=tuple(G.labels[i] for i in r),
        GR=np.asfortranarray(GR),
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

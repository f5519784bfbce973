"""Google matrix machinery: PageRank, rank tables, stochastic complementation, temporal diffs.

A rank table is two columns, node indices in rank order and their values;
every ranking here orders by descending value, then by lower node index.

The Google matrix of a weighted directed graph with ``N`` nodes is
``G = alpha * S + (1 - alpha) / N`` where ``S`` column-normalizes the
weight matrix (``S[i, j] = W[i, j] / w_out(j)``) and columns without
out-weight are replaced by the uniform column ``1/N``.  ``G`` is kept
implicit: applying it costs ``O(nnz + N)``.

PageRank is the fixed point of ``G``, found by two-sided Gauss-Seidel.
The AS-IXP graph is bipartite: every link joins an AS and an IXP.  One
sweep updates the IXP entries from the current vector, then the AS entries
from the new IXP entries, each side with the dangling and teleport mass of
the vector as it stands; this costs one application of ``G`` and, on a
two-cyclic matrix, contracts as much as two power steps (Young's theory;
Arasu, Novak, Tomkins, Tomlin, "PageRank computation and the structure of
the web", WWW 2002).  A matrix without node kinds has one block of all
rows, and its sweep is the power step ``v <- G v``.

The reduced matrix for a node subset ``r`` (complement ``s``) is the
stochastic complement

    G_R = G_rr + G_rs (I - G_ss)^{-1} G_sr,

an exact Markov-chain reduction: the restriction of the PageRank vector
to ``r``, L1-normalized, is a fixed point of ``G_R``.  ``I - G_ss`` is the
sparse matrix ``I - alpha * A_ss`` minus a rank-one teleport/dangling
term, so one solve of the sparse part plus a Sherman-Morrison correction
handles all right-hand sides at once.  On the bipartite AS-IXP graph
``A_ss`` links only ASes to IXPs, so eliminating the AS side leaves one
dense system over the complement's IXPs; any other sparsity pattern is
solved densely.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from datetime import date as Date
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import CensorError, ConvergenceError, SubsetMismatchError
from .ingest import _frozen

DEFAULT_ALPHA = 0.85
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


class GoogleMatrix:
    """Implicit column-stochastic operator over a weighted directed graph.

    ``direction="reverse"`` transposes the weight matrix before
    normalization, which is equivalent to inverting every edge.
    :attr:`blocks` splits the normalized weights by side for
    :func:`pagerank`, and :meth:`reweighted` gives the operator of new
    weights over the same sparsity pattern.
    """

    def __init__(
        self,
        W: sparse.spmatrix,
        alpha: float = DEFAULT_ALPHA,
        direction: str = "forward",
        labels: Sequence[str] | None = None,
        kinds: Sequence[str] | None = None,
    ) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        if direction not in ("forward", "reverse"):
            raise ValueError("direction must be 'forward' or 'reverse'")
        W = sparse.csc_matrix(W, dtype=np.float64)
        if W.shape[0] != W.shape[1]:
            raise ValueError("weight matrix must be square")
        if direction == "reverse":
            W = W.T.tocsc()
        if not np.isfinite(W.data).all():
            raise ValueError("weights must be finite")
        if W.nnz and W.data.min() < 0:
            raise ValueError("weights must be non-negative")

        n = W.shape[0]
        out_weight = np.asarray(W.sum(axis=0)).ravel()
        A = W.copy()
        scale = np.divide(1.0, out_weight, out=np.zeros(n), where=out_weight > 0)
        A.data *= np.repeat(scale, np.diff(A.indptr))
        self._A = A
        self.dangling = out_weight == 0.0
        self.alpha = float(alpha)
        self.N = n
        self.direction = direction
        self.labels = tuple(labels) if labels is not None else tuple(map(str, range(n)))
        self.kinds = tuple(kinds) if kinds is not None else ("",) * n
        if len(self.labels) != n:
            raise ValueError("labels length must match the node count")

    @property
    def normalized_weights(self) -> sparse.csc_matrix:
        """Column-normalized weight matrix (dangling columns left all-zero)."""
        return self._A

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Compute ``G @ v``."""
        y = self.alpha * (self._A @ v)
        lost = self.alpha * float(v[self.dangling].sum()) + (1.0 - self.alpha) * float(v.sum())
        return y + lost / self.N

    @cached_property
    def _layout(self) -> tuple[tuple[np.ndarray, sparse.spmatrix], ...]:
        """The rows of each block, and the block's pattern holding the position
        of each stored entry in ``normalized_weights.data``.

        A CSR product loops over the block's rows and a CSC product over all
        columns.  The smaller side is stored as CSR; the larger one as CSC,
        since on the bipartite graph only the few columns of the other side
        hold its entries (a single block is CSC, like ``normalized_weights``).
        """
        A = self._A
        position = sparse.csc_matrix((np.arange(A.nnz), A.indices, A.indptr), shape=A.shape)
        position = position.tocsr()
        on_ixp = np.array(self.kinds) == "IXP"
        sides = [rows for rows in (np.flatnonzero(on_ixp), np.flatnonzero(~on_ixp)) if rows.size]
        return tuple(
            (rows, position[rows] if 2 * rows.size < self.N else position[rows].tocsc())
            for rows in sides
        )

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, sparse.spmatrix], ...]:
        """The normalized weights as row blocks, in the order a PageRank sweep updates them.

        Each block is a pair: its row indices, and those rows of
        :attr:`normalized_weights` as a sparse matrix over all columns.  The
        IXP rows come first, then the others (the ASes); a matrix with only
        one kind of node, such as one built without node kinds, has a
        single block of all rows.  Built on first use, so an operator that
        only :func:`reduced_google_matrix` reads never builds it.
        """
        return self._blocks_of(self._A.data)

    def _blocks_of(self, values: np.ndarray) -> tuple[tuple[np.ndarray, sparse.spmatrix], ...]:
        """The row blocks of the matrix on this pattern that stores ``values``."""
        return tuple(
            (rows, type(P)((values[P.data], P.indices, P.indptr), shape=P.shape))
            for rows, P in self._layout
        )

    @cached_property
    def _entry_column(self) -> np.ndarray:
        """The column of each stored entry of ``normalized_weights``."""
        return np.repeat(np.arange(self.N), np.diff(self._A.indptr))

    def reweighted(self, data: np.ndarray) -> GoogleMatrix:
        """The operator of new weights over this operator's sparsity pattern.

        ``data`` holds one finite, non-negative weight per stored entry of
        :attr:`normalized_weights`, in its column-major storage order (for
        ``direction="reverse"``, that of the transposed weight matrix).  The
        out-weights, the dangling columns and the normalized weights are
        recomputed; the pattern and the layout of its row blocks are
        reused, so a sweep over many weightings of one graph builds them
        once.
        """
        data = np.asarray(data, dtype=np.float64)
        A = self._A
        if data.shape != A.data.shape:
            raise ValueError(f"data must hold {A.nnz} weights, got shape {data.shape}")
        if not np.isfinite(data).all() or (data.size and data.min() < 0):
            raise ValueError("weights must be finite and non-negative")
        column = self._entry_column
        out_weight = np.bincount(column, weights=data, minlength=self.N)
        scale = np.divide(1.0, out_weight, out=np.zeros(self.N), where=out_weight > 0)
        G = copy.copy(self)
        G._A = sparse.csc_matrix((data * scale[column], A.indices, A.indptr), shape=A.shape)
        G.dangling = out_weight == 0.0
        G.blocks = self._blocks_of(G._A.data)
        return G


def google_matrix(
    graph_or_weights,
    alpha: float = DEFAULT_ALPHA,
    direction: str = "forward",
) -> GoogleMatrix:
    """Build a :class:`GoogleMatrix` from a peering graph or a raw weight matrix."""
    if sparse.issparse(graph_or_weights) or isinstance(graph_or_weights, np.ndarray):
        return GoogleMatrix(sparse.csc_matrix(graph_or_weights), alpha, direction)
    g = graph_or_weights
    return GoogleMatrix(g.W, alpha, direction, labels=g.labels, kinds=g.kinds)


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

    One sweep visits the row blocks of ``G`` (:attr:`GoogleMatrix.blocks`)
    in order, IXP rows then AS rows.  Each block's entries are set to those
    of ``G @ v`` for the vector ``v`` as it stands, with the dangling and
    teleport mass recomputed before each block, so the AS side already
    reads the new IXP side.  The vector is then normalized to sum 1, and
    the iteration stops once its L1 change over the sweep is below
    ``tol``.  With a single block (a matrix without node kinds) a sweep is
    exactly the power step ``v <- G v``.  The fixed point is the PageRank
    vector either way.

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
    alpha, n, blocks = G.alpha, G.N, G.blocks
    dangling = np.flatnonzero(G.dangling)
    for iteration in range(1, max_iter + 1):
        nxt = v.copy()
        for rows, block in blocks:
            lost = alpha * float(nxt[dangling].sum()) + (1.0 - alpha) * float(nxt.sum())
            nxt[rows] = alpha * (block @ nxt) + lost / n
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


def _slice_blocks(A: sparse.csc_matrix, r: np.ndarray, s: np.ndarray):
    cols_r = A[:, r].tocsr()
    A_rr = cols_r[r, :]
    A_sr = cols_r[s, :]
    if s.size:
        cols_s = A[:, s].tocsr()
        A_rs = cols_s[r, :]
        A_ss = cols_s[s, :]
    else:
        A_rs = sparse.csr_matrix((r.size, 0))
        A_ss = sparse.csr_matrix((0, 0))
    return A_rr, A_rs, A_sr, A_ss


def _solve_complement(
    A_ss: sparse.csr_matrix, alpha: float, on_x: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve ``(I - alpha * A_ss) Y = rhs`` over the complement.

    ``on_x`` marks the complement's IXPs (``x``); the rest are ASes
    (``a``).  When no nonzero of ``A_ss`` joins two nodes on the same side,
    eliminating ``a`` is exact and leaves the dense system

        (I - alpha^2 A_xa A_ax) y_x = b_x + alpha A_xa b_a,
        y_a = b_a + alpha A_ax y_x.

    Columns of ``A`` sum to at most 1, so ``K = I - alpha^2 A_xa A_ax`` is
    strictly column diagonally dominant with ``||K^-1||_1 <= 1 / (1 - alpha^2)``.
    Any other sparsity pattern is solved densely; only graphs without node
    kinds, which no command builds, take that path.
    """
    rows, cols = A_ss.nonzero()
    if np.any(on_x[rows] == on_x[cols]):
        return np.linalg.solve(np.eye(A_ss.shape[0]) - alpha * A_ss.toarray(), rhs)
    x = np.flatnonzero(on_x)
    a = np.flatnonzero(~on_x)
    A_xa = A_ss[x][:, a]
    A_ax = A_ss[a][:, x]
    K = np.eye(x.size) - alpha**2 * (A_xa @ A_ax).toarray()
    Y = np.empty_like(rhs)
    Y[x] = np.linalg.solve(K, rhs[x] + alpha * (A_xa @ rhs[a]))
    Y[a] = rhs[a] + alpha * (A_ax @ Y[x])
    return Y


def reduced_google_matrix(
    G: GoogleMatrix,
    subset: Sequence[int],
    tol: float = DEFAULT_TOL,
) -> ReducedGoogleMatrix:
    """Stochastic complement of ``G`` onto ``subset`` (order preserved).

    ``I - G_ss = M - 1 q^T`` with sparse ``M = I - alpha * A_ss``.  One
    solve of ``M`` over the stacked right-hand sides ``[1 | G_sr]`` gives
    the Sherman-Morrison correction for the rank-one term.  On a bipartite
    AS-IXP graph (node kinds ``"AS"``/``"IXP"``) that solve eliminates the
    complement's ASes exactly and solves one dense system over its IXPs;
    otherwise ``M`` is solved densely.  The residual of every column is
    checked against ``tol``.  With an empty complement the result is ``G``
    itself restricted to the requested ordering.
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

    alpha, n = G.alpha, G.N
    in_r = np.zeros(n, dtype=bool)
    in_r[r] = True
    s = np.flatnonzero(~in_r)

    A_rr, A_rs, A_sr, A_ss = _slice_blocks(G.normalized_weights, r, s)
    dang_r = G.dangling[r].astype(np.float64)
    dang_s = G.dangling[s].astype(np.float64)
    base = (1.0 - alpha) / n

    # Dense G_rr and G_sr blocks (columns indexed by the subset order).
    G_rr = alpha * A_rr.toarray() + (alpha / n) * dang_r[None, :] + base
    if s.size == 0:
        GR = G_rr
    else:
        B = alpha * A_sr.toarray() + (alpha / n) * dang_r[None, :] + base
        ones_s = np.ones(s.size)

        def apply_G_ss(Y: np.ndarray) -> np.ndarray:
            return (
                alpha * (A_ss @ Y)
                + (alpha / n) * np.outer(ones_s, dang_s @ Y)
                + base * np.outer(ones_s, Y.sum(axis=0))
            )

        on_x = np.asarray(G.kinds)[s] == "IXP"
        HZ = _solve_complement(A_ss, alpha, on_x, np.column_stack([ones_s, B]))
        h, Z = HZ[:, 0], HZ[:, 1:]
        # I - G_ss = M - 1 q^T with q = (alpha/n)*dangling_s + (1-alpha)/n.
        q = (alpha / n) * dang_s + base
        denom = 1.0 - float(q @ h)
        Y = Z + np.outer(h, q @ Z) / denom
        residual = float(np.abs(Y - apply_G_ss(Y) - B).sum(axis=0).max())
        if not residual <= max(tol, 1e-9):
            raise ConvergenceError(
                f"complement solve residual {residual:.3e} exceeds tolerance"
            )
        G_rsY = (
            alpha * (A_rs @ Y)
            + (alpha / n) * np.outer(np.ones(r.size), dang_s @ Y)
            + base * np.outer(np.ones(r.size), Y.sum(axis=0))
        )
        GR = G_rr + G_rsY

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

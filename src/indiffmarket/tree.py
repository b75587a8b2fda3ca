"""Finite-state Brownian scenario trees.

A tree discretizes a d-dimensional Brownian motion on a time grid: every
node at level k carries a value of B at time t_k, and the edges to its
children carry increments and probabilities that match the Brownian
moments exactly (zero mean, covariance dt * I per step).

Two topologies are built here.  The non-recombining product-binomial
tree has 2^d children per node with implicit indexing (children of node
i are i*2^d + e), so states may be assigned per node and pushed to the
leaves by integer shifts; it is the workhorse for field sweeps with
node-dependent states.  The recombining binomial lattice (d = 1, level k
has k+1 nodes) keeps the node count linear in the step count and serves
the fine-grid convergence and Monte Carlo runs, where states depend on
the node only through (level, B).

Every tree describes its children as row windows (``RowWindows``):
child e of the node in row P is row stride * P + offset_e of the next
level, so the conditional expectation reads each edge's children as one
strided slice of the next level's values and never copies them out by
index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .payoff import PayoffExpression

__all__ = ["ScenarioTree", "RowWindows", "binomial_tree", "binomial_lattice",
           "count_classes", "accumulate_rows"]

# leaf payoffs count as a function of the down-move counts when they
# agree within this share of (1 + the column's largest magnitude)
_RECOMBINE_RTOL = 1e-13


def accumulate_rows(a):
    """Running sum down the rows of ``a`` in place: the bits of
    ``cumsum(axis=0)``, one contiguous row add per step (about 3x faster
    than ``cumsum(axis=0)`` at 512 x 10k)."""
    for k in range(1, a.shape[0]):
        np.add(a[k - 1], a[k], out=a[k])


def _as_payoff(spec, b_terminal):
    """Per-leaf values from an expression string, callable, scalar or array."""
    n = b_terminal.shape[0]
    if isinstance(spec, str):
        return PayoffExpression(spec)(b_terminal)
    if callable(spec):
        return np.broadcast_to(np.asarray(spec(b_terminal), dtype=float), (n,)).copy()
    arr = np.asarray(spec, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"payoff table has shape {arr.shape}, expected ({n},)")
    return arr.copy()


@lru_cache(maxsize=64)
def count_classes(dim: int, depth: int):
    """Down-move count classes of the descendants ``depth`` steps below a
    node of an implicit tree with 2^dim children per node.

    Bit j of a child's edge number marks a down move of component j, so
    a path's class is its vector of per-component down-move counts, each
    in 0..depth, numbered by ``np.ravel_multi_index``.  Returns ``(cls,
    rep, child)``: ``cls[r]`` is the class of the r-th descendant in
    implicit order, ``rep[c]`` the first descendant in class c, and
    ``child[c, e]`` the class one step deeper reached from class c by
    edge e.  The arrays are cached per (dim, depth) and read-only.
    """
    nc = 1 << dim
    bits = (np.arange(nc)[:, None] >> np.arange(dim)) & 1
    counts = np.zeros((1, dim), dtype=int)
    for _ in range(depth):
        counts = (counts[:, None, :] + bits[None]).reshape(-1, dim)
    cls = np.ravel_multi_index(counts.T, (depth + 1,) * dim)
    rep = np.unique(cls, return_index=True)[1]
    own = np.stack(np.unravel_index(np.arange(rep.size),
                                    (depth + 1,) * dim), axis=1)
    child = np.ravel_multi_index(
        np.moveaxis(own[:, None, :] + bits[None], 2, 0), (depth + 2,) * dim)
    for arr in (cls, rep, child):
        arr.flags.writeable = False
    return cls, rep, child


@lru_cache(maxsize=64)
def _grid_corner(keep: int, full: int, dim: int):
    """Rows of the points with every coordinate below ``keep`` of a grid
    with ``full`` values per coordinate, in C order; read-only."""
    corner = np.ravel_multi_index(np.indices((keep,) * dim).reshape(dim, -1),
                                  (full,) * dim)
    corner.flags.writeable = False
    return corner


class RowWindows(NamedTuple):
    """Where the children of one level sit among the next level's rows.

    Child e of the node in row P is row ``stride * P + offsets[e]`` of
    the next level.  ``pad = (keep, full, dim)`` marks a level of a
    recombined forest, whose rows are padded: each root owns ``full **
    dim`` rows, one per point of a grid with ``full`` values per
    coordinate, and the nodes are the rows whose coordinates are all
    below ``keep``, in C order.  Without ``pad`` node i is row i.
    """

    stride: int
    offsets: tuple
    pad: tuple = None

    def children(self, n: int) -> np.ndarray:
        """(n, nc) indices of the children of the ``n`` nodes in the next
        level."""
        rows = np.arange(n)
        if self.pad is not None:
            keep, full, dim = self.pad
            corner = _grid_corner(keep, full, dim)
            rows = (np.arange(n // corner.size)[:, None] * full ** dim
                    + corner).ravel()
        return self.stride * rows[:, None] + np.array(self.offsets)


@dataclass
class ScenarioTree:
    """Level-array representation of a scenario tree.

    Attributes
    ----------
    times : (N+1,) grid 0 = t_0 < ... < t_N = T.
    B : list of N+1 arrays (n_k, d), Brownian value at each node.
    windows : list of N ``RowWindows``, the children of each level.
    child_idx : list of N int arrays (n_k, nc), children in level k+1,
        derived from ``windows``.
    edge_db : list of N arrays (n_k, nc, d), Brownian increments; None
        takes the differences of B along the edges.
    edge_p : list of N arrays (n_k, nc), transition probabilities.
    sigma0 : (n_N,) random endowment at the leaves.
    psi : (n_N, J) traded payoffs at the leaves.
    implicit : True when child_idx follows i -> i*nc + e, which allows
        pushing per-node states to the leaves by index arithmetic.
    """

    times: np.ndarray
    B: list
    windows: list
    edge_db: list
    edge_p: list
    sigma0: np.ndarray
    psi: np.ndarray
    implicit: bool = False
    dim: int = field(init=False)
    child_idx: list = field(init=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.dim = self.B[0].shape[1]
        self.child_idx = [w.children(b.shape[0])
                          for w, b in zip(self.windows, self.B)]
        if self.edge_db is None:
            self.edge_db = [nxt[idx] - b[:, None, :] for b, nxt, idx
                            in zip(self.B, self.B[1:], self.child_idx)]
        self.sigma0 = np.asarray(self.sigma0, dtype=float)
        self.psi = np.atleast_2d(np.asarray(self.psi, dtype=float))
        if self.psi.shape[0] != self.n_leaves:
            self.psi = self.psi.T
        if self.sigma0.shape != (self.n_leaves,):
            raise ValueError("sigma0 must have one value per leaf")

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_assets(self) -> int:
        return self.psi.shape[1]

    @property
    def n_leaves(self) -> int:
        return self.B[-1].shape[0]

    def n_nodes(self, level: int) -> int:
        return self.B[level].shape[0]

    @property
    def total_nodes(self) -> int:
        return sum(b.shape[0] for b in self.B)

    def dt(self, level: int) -> float:
        return float(self.times[level + 1] - self.times[level])

    def branching(self, level: int) -> int:
        return self.child_idx[level].shape[1]

    def ancestor_index(self, level_from: int, idx, level_to: int):
        """Map node indices at ``level_from`` to ancestors at ``level_to``.

        Only valid on implicit trees, where every level has a constant
        branching factor and children are blocks of consecutive indices.
        """
        if not self.implicit:
            raise ValueError("ancestor indexing requires an implicit tree")
        idx = np.asarray(idx)
        for k in range(level_from - 1, level_to - 1, -1):
            idx = idx // self.branching(k)
        return idx

    def node_probabilities(self, level: int) -> np.ndarray:
        """Unconditional probabilities of the nodes at one level."""
        prob = np.ones(1)
        for k in range(level):
            nxt = np.zeros(self.n_nodes(k + 1))
            np.add.at(nxt, self.child_idx[k].ravel(),
                      (prob[:, None] * self.edge_p[k]).ravel())
            prob = nxt
        return prob

    def leaf_probabilities(self) -> np.ndarray:
        return self.node_probabilities(self.steps)

    def leaf_owner(self, level: int) -> np.ndarray:
        """Ancestor at ``level`` of every leaf: the root at level 0 on any
        tree, lattices included; other levels on implicit trees only."""
        if level == 0:
            return np.zeros(self.n_leaves, dtype=int)
        return self.ancestor_index(self.steps, np.arange(self.n_leaves), level)

    def expect(self, level: int, values) -> np.ndarray:
        """One-step conditional expectation E[values | node at ``level``].

        ``values`` holds one entry per node of level+1, with any trailing
        shape; the result holds one entry per node of ``level``.  The
        trailing axes are flattened to K columns, so a packed (nodes, K)
        block costs one call.  Child e of every node is one row window
        of that block (``RowWindows``), and the result is p_0 * window_0
        + p_1 * window_1 + ..., multiplied, then added in edge order;
        a forest level is swept over its padded rows, which are dropped
        after.  Probabilities are read from ``edge_p`` on every call, per
        node, except on forests, whose rows ``recombine`` builds equal.
        """
        stride, offsets, pad = self.windows[level]
        n, p = self.n_nodes(level), self.edge_p[level]
        if values.shape[0] != self.n_nodes(level + 1):
            raise ValueError(f"expect at level {level} needs one row per node "
                             f"of level {level + 1}, got {values.shape[0]}")
        flat = values.reshape(values.shape[0], -1)
        m = flat.shape[1]
        if pad is None:
            out = np.empty((n, m))
            live, weights = n, [p[:, e, None] for e in range(len(offsets))]
        else:
            keep, full, dim = pad
            out = np.empty((n // keep ** dim * full ** dim, m))
            live, weights = len(out) - max(offsets), p[0]
        acc, term = out[:live], np.empty((live, m))
        for e, off in enumerate(offsets):
            window = flat[off:off + stride * (live - 1) + 1:stride]
            np.multiply(weights[e], window, out=term if e else acc)
            if e:
                acc += term
        # a sum that starts from zero turns an all -0.0 sum into +0.0
        acc += 0.0
        if pad is not None:
            grid = out.reshape((-1,) + (full,) * dim + (m,))
            out = grid[(slice(None),) + (slice(keep),) * dim]
        return out.reshape((n,) + values.shape[1:])

    def recombine(self, level: int):
        """Recombined copy of the subtrees hanging from the nodes of ``level``.

        When every level moves all its nodes with one probability row and
        the leaf payoffs depend on a path only through its per-component
        down-move counts, the terminal law of a subtree depends only on
        those counts: the recombination of Cox, Ross and Rubinstein
        (1979).  Level s of the copy holds node i * C_s + c for node i of
        ``level`` and class c of ``count_classes(dim, s)``, C_s = (s+1)^d
        classes; its level 0 is the n nodes of ``level``, so the copy is
        a forest.  Edge probabilities are the original rows, and B,
        sigma0 and psi are read from one representative node per class.
        Its children are row windows of padded levels (``RowWindows``).

        Returns None unless the tree is implicit with 2^d children per
        node, every level carries a single ``edge_p`` row, sigma0 and
        each psi column are constant within 1e-13 (1 + max|column|) over
        leaves with equal counts, and the copy has fewer leaves than the
        subtrees, i.e. steps - level >= 2.
        """
        depth, d = self.steps - level, self.dim
        nc = 1 << d
        if (not self.implicit or depth < 2
                or any(self.branching(k) != nc for k in range(self.steps))
                or any((p != p[:1]).any() for p in self.edge_p)):
            return None
        cls, rep, _ = count_classes(d, self.steps)
        cols = np.column_stack([self.sigma0, self.psi])
        spread = np.abs(cols - cols[rep][cls]).max(axis=0)
        if np.any(spread > _RECOMBINE_RTOL * (1.0 + np.abs(cols).max(axis=0))):
            return None

        n = self.n_nodes(level)
        roots = np.arange(n)[:, None]
        B, windows, edge_p = [], [], []
        for s in range(depth + 1):
            _, rep, child = count_classes(d, s)
            B.append(self.B[level + s][(roots * nc ** s + rep).ravel()])
            if s < depth:
                # class c of a root is the row of its counts in a padded
                # grid of (s + 2)^d rows, which holds the classes of s + 1
                windows.append(RowWindows(1, tuple(child[0].tolist()),
                                          (s + 1, s + 2, d)))
                edge_p.append(np.broadcast_to(self.edge_p[level + s][0],
                                              (n * (s + 1) ** d, nc)))
        leaves = (roots * nc ** depth + count_classes(d, depth)[1]).ravel()
        return ScenarioTree(times=self.times[level:], B=B, windows=windows,
                            edge_db=None, edge_p=edge_p,
                            sigma0=self.sigma0[leaves], psi=self.psi[leaves])

    def spread_recombined(self, level: int, depth: int, values):
        """Spread per-node values of level ``depth`` of ``recombine(level)``
        back to the nodes of level + depth of this tree, whose node i *
        2^(d depth) + r takes the value of class ``count_classes(d,
        depth)[0][r]`` under node i.  ``values`` may have any trailing
        shape."""
        cls = count_classes(self.dim, depth)[0]
        rows = values.reshape((self.n_nodes(level), -1) + values.shape[1:])
        return np.take(rows, cls, axis=1).reshape((-1,) + values.shape[1:])

    def martingale_gap(self, levels, ok=None) -> float:
        """Worst scaled one-step gap of a per-level node process.

        Returns the max over levels k of |E[X_{k+1} | k] - X_k| divided
        by 1 + max|X_k|, for ``levels`` a list of per-node arrays X_0..X_N.
        ``ok`` optionally gives a boolean mask per level; then a parent
        counts only when it and all of its children are ok, and the
        scale runs over the counted parents.
        """
        worst = 0.0
        for k in range(self.steps):
            gap = np.abs(self.expect(k, levels[k + 1]) - levels[k])
            size = np.abs(levels[k])
            if ok is not None:
                counted = ok[k] & ok[k + 1][self.child_idx[k]].all(axis=1)
                if not counted.any():
                    continue
                gap, size = gap[counted], size[counted]
            worst = max(worst, float(gap.max()) / (1.0 + size.max()))
        return worst

    def moment_errors(self):
        """Worst deviations of (prob sum, edge mean, edge covariance).

        Exact trees return values at rounding level; the martingale
        identities of the whole library rest on these being zero.
        """
        err_p = err_mean = err_cov = 0.0
        for k in range(self.steps):
            p = self.edge_p[k]
            db = self.edge_db[k]
            dt = self.dt(k)
            err_p = max(err_p, float(np.abs(p.sum(axis=1) - 1.0).max()))
            mean = (p[..., None] * db).sum(axis=1)
            err_mean = max(err_mean, float(np.abs(mean).max()))
            cov = np.einsum("ne,nei,nej->nij", p, db, db)
            target = dt * np.eye(self.dim)
            err_cov = max(err_cov, float(np.abs(cov - target).max()))
        return err_p, err_mean, err_cov

    def consistency_error(self) -> float:
        """Worst gap between child B values and parent B plus increment."""
        dev = 0.0
        for k in range(self.steps):
            child_b = self.B[k + 1][self.child_idx[k]]
            dev = max(dev, float(np.abs(
                child_b - (self.B[k][:, None, :] + self.edge_db[k])).max()))
        return dev

    def validate(self, tol: float = 1e-12) -> None:
        err_p, err_mean, err_cov = self.moment_errors()
        if max(err_p, err_mean, err_cov) > tol:
            raise ValueError(
                f"tree moments off: prob {err_p:.2e}, mean {err_mean:.2e}, "
                f"cov {err_cov:.2e}"
            )
        if self.consistency_error() > tol:
            raise ValueError("edge increments inconsistent with node B values")

    def node_columns(self) -> dict:
        """Per-node dump columns, keyed by their CSV header.

        ``node_id`` numbers the levels consecutively.  ``parent_id``,
        ``prob`` and ``dB_1..dB_d`` describe the edge into the node from
        its representative parent (-1, 1 and 0 at the root), and
        ``sigma0`` and ``psi_1..psi_J`` hold the leaf payoffs, NaN off
        the leaves.  The representative parent sends the last edge into
        the node in (parent, edge) order.  On implicit trees it is the
        only parent; on lattices, where both an up move from node j - 1
        and a down move from node j reach node j, it is the down move.
        """
        sizes = [self.n_nodes(k) for k in range(self.steps + 1)]
        offsets = np.cumsum([0] + sizes)
        parent, prob = [np.array([-1])], [np.ones(1)]
        db = [np.zeros((1, self.dim))]
        for k in range(self.steps):
            edges = self.child_idx[k].ravel()
            last = np.full(sizes[k + 1], -1)
            np.maximum.at(last, edges, np.arange(edges.size))
            parent.append(offsets[k] + last // self.branching(k))
            prob.append(self.edge_p[k].ravel()[last])
            db.append(self.edge_db[k].reshape(-1, self.dim)[last])
        db = np.concatenate(db)
        leaf = np.full((offsets[-1], 1 + self.n_assets), np.nan)
        leaf[offsets[-2]:] = np.column_stack([self.sigma0, self.psi])
        cols = {"node_id": np.arange(offsets[-1]),
                "parent_id": np.concatenate(parent),
                "t": np.repeat(self.times, sizes),
                "prob": np.concatenate(prob)}
        cols.update((f"dB_{i + 1}", db[:, i]) for i in range(self.dim))
        cols["sigma0"] = leaf[:, 0]
        cols.update((f"psi_{j + 1}", leaf[:, j + 1])
                    for j in range(self.n_assets))
        return cols


def binomial_tree(steps: int, horizon: float, dim: int = 1,
                  sigma0=0.0, psi=("B",)) -> ScenarioTree:
    """Non-recombining product-binomial tree with 2^dim children per node.

    Child e of node i has index i*2^dim + e; bit j of e picks the sign of
    the j-th Brownian component's move of size sqrt(dt).  ``sigma0`` and
    each entry of ``psi`` may be an expression string over B1..Bd, a
    callable on terminal B, a scalar, or a per-leaf table.
    """
    if steps < 1 or dim < 1:
        raise ValueError("steps and dim must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    nc = 1 << dim
    if nc ** steps > 1 << 22:
        raise ValueError("tree too large; use binomial_lattice for fine grids")
    dt = horizon / steps
    step = np.sqrt(dt)
    signs = np.array([[1.0 if (e >> j) & 1 == 0 else -1.0 for j in range(dim)]
                      for e in range(nc)])
    times = np.linspace(0.0, horizon, steps + 1)
    B, edge_db, edge_p = [np.zeros((1, dim))], [], []
    for k in range(steps):
        n = nc ** k
        edge_db.append(np.broadcast_to(step * signs, (n, nc, dim)).copy())
        edge_p.append(np.full((n, nc), 1.0 / nc))
        B.append(np.repeat(B[-1], nc, axis=0) + np.tile(step * signs, (n, 1)))
    leaves = B[-1]
    if isinstance(psi, (str, int, float)) or callable(psi):
        psi = (psi,)
    psi_cols = np.stack([_as_payoff(p, leaves) for p in psi], axis=1)
    windows = [RowWindows(nc, tuple(range(nc)))] * steps
    return ScenarioTree(times=times, B=B, windows=windows, edge_db=edge_db,
                        edge_p=edge_p, sigma0=_as_payoff(sigma0, leaves),
                        psi=psi_cols, implicit=True)


def binomial_lattice(steps: int, horizon: float,
                     sigma0=0.0, psi=("B",)) -> ScenarioTree:
    """Recombining one-dimensional binomial lattice.

    Level k holds k+1 nodes with B = (2j - k) * sqrt(dt); node j moves to
    j+1 (up) or j (down) with probability 1/2 each.  Node count grows
    quadratically in ``steps``, which makes fine grids cheap, but states
    that depend on the path (not just on the node) cannot live on it.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    dt = horizon / steps
    step = np.sqrt(dt)
    times = np.linspace(0.0, horizon, steps + 1)
    B, edge_db, edge_p = [], [], []
    for k in range(steps + 1):
        j = np.arange(k + 1)
        B.append(((2 * j - k) * step)[:, None])
        if k < steps:
            edge_db.append(np.broadcast_to(np.array([[step], [-step]]),
                                           (k + 1, 2, 1)).copy())
            edge_p.append(np.full((k + 1, 2), 0.5))
    leaves = B[-1]
    if isinstance(psi, (str, int, float)) or callable(psi):
        psi = (psi,)
    psi_cols = np.stack([_as_payoff(p, leaves) for p in psi], axis=1)
    # node j moves up to j + 1 and down to j
    windows = [RowWindows(1, (1, 0))] * steps
    return ScenarioTree(times=times, B=B, windows=windows, edge_db=edge_db,
                        edge_p=edge_p, sigma0=_as_payoff(sigma0, leaves),
                        psi=psi_cols, implicit=False)

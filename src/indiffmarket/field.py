"""Primal stochastic field F and its derivatives on a scenario tree.

F(v, x, q, node) is the conditional expectation, given the node, of the
representative utility evaluated at the terminal endowment sigma0 + x +
q . psi.  On a finite tree that is one backward sweep: fill the leaves
with r and its analytic derivatives, then pull them back one level at a
time with the edge probabilities.  All derivatives of F satisfy the
same one-step conditional-expectation identity as F itself, which the
tests exercise to machine precision.

A sweep packs the components it carries (value, dv, dvv, ...) into one
C-contiguous (nodes, K) block per level, each component a slice of
columns, so a level costs one ``ScenarioTree.expect`` call, which reads
the children as row windows of the block below; ``Sweep`` hands out
per-component views of the blocks.  The columns do not mix, so a
component's bits do not depend on what else is swept with it.

The same sweep also serves batched queries: states may differ per leaf,
so assigning each leaf the state of its level-k ancestor evaluates F at
every level-k node in a single pass.  On binomial trees whose payoffs
depend on terminal B only, a level-k node's subtree recombines: its
law depends on a path only through the per-component down-move counts,
so the sweep runs on (N-k+1)^d leaves per node instead of 2^(d(N-k))
(``ScenarioTree.recombine``).  Lattices, payoff tables that are not a
function of the counts and trees with node-dependent probabilities keep
the leaf sweep, which is also the oracle the recombined one is tested
against.  A recombined level is spread back to node order only when it
is read: a saddle Newton step reads one level of three components.

Filling the leaves costs one ``allocate`` per sweep, except that each
evaluator keeps its last leaf state and split: a saddle solve sweeps
the same state twice whenever a line-search trial is accepted at every
node, and the second sweep reuses the split bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .representative import PrimalPoint, allocate, split_tolerances
from .tree import ScenarioTree
from .utilities import MakerPanel

__all__ = ["FieldEvaluator", "FieldValue", "Sweep", "increment_slope"]

_FIRST = ("value", "dv", "dx", "dq")
_SECOND = ("dvv", "dvx", "dvq", "dxx", "dxq", "dqq")
_CACHE_DIGITS = 12


class Sweep:
    """Backward-induction result: one packed (nodes, K) block per level.

    ``blocks`` holds the per-level blocks and ``columns`` maps each
    component name to its column slice and its per-node shape; ``at``
    and ``comps`` hand out views of the blocks, shaped (nodes, *shape).
    A sweep of recombined subtrees holds its levels in the order of the
    small tree and is given the ``spread`` that maps level ``anchor + s``
    of it back to node order: ``at`` spreads only the levels it reads,
    once per component, and ``comps`` spreads the rest on first access;
    levels before ``anchor`` are None.
    """

    def __init__(self, blocks: list, columns: dict, spread=None,
                 anchor: int = 0):
        self.blocks = blocks
        self.columns = columns
        self._spread = spread
        self._anchor = anchor
        self._comps = None
        self._spreads = {}

    @property
    def names(self):
        """Names of the swept components."""
        return self.columns.keys()

    def _view(self, name: str, block):
        cols, shape = self.columns[name]
        return block[:, cols].reshape(block.shape[:1] + shape)

    def at(self, name: str, level: int, index=None):
        if self._spread is None:
            arr = self._view(name, self.blocks[level])
        elif level < self._anchor:
            arr = None
        else:
            arr = self._spreads.get((name, level))
            if arr is None:
                depth = level - self._anchor
                arr = self._spreads[name, level] = self._spread(
                    depth, self._view(name, self.blocks[depth]))
        return arr if index is None else arr[index]

    @property
    def comps(self) -> dict:
        """Each component's list of per-level node arrays."""
        if self._comps is None:
            steps = self._anchor + len(self.blocks)
            self._comps = {name: [self.at(name, k) for k in range(steps)]
                           for name in self.columns}
        return self._comps


@dataclass
class FieldValue:
    """F and derivatives at one (point, node)."""

    value: float
    dv: np.ndarray
    dx: float
    dq: np.ndarray
    dvv: np.ndarray = None
    dvx: np.ndarray = None
    dvq: np.ndarray = None
    dxx: float = None
    dxq: np.ndarray = None
    dqq: np.ndarray = None


def increment_slope(tree: ScenarioTree, level: int, now, nxt):
    """Slope (1/dt) sum_e p_e dB_e dX_e of one-step increments along dB.

    ``now`` and ``nxt`` hold a process X per node of ``level`` and
    level+1, with any trailing shape S.  The slope at each node of
    ``level`` is the weighted least-squares fit of the increments dX_e
    on the Brownian increments dB_e, whose normal matrix moment matching
    collapses to dt times the identity.  Returns the slope, shape
    (n, *S, d), and the increments dX, shape (n, nc, *S).
    """
    dX = nxt[tree.child_idx[level]] - now[:, None]
    p, db = tree.edge_p[level], tree.edge_db[level]
    flat = dX.reshape(dX.shape[:2] + (-1,))
    slope = np.einsum("ne,nem,nei->nmi", p, flat, db) / tree.dt(level)
    return slope.reshape(dX.shape[:1] + dX.shape[2:] + db.shape[-1:]), dX


class FieldEvaluator:
    """Evaluates F, its gradient and Hessian, and the martingale integrand.

    Memoizes whole sweeps per point rounded to ``_CACHE_DIGITS``, and
    the last leaf allocation: a leaf state (v, total) equal bit for bit
    to the one before it reuses that split (``_allocate``).  Hessian
    components are produced by the same backward recursion
    applied to analytic second derivatives of r, so no finite
    differencing enters the reference path.
    """

    def __init__(self, panel: MakerPanel, tree: ScenarioTree):
        self.panel = panel
        self.tree = tree
        self._cache = {}
        self._recombinable = True
        self._small = None
        self._last_split = None

    # -- terminal data -------------------------------------------------

    def _allocate(self, v_leaf, total):
        """``allocate`` at the leaves with a one-entry memo.

        The last leaf state allocated and its (y, pi) are kept; a state
        of the same shape and the same bits returns them again.  The
        repeats come from saddle solves: a line-search trial that every
        node accepts is the next Newton sweep's state, and
        ``conjugate_G`` sweeps the converged state once more.  The kept
        arrays are read-only, so an in-place write fails loudly.
        """
        key = (v_leaf.shape, v_leaf.tobytes(), total.tobytes())
        if self._last_split is not None and self._last_split[0] == key:
            return self._last_split[1]
        y, pi = allocate(self.panel, v_leaf, total)
        y.flags.writeable = False
        pi.flags.writeable = False
        self._last_split = (key, (y, pi))
        return y, pi

    def _terminal(self, v_leaf, x_leaf, q_leaf, order, names=None):
        """Leaf values of r and its derivatives, packed: returns the
        (n_leaves, K) block and its ``Sweep`` columns.  Only ``names``
        (by default every component of ``order``) are computed, each
        written into the block as it is made."""
        tree, panel = self.tree, self.panel
        M, J = panel.size, tree.n_assets
        if names is None:
            names = _FIRST + _SECOND if order >= 2 else _FIRST
        total = tree.sigma0 + x_leaf + (tree.psi * q_leaf).sum(axis=1)
        y, pi = self._allocate(v_leaf, total)
        if order >= 2:
            t, tsum = split_tolerances(panel, pi)
        if "value" in names or "dv" in names:
            uvals = np.stack([spec.value(pi[:, m])
                              for m, spec in enumerate(panel.makers)], axis=1)
        terms = {
            "value": lambda: (v_leaf * uvals).sum(axis=1),
            "dv": lambda: uvals,
            "dx": lambda: y,
            "dq": lambda: tree.psi * y[:, None],
        }
        if order >= 2:
            rxx = -y / tsum
            tv = t / v_leaf
            rvx = y[:, None] * tv / tsum[:, None]

            def dvv():
                out = -np.einsum("nl,nm,n->nlm", tv, tv, y / tsum)
                out[:, np.arange(M), np.arange(M)] += y[:, None] * t / v_leaf ** 2
                return out

            terms.update(
                dxx=lambda: rxx,
                dxq=lambda: tree.psi * rxx[:, None],
                dqq=lambda: np.einsum("ni,nj,n->nij", tree.psi, tree.psi, rxx),
                dvx=lambda: rvx,
                dvq=lambda: np.einsum("nm,nj->nmj", rvx, tree.psi),
                dvv=dvv)
        shapes = {"value": (), "dv": (M,), "dx": (), "dq": (J,),
                  "dvv": (M, M), "dvx": (M,), "dvq": (M, J), "dxx": (),
                  "dxq": (J,), "dqq": (J, J)}
        columns, start = {}, 0
        for name in names:
            width = math.prod(shapes[name])
            columns[name] = (slice(start, start + width), shapes[name])
            start += width
        block = np.empty((len(total), start))
        for name in names:
            block[:, columns[name][0]] = terms[name]().reshape(len(total), -1)
        return block, columns

    # -- sweeps ----------------------------------------------------------

    def sweep_leaf_states(self, v_leaf, x_leaf, q_leaf, order: int = 1,
                          names=None) -> Sweep:
        """Backward sweep with an explicit state at every leaf.

        ``names`` restricts the swept components; by default all
        components of the requested order are carried.
        """
        tree = self.tree
        v_leaf = np.asarray(v_leaf, dtype=float)
        x_leaf = np.asarray(x_leaf, dtype=float)
        q_leaf = np.asarray(q_leaf, dtype=float)
        block, columns = self._terminal(v_leaf, x_leaf, q_leaf, order, names)
        blocks = [None] * tree.steps + [block]
        for k in range(tree.steps - 1, -1, -1):
            blocks[k] = tree.expect(k, blocks[k + 1])
        return Sweep(blocks, columns)

    def sweep_states(self, level: int, v_nodes, x_nodes, q_nodes,
                     order: int = 1, names=None) -> Sweep:
        """Sweep with a state per node of one level, pushed to the leaves.

        Conditional expectations never mix leaves of different ancestors,
        so the arrays at ``level`` are each node's own F values.  When
        ``ScenarioTree.recombine`` accepts the level, the sweep runs on
        the recombined subtrees, one leaf per node and down-move count
        class, and a level is spread back to node order when it is read
        (see ``Sweep``); levels 0 to level-1, which mix the states of
        several nodes and which no caller reads, are then left None.
        """
        v_nodes = np.asarray(v_nodes, dtype=float)
        x_nodes = np.asarray(x_nodes, dtype=float)
        q_nodes = np.asarray(q_nodes, dtype=float)
        small = self._recombined(level)
        if small is not None:
            return self._sweep_recombined(level, small, v_nodes, x_nodes,
                                          q_nodes, order, names)
        owner = self.tree.leaf_owner(level)
        return self.sweep_leaf_states(v_nodes[owner], x_nodes[owner],
                                      q_nodes[owner], order, names)

    def sweep_point(self, point: PrimalPoint, order: int = 1,
                    names=None) -> Sweep:
        """Sweep for one constant state: ``sweep_states`` at the root,
        memoized per point rounded to ``_CACHE_DIGITS``."""
        d = _CACHE_DIGITS
        key = (tuple(np.round(point.v, d)), round(float(point.x), d),
               tuple(np.round(point.q, d)))
        hit = self._cache.get(key)
        need = names if names is not None else (
            _FIRST + _SECOND if order >= 2 else _FIRST)
        if hit is not None and all(nm in hit.names for nm in need):
            return hit
        sweep = self.sweep_states(0, np.asarray(point.v, dtype=float)[None],
                                  np.full(1, float(point.x)),
                                  np.asarray(point.q, dtype=float)[None],
                                  order, names)
        self._cache[key] = sweep
        return sweep

    def _recombined(self, level: int):
        """Evaluator on ``tree.recombine(level)``, or None for a leaf sweep.

        Only the recombined tree of the last level asked is kept, and a
        leaf sweep drops it; a tree that fails the checks is remembered
        and never asked again.
        """
        if not self._recombinable or self.tree.steps - level < 2:
            self._small = None
            return None
        if self._small is None or self._small[0] != level:
            small = self.tree.recombine(level)
            if small is None:
                self._recombinable = False
                return None
            self._small = (level, FieldEvaluator(self.panel, small))
        return self._small[1]

    def _sweep_recombined(self, level, small, v_nodes, x_nodes, q_nodes,
                          order, names) -> Sweep:
        """Leaf sweep of ``small``, spread back to the levels of this tree
        as they are read."""
        per = small.tree.n_leaves // self.tree.n_nodes(level)
        swept = small.sweep_leaf_states(np.repeat(v_nodes, per, axis=0),
                                        np.repeat(x_nodes, per),
                                        np.repeat(q_nodes, per, axis=0),
                                        order, names)
        spread = functools.partial(self.tree.spread_recombined, level)
        return Sweep(swept.blocks, swept.columns, spread=spread, anchor=level)

    # -- point queries ---------------------------------------------------

    def field(self, point: PrimalPoint, node=(0, 0), order: int = 1) -> FieldValue:
        """F and its derivatives at a node (default the root)."""
        level, idx = node
        sweep = self.sweep_point(point, order)
        out = {name: sweep.at(name, level, idx) for name in _FIRST}
        if order >= 2:
            out.update({name: sweep.at(name, level, idx) for name in _SECOND})
        out["value"] = float(out["value"])
        out["dx"] = float(out["dx"])
        if "dxx" in out:
            out["dxx"] = float(out["dxx"])
        return FieldValue(**out)

    def integrand(self, point: PrimalPoint, node):
        """Martingale integrand H and its v-derivative at a node.

        H is the increment slope of F along the Brownian increments,
        H = (1/dt) sum_e p_e dB_e dF_e, and dHdv that of F_v.  Returns
        (H, dHdv, residual) where the residual is the worst edgewise gap
        |dF_e - H . dB_e|, zero exactly when d+1 or fewer distinct edges
        span the step.
        """
        level, idx = node
        tree = self.tree
        if level >= tree.steps:
            raise ValueError("integrand is defined on non-terminal nodes")
        sweep = self.sweep_point(point, order=1)
        H, dF = increment_slope(tree, level, sweep.at("value", level),
                                sweep.at("value", level + 1))
        dHdv, _ = increment_slope(tree, level, sweep.at("dv", level),
                                  sweep.at("dv", level + 1))
        resid = np.abs(dF - np.einsum("ni,nei->ne", H, tree.edge_db[level]))
        resid = resid.max(axis=1)[idx]
        return H[idx], dHdv[idx], float(resid) if np.ndim(idx) == 0 else resid

    def marginal_price(self, point: PrimalPoint, node=(0, 0)):
        """Marginal trade prices of the assets at a node.

        Computed two ways: the gradient ratio dF/dq over dF/dx, and the
        expectation of psi under the node-conditional density built from
        the first maker's marginal utility at the optimal split.  Returns
        (price, gap) with the gradient-route price and the worst
        disagreement between the routes.
        """
        level, idx = node
        sweep = self.sweep_point(point, order=1)
        grad_price = sweep.at("dq", level, idx) / sweep.at("dx", level, idx)

        n = self.tree.n_leaves
        v_leaf = np.broadcast_to(point.v, (n, self.panel.size))
        total = (self.tree.sigma0 + float(point.x)
                 + self.tree.psi @ np.asarray(point.q, dtype=float))
        _, pi = self._allocate(v_leaf, total)
        dens = v_leaf[:, 0] * self.panel.makers[0].marginal(pi[:, 0])
        block = np.column_stack([self.tree.psi * dens[:, None], dens])
        for k in range(self.tree.steps - 1, level - 1, -1):
            block = self.tree.expect(k, block)
        num, den = block[:, :-1], block[:, -1]
        dens_price = num[idx] / den[idx]
        gap = float(np.abs(dens_price - grad_price).max())
        return grad_price, gap

    def martingale_deviation(self, sweep: Sweep) -> float:
        """Worst one-step conditional-expectation gap over all components,
        nodes and levels; construction-exact up to floating point."""
        return max(self.tree.martingale_gap(levels)
                   for levels in sweep.comps.values())

"""Primal stochastic field F and its derivatives on a scenario tree.

F(v, x, q, node) is the conditional expectation, given the node, of the
representative utility evaluated at the terminal endowment sigma0 + x +
q . psi.  On a finite tree that is one backward sweep: fill the leaves
with r and its analytic derivatives, then pull them back one level at a
time with the edge probabilities.  All derivatives of F satisfy the
same one-step conditional-expectation identity as F itself, which the
tests exercise to machine precision (``martingale_deviation``, one
``ScenarioTree.martingale_gap`` over every component swept).

A sweep packs the components it carries (value, dv, dvv, ...) into one
C-contiguous (nodes, K) block per level, each component a slice of
columns, so a level costs one ``ScenarioTree.expect`` call, which reads
the children as row windows of the block below; ``Sweep`` hands out
per-component views of the blocks.  The columns do not mix, so a
component's bits do not depend on what else is swept with it.

The same sweep also serves batched queries: a state per node of a
level evaluates F at every node of it in one pass over the forest below
those nodes (``FieldEvaluator._forest``).  On binomial trees whose
payoffs depend on terminal B only, a level-k node's subtree recombines:
its law depends on a path only through the per-component down-move
counts, so the forest is ``ScenarioTree.recombine``'s, (N-k+1)^d leaves
per node instead of 2^(d(N-k)), spread back to node order only when a
level is read.  Lattices, payoff tables that are not a function of the
counts and trees with node-dependent probabilities sweep the nodes' own
leaves (``ScenarioTree.subtrees``), the oracle the recombined sweep is
tested against.

A node-subset sweep (``sweep_nodes``) runs on the forest of some nodes
of a level only.  Nodes whose subtrees carry equal leaf payoffs and
edge probabilities, bit for bit, share a ``subtree_classes`` class, so
equal states at two nodes of one class give equal values.  A node's
values depend on the other leaves swept with it only through
``allocate``, which stops on one test over all its rows and so may
move their last bits; a sweep of one node per distinct (class, state)
of a level allocates the same distinct leaf states as the whole level
and keeps its bits.  That is how a saddle solve sweeps its distinct
problems.

Filling the leaves costs one ``allocate`` per sweep, except that each
evaluator keeps its last leaf state and split, which a sweep of the
same state again reuses bit for bit (``_allocate``); sweeps of several
forests can share one call, a row group each (``sweep_together``),
which keeps each split's bits.  Then one
evaluation of each maker's terms, which gives its utility and, at
order 2, its risk tolerance together (``UtilitySpec.value``).  Each
component is computed into its columns of the leaf block, whose
layout is made once per (components, M, J), with no packing pass
after; only the makers' utilities and dvv go through a contiguous
array first, which on many leaves costs less than strided writes.  Point sweeps
(``sweep_point``) are memoized per point, and the points one call
lacks are swept side by side, one ``expect`` per level for all of
them (``_sweep_points``).  A node read of a recombined sweep (``at``
with an index) takes the node's class row, and spreads no level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .representative import (AllocationError, PrimalPoint, allocate,
                             split_tolerances)
from .tree import ScenarioTree
from .utilities import MakerPanel

__all__ = ["FieldEvaluator", "FieldValue", "Sweep", "distinct_rows",
           "increment_slope"]

_FIRST = ("value", "dv", "dx", "dq")
_SECOND = ("dvv", "dvx", "dvq", "dxx", "dxq", "dqq")


def _component(block, cols, shape):
    """View of one component's columns ``cols`` of a packed block,
    shaped (rows, *shape); a plain index or slice where it needs no
    reshape."""
    if not shape:
        return block[:, cols.start]
    if len(shape) == 1:
        return block[:, cols]
    return block[:, cols].reshape(block.shape[:1] + shape)


@functools.lru_cache(maxsize=None)
def _layout(names: tuple, M: int, J: int):
    """``Sweep`` columns of the components ``names`` for M makers and J
    assets, packed in that order, and the block width; made once per
    layout and shared, so never written to.  An unknown name is a
    ValueError."""
    shapes = {"value": (), "dv": (M,), "dx": (), "dq": (J,),
              "dvv": (M, M), "dvx": (M,), "dvq": (M, J), "dxx": (),
              "dxq": (J,), "dqq": (J, J)}
    columns, start = {}, 0
    for name in names:
        if name not in shapes:
            raise ValueError(f"unknown field component {name!r}")
        width = math.prod(shapes[name])
        columns[name] = (slice(start, start + width), shapes[name])
        start += width
    return columns, start


class Sweep:
    """Backward-induction result: one packed (nodes, K) block per level.

    ``blocks`` holds the per-level blocks and ``columns`` maps each
    component name to its column slice and its per-node shape; ``at``
    and ``comps`` hand out views of the blocks, shaped (nodes, *shape),
    in the node order of ``tree``, on which ``slope`` fits increments.
    A sweep of the forest below the nodes of level ``anchor`` holds
    level ``anchor + s`` as its block s, and levels before ``anchor``
    are None.  A recombined forest holds its levels in its own order
    and is given the ``spread`` that maps its level s back to node
    order: ``at`` spreads only the levels it reads, once per component,
    or, asked for some nodes, reads their class rows alone; ``comps``
    spreads the rest on first access.
    """

    def __init__(self, tree: ScenarioTree, blocks: list, columns: dict,
                 spread=None, anchor: int = 0):
        self.tree = tree
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
        return _component(block, *self.columns[name])

    def at(self, name: str, level: int, index=None):
        depth = level - self._anchor
        if depth < 0:
            arr = None
        elif self._spread is None:
            arr = self._view(name, self.blocks[depth])
        elif index is not None:
            # the rows of the nodes asked for, without spreading the level
            return self._spread(depth, self._view(name, self.blocks[depth]),
                                index)
        else:
            arr = self._spreads.get((name, level))
            if arr is None:
                arr = self._spreads[name, level] = self._spread(
                    depth, self._view(name, self.blocks[depth]))
        return arr if index is None else arr[index]

    def slope(self, name: str, level: int):
        """``increment_slope`` of component ``name`` on ``tree`` from
        ``level`` to level + 1: (slope, increments)."""
        return increment_slope(self.tree, level, self.at(name, level),
                               self.at(name, level + 1))

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
    children = tree.windows[level].children(tree.n_nodes(level))
    dX = nxt[children] - now[:, None]
    p, db = tree.edge_p[level], tree.edge_db[level]
    flat = dX.reshape(dX.shape[:2] + (-1,))
    slope = np.einsum("ne,nem,nei->nmi", p, flat, db) / tree.dt(level)
    return slope.reshape(dX.shape[:1] + dX.shape[2:] + db.shape[-1:]), dX


class FieldEvaluator:
    """Evaluates F, its gradient and Hessian, and the martingale integrand.

    Memoizes whole sweeps per point, keyed by the bits of (v, x, q), the
    forests of the last level swept (``_forest``), and the last leaf
    allocation: a leaf state (v, total) equal bit for bit to the one
    before it reuses that split (``_allocate``).  Hessian components are
    produced by the same backward recursion applied to analytic second
    derivatives of r, so no finite differencing enters the reference
    path.
    """

    def __init__(self, panel: MakerPanel, tree: ScenarioTree):
        self.panel = panel
        self.tree = tree
        self._cache = {}
        self._forests = (None, {})
        self._root_forest = None
        self._last_split = None
        self._classes = {}

    # -- terminal data -------------------------------------------------

    def _allocate(self, v_leaf, total):
        """``allocate`` at the leaves with a one-entry memo.

        The last leaf state allocated and its (y, pi) are kept; a state
        of the same shape and the same bits returns them again.  The
        repeats come from saddle solves: a Newton iterate that every
        problem reached by a halved line-search step is the state of
        that last trial (a full step's trial sweep is reused whole, see
        ``conjugate._newton``), and ``conjugate_G`` sweeps the converged
        state once more for F_x.  The kept arrays are read-only, so an
        in-place write fails loudly.
        """
        key = _split_key(v_leaf, total)
        split = self._kept_split(key)
        if split is None:
            split = self._keep_split(key, *allocate(self.panel, v_leaf, total))
        return split

    def _kept_split(self, key):
        """The kept (y, pi) of the leaf state ``key``, or None."""
        if self._last_split is not None and self._last_split[0] == key:
            return self._last_split[1]
        return None

    def _keep_split(self, key, y, pi):
        """Keep (y, pi), read-only, as the split of ``key``."""
        y.flags.writeable = False
        pi.flags.writeable = False
        self._last_split = (key, (y, pi))
        return y, pi

    def _leaf_total(self, x_leaf, q_leaf):
        """Terminal wealth sigma0 + x + q . psi at the leaves."""
        tree = self.tree
        return tree.sigma0 + x_leaf + (tree.psi * q_leaf).sum(axis=1)

    def _terminal(self, v_leaf, x_leaf, q_leaf, order, names=None,
                  split=None):
        """Leaf values of r and its derivatives, packed: returns the
        (n_leaves, K) block and its ``Sweep`` columns.  Only ``names``
        (by default every component of ``order``) are computed, each
        into its columns of the block, with the second-order leaf work
        when one of them is second-order; each maker's terms are
        evaluated once, for its utility and its risk tolerance alike.  ``split``, the leaves' (y, pi) when known, spares the
        allocation."""
        tree, panel = self.tree, self.panel
        M = panel.size
        if names is None:
            names = _FIRST + _SECOND if order >= 2 else _FIRST
        columns, width = _layout(tuple(names), M, tree.n_assets)
        second = not columns.keys().isdisjoint(_SECOND)
        y, pi = (self._allocate(v_leaf, self._leaf_total(x_leaf, q_leaf))
                 if split is None else split)
        n = len(y)
        block = np.empty((n, width))
        out = {name: _component(block, cols, shape)
               for name, (cols, shape) in columns.items()}
        # the makers' utilities go to a contiguous array first: written
        # straight into the block's strided columns they cost more on
        # many leaves than the copy
        uvals = (np.empty((n, M)) if "value" in out or "dv" in out
                 else None)
        if second:
            t, tsum = split_tolerances(panel, pi, uvals)
        elif uvals is not None:
            for m, spec in enumerate(panel.makers):
                spec.value(pi[:, m], uvals[:, m])
        if "dv" in out:
            out["dv"][...] = uvals
        if "value" in out:
            out["value"][...] = (v_leaf * uvals).sum(axis=1)
        if "dx" in out:
            out["dx"][...] = y
        if "dq" in out:
            np.multiply(tree.psi, y[:, None], out=out["dq"])
        if not second:
            return block, columns
        rxx = -y / tsum
        tv = t / v_leaf
        rvx = out.get("dvx")
        if rvx is None:
            rvx = np.empty((n, M))
        np.multiply(y[:, None], tv, out=rvx)
        rvx /= tsum[:, None]
        if "dxx" in out:
            out["dxx"][...] = rxx
        if "dxq" in out:
            np.multiply(tree.psi, rxx[:, None], out=out["dxq"])
        if "dqq" in out:
            np.einsum("ni,nj,n->nij", tree.psi, tree.psi, rxx,
                      out=out["dqq"])
        if "dvq" in out:
            np.einsum("nm,nj->nmj", rvx, tree.psi, out=out["dvq"])
        if "dvv" in out:
            # einsum into the block's strided columns is slow on many
            # leaves: it fills a contiguous array, whose negation the
            # block receives, the diagonal of each (M, M) matrix after
            dvv = np.einsum("nl,nm,n->nlm", tv, tv, y / tsum)
            np.negative(dvv, out=out["dvv"])
            cols = columns["dvv"][0]
            block[:, cols.start:cols.stop:M + 1] += y[:, None] * t / v_leaf ** 2
        return block, columns

    # -- sweeps ----------------------------------------------------------

    def sweep_leaf_states(self, v_leaf, x_leaf, q_leaf, order: int = 1,
                          names=None, split=None) -> Sweep:
        """Backward sweep with an explicit state at every leaf.

        ``names`` picks the swept components, of either order; without
        it ``order`` does, all components up to that order.  ``split``,
        the (y, pi) that ``allocate`` gives these leaf states, when
        known (``sweep_together``), spares the allocation.
        """
        v_leaf = np.asarray(v_leaf, dtype=float)
        x_leaf = np.asarray(x_leaf, dtype=float)
        q_leaf = np.asarray(q_leaf, dtype=float)
        block, columns = self._terminal(v_leaf, x_leaf, q_leaf, order, names,
                                        split)
        return Sweep(self.tree, self._pull_back(block), columns)

    def _pull_back(self, block) -> list:
        """Per-level blocks of the backward sweep from the leaf block
        ``block``, one ``expect`` per level."""
        tree = self.tree
        blocks = [None] * tree.steps + [block]
        for k in range(tree.steps - 1, -1, -1):
            blocks[k] = tree.expect(k, blocks[k + 1])
        return blocks

    def sweep_states(self, level: int, v_nodes, x_nodes, q_nodes,
                     order: int = 1, names=None) -> Sweep:
        """Sweep with a state per node of one level, pushed to the leaves.

        Conditional expectations never mix leaves of different ancestors,
        so the arrays at ``level`` are each node's own F values.  The
        sweep runs on the forest of the level (``_forest``), whose levels
        are spread back to node order when they are read if it is
        recombined (see ``Sweep``); levels 0 to level-1, which would mix
        the states of several nodes and which no caller reads, are None.
        """
        ev, spread = self._forest(level)
        swept = ev._sweep_roots(v_nodes, x_nodes, q_nodes, order, names)
        return Sweep(self.tree, swept.blocks, swept.columns, spread, level)

    def sweep_point(self, point: PrimalPoint, order: int = 1,
                    names=None) -> Sweep:
        """Sweep for one constant state: ``sweep_states`` at the root,
        memoized per point by the bits of (v, x, q)."""
        return self._sweep_points([point], order, names)[0]

    def _sweep_points(self, points, order: int = 1, names=None) -> list:
        """``sweep_point`` of each of ``points``, from one backward pass.

        The points that the memo lacks (or holds without a component
        asked for) are swept together on the forest of level 0
        (``_forest``): one ``_terminal`` per point, in order, so each
        ``allocate`` gets the rows a sweep of that point alone gives it;
        their leaf blocks side by side; and one ``expect`` per level.
        Columns do not mix, so each point's ``Sweep``, which reads its
        own columns of the shared blocks, has the bits of a sweep of its
        own; each is filed in the memo.
        """
        need = names if names is not None else (
            _FIRST + _SECOND if order >= 2 else _FIRST)
        keys = [(p.v.tobytes(), np.float64(p.x).tobytes(), p.q.tobytes())
                for p in points]
        todo = {}
        for key, point in zip(keys, points):
            hit = self._cache.get(key)
            if hit is None or not all(nm in hit.names for nm in need):
                todo.setdefault(key, point)
        if todo:
            ev, spread = self._forest(0)
            leaves, columns, width = [], [], 0
            for p in todo.values():
                block, cols = ev._terminal(
                    *ev._root_leaves(p.v[None], np.full(1, float(p.x)),
                                     p.q[None]), order, names)
                columns.append({name: (slice(c.start + width, c.stop + width),
                                       shape)
                                for name, (c, shape) in cols.items()})
                leaves.append(block)
                width += block.shape[1]
            blocks = ev._pull_back(leaves[0] if len(leaves) == 1
                                   else np.concatenate(leaves, axis=1))
            for key, cols in zip(todo, columns):
                self._cache[key] = Sweep(self.tree, blocks, cols, spread)
        return [self._cache[key] for key in keys]

    def _forest(self, level: int, nodes=None):
        """(evaluator, spread) of the forest below ``nodes`` of ``level``
        (all of them when None), each node a root over a block of leaves:
        ``tree.recombine(level, nodes)`` with ``tree.spread_recombined``
        at the level when the level recombines, else this evaluator at
        level 0 and the nodes' own ``tree.subtrees`` below it, with
        spread None.  The last level's forests are kept per node set,
        each with its own leaf-split memo, and so is the recombined
        whole of level 0 (``sweep_point``'s), beside them, so probes
        that go from the root to a level and back build it once; every
        node of the level in order is the whole level's set, so its
        sweeps share the memo of ``sweep_states``.
        """
        tree = self.tree
        if nodes is not None:
            nodes = np.asarray(nodes, dtype=np.intp)
            # only a set as large as the level can be the whole level
            if (nodes.size == tree.n_nodes(level)
                    and np.array_equal(nodes, np.arange(nodes.size))):
                nodes = None
        if level == 0 and nodes is None:
            if self._root_forest is None:
                small = tree.recombine(0)
                if small is None:
                    # not kept: the evaluator would hold itself in a cycle
                    return self, None
                self._root_forest = (
                    FieldEvaluator(self.panel, small),
                    functools.partial(tree.spread_recombined, 0))
            return self._root_forest
        if self._forests[0] != level:
            self._forests = (level, {})
        forests = self._forests[1]
        key = None if nodes is None else nodes.tobytes()
        if key not in forests:
            small = tree.recombine(level, nodes)
            if small is not None:
                forests[key] = (FieldEvaluator(self.panel, small),
                                functools.partial(tree.spread_recombined,
                                                  level))
            else:
                forests[key] = (FieldEvaluator(
                    self.panel, tree.subtrees(level, nodes)), None)
        return forests[key]

    def _root_leaves(self, v_nodes, x_nodes, q_nodes):
        """Leaf states (v, x, q) with the state of each level-0 node at
        every leaf below it, on a tree (or forest) whose leaves are
        grouped by root."""
        per = self.tree.n_leaves // self.tree.n_nodes(0)
        return (np.repeat(v_nodes, per, axis=0), np.repeat(x_nodes, per),
                np.repeat(q_nodes, per, axis=0))

    def _sweep_roots(self, v_nodes, x_nodes, q_nodes, order, names) -> Sweep:
        """Leaf sweep at the leaf states of ``_root_leaves``."""
        return self.sweep_leaf_states(
            *self._root_leaves(v_nodes, x_nodes, q_nodes), order, names)

    # -- node subsets ----------------------------------------------------

    def subtree_classes(self, level: int) -> np.ndarray:
        """Class of each node of ``level``: nodes share a class when the
        subtrees that a ``sweep_nodes`` call sweeps for them carry equal
        leaf sigma0 and psi rows and equal edge probabilities, bit for
        bit, so that equal states give them equal sweeps.  Computed once
        per level."""
        cls = self._classes.get(level)
        if cls is None:
            tree = self._forest(level)[0].tree
            n = tree.n_nodes(0)
            rows = [np.column_stack([tree.sigma0, tree.psi]).reshape(n, -1)]
            rows += [p.reshape(n, -1) for p in tree.edge_p]
            cls = self._classes[level] = distinct_rows(
                np.concatenate(rows, axis=1))[1]
        return cls

    def sweep_nodes(self, level: int, nodes, v_nodes, x_nodes, q_nodes,
                    order: int = 1, names=None) -> Sweep:
        """Sweep of the forest of ``nodes`` of ``level`` only
        (``_forest``), with one state per node given.

        Level 0 of the result holds the nodes in the order given, with
        their own F values; its deeper levels are in forest order.
        """
        ev = self._forest(level, nodes)[0]
        return ev._sweep_roots(v_nodes, x_nodes, q_nodes, order, names)

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
        H, dF = sweep.slope("value", level)
        dHdv, _ = sweep.slope("dv", level)
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
        block = self._pull_back(
            np.column_stack([self.tree.psi * dens[:, None], dens]))[level]
        num, den = block[:, :-1], block[:, -1]
        dens_price = num[idx] / den[idx]
        gap = float(np.abs(dens_price - grad_price).max())
        return grad_price, gap

    def martingale_deviation(self, sweep: Sweep) -> float:
        """Worst one-step conditional-expectation gap over all components,
        nodes and levels; construction-exact up to floating point.

        ``ScenarioTree.martingale_gap`` of the sweep's components
        (``Sweep.comps``): one ``expect`` per level for all of them, each
        gap scaled by 1 + its own component's largest magnitude there.
        """
        return self.tree.martingale_gap(*sweep.comps.values())


def _split_key(v_leaf, total):
    """Memo key of a leaf state: its shape and bits."""
    return (v_leaf.shape, v_leaf.tobytes(), total.tobytes())


def sweep_together(requests):
    """Root sweeps (``FieldEvaluator._sweep_roots``) of several forests
    of one panel, with the leaf splits they lack from one ``allocate``.

    Each request is (forest, v_nodes, x_nodes, q_nodes, order, names).
    The splits that the forests' one-entry memos lack are allocated in
    one call with a row group per request (``allocate``'s ``groups``),
    which gives each the bits of its own call; each is kept in its
    forest's memo and handed to its sweep.  A lone miss is allocated
    alone.  When the grouped call fails, the splits are allocated one
    at a time, in order, so an AllocationError is the first failing
    request's own.  A generator: it yields the sweeps in order, one at
    a time, so a caller that is done with each before the next holds
    one sweep's levels at a time, and raises a request's
    AllocationError in place of its sweep.
    """
    leaves = []
    for forest, v_nodes, x_nodes, q_nodes, _, _ in requests:
        v_leaf, x_leaf, q_leaf = forest._root_leaves(v_nodes, x_nodes, q_nodes)
        total = forest._leaf_total(x_leaf, q_leaf)
        key = _split_key(v_leaf, total)
        leaves.append([v_leaf, x_leaf, q_leaf, total, key,
                       forest._kept_split(key)])
    misses = [leaf for leaf in leaves if leaf[5] is None]
    if len(misses) > 1:
        sizes = [len(leaf[3]) for leaf in misses]
        try:
            y, pi = allocate(requests[0][0].panel,
                             np.concatenate([leaf[0] for leaf in misses]),
                             np.concatenate([leaf[3] for leaf in misses]),
                             sizes)
        except AllocationError:
            pass  # allocated one at a time below
        else:
            start = 0
            for leaf, size in zip(misses, sizes):
                # copies, so a memo does not hold the whole call's rows
                rows = slice(start, start + size)
                leaf[5] = (y[rows].copy(), pi[rows].copy())
                start += size
            del y, pi, misses
    # each request's leaf state is let go once it is swept
    for k, (forest, _, _, _, order, names) in enumerate(requests):
        v_leaf, x_leaf, q_leaf, total, key, split = leaves[k]
        leaves[k] = None
        if split is None:
            split = allocate(forest.panel, v_leaf, total)
        yield forest.sweep_leaf_states(v_leaf, x_leaf, q_leaf, order, names,
                                       forest._keep_split(key, *split))


def distinct_rows(a):
    """Distinct rows of a 2-d array by their bits, so -0.0 and 0.0 differ.

    Returns ``(first, inverse)``: the first row holding each distinct
    row, increasing, and for every row the position of its own in
    ``first``.
    """
    a = np.ascontiguousarray(a)
    rows = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1])))
    rows = rows.ravel().tolist()
    ids = {row: i for i, row in enumerate(dict.fromkeys(rows))}
    inverse = np.fromiter(map(ids.__getitem__, rows), dtype=np.intp,
                          count=len(rows))
    # ids are numbered in order of first sight, so each is first seen
    # where the running maximum rises
    first = np.flatnonzero(np.diff(np.maximum.accumulate(inverse),
                                   prepend=-1) > 0)
    return first, inverse

"""Primal stochastic field F and its derivatives on a scenario tree.

F(v, x, q, node) is the conditional expectation, given the node, of the
representative utility evaluated at the terminal endowment sigma0 + x +
q . psi.  On a finite tree that is one backward sweep: fill the leaves
with r and its analytic derivatives, then pull every array back one
level at a time with the edge probabilities.  All derivatives of F
satisfy the same one-step conditional-expectation identity as F itself,
which the tests exercise to machine precision.

The same sweep also serves batched queries: states may differ per leaf,
so assigning each leaf the state of its level-k ancestor evaluates F at
every level-k node in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .representative import PrimalPoint, allocate, allocation_curvature
from .tree import ScenarioTree
from .utilities import MakerPanel

__all__ = ["FieldEvaluator", "FieldValue", "Sweep", "increment_slope"]

_FIRST = ("value", "dv", "dx", "dq")
_SECOND = ("dvv", "dvx", "dvq", "dxx", "dxq", "dqq")
_CACHE_DIGITS = 12


@dataclass
class Sweep:
    """Backward-induction result: per-level node arrays for each component."""

    order: int
    comps: dict

    def at(self, name: str, level: int, index=None):
        arr = self.comps[name][level]
        return arr if index is None else arr[index]


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

    Memoizes whole sweeps per point rounded to ``_CACHE_DIGITS``.
    Hessian components are produced by the same backward recursion
    applied to analytic second derivatives of r, so no finite
    differencing enters the reference path.
    """

    def __init__(self, panel: MakerPanel, tree: ScenarioTree):
        self.panel = panel
        self.tree = tree
        self._cache = {}

    # -- terminal data -------------------------------------------------

    def _terminal(self, v_leaf, x_leaf, q_leaf, order, names=None):
        tree, panel = self.tree, self.panel
        M = panel.size
        total = tree.sigma0 + x_leaf + (tree.psi * q_leaf).sum(axis=1)
        comps = {}
        if order >= 2:
            y, pi, t, tsum = allocation_curvature(panel, v_leaf, total)
        else:
            y, pi = allocate(panel, v_leaf, total)
        uvals = np.stack(
            [spec.value(pi[:, m]) for m, spec in enumerate(panel.makers)], axis=1)
        comps["value"] = (v_leaf * uvals).sum(axis=1)
        comps["dv"] = uvals
        comps["dx"] = y
        comps["dq"] = tree.psi * y[:, None]
        if order >= 2:
            rxx = -y / tsum
            tv = t / v_leaf
            comps["dxx"] = rxx
            comps["dxq"] = tree.psi * rxx[:, None]
            comps["dqq"] = np.einsum("ni,nj,n->nij", tree.psi, tree.psi, rxx)
            rvx = y[:, None] * tv / tsum[:, None]
            comps["dvx"] = rvx
            comps["dvq"] = np.einsum("nm,nj->nmj", rvx, tree.psi)
            dvv = -np.einsum("nl,nm,n->nlm", tv, tv, y / tsum)
            diag = y[:, None] * t / v_leaf ** 2
            dvv[:, np.arange(M), np.arange(M)] += diag
            comps["dvv"] = dvv
        if names is not None:
            comps = {name: comps[name] for name in names}
        return comps

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
        terminal = self._terminal(v_leaf, x_leaf, q_leaf, order, names)
        comps = {name: [None] * tree.steps + [arr]
                 for name, arr in terminal.items()}
        for k in range(tree.steps - 1, -1, -1):
            for levels in comps.values():
                levels[k] = tree.expect(k, levels[k + 1])
        return Sweep(order=order, comps=comps)

    def sweep_states(self, level: int, v_nodes, x_nodes, q_nodes,
                     order: int = 1, names=None) -> Sweep:
        """Sweep with a state per node of one level, pushed to the leaves.

        Conditional expectations never mix leaves of different ancestors,
        so the arrays at ``level`` are each node's own F values.
        """
        owner = self.tree.leaf_owner(level)
        v_nodes = np.asarray(v_nodes, dtype=float)
        x_nodes = np.asarray(x_nodes, dtype=float)
        q_nodes = np.asarray(q_nodes, dtype=float)
        return self.sweep_leaf_states(v_nodes[owner], x_nodes[owner],
                                      q_nodes[owner], order, names)

    def sweep_point(self, point: PrimalPoint, order: int = 1,
                    names=None) -> Sweep:
        """Sweep for one constant state; memoized per rounded point."""
        d = _CACHE_DIGITS
        key = (tuple(np.round(point.v, d)), round(float(point.x), d),
               tuple(np.round(point.q, d)))
        hit = self._cache.get(key)
        need = names if names is not None else (
            _FIRST + _SECOND if order >= 2 else _FIRST)
        if hit is not None and all(nm in hit.comps for nm in need):
            return hit
        n = self.tree.n_leaves
        sweep = self.sweep_leaf_states(
            np.broadcast_to(point.v, (n, self.panel.size)),
            np.full(n, float(point.x)),
            np.broadcast_to(point.q, (n, self.tree.n_assets)),
            order, names)
        self._cache[key] = sweep
        return sweep

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
        value, dv = sweep.comps["value"], sweep.comps["dv"]
        H, dF = increment_slope(tree, level, value[level], value[level + 1])
        dHdv, _ = increment_slope(tree, level, dv[level], dv[level + 1])
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
        _, pi = allocate(self.panel, v_leaf, total)
        dens = v_leaf[:, 0] * self.panel.makers[0].marginal(pi[:, 0])
        num, den = self.tree.psi * dens[:, None], dens
        for k in range(self.tree.steps - 1, level - 1, -1):
            num, den = self.tree.expect(k, num), self.tree.expect(k, den)
        dens_price = num[idx] / den[idx]
        gap = float(np.abs(dens_price - grad_price).max())
        return grad_price, gap

    def martingale_deviation(self, sweep: Sweep) -> float:
        """Worst one-step conditional-expectation gap over all components,
        nodes and levels; construction-exact up to floating point."""
        return max(self.tree.martingale_gap(levels)
                   for levels in sweep.comps.values())

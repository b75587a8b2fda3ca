"""Strategy execution and indirect-utility simulation.

Two engines live here.  The forward-induction engine executes simple
strategies exactly: at every rebalance it solves, node by node, for the
post-trade Pareto state that leaves each maker's expected utility
unchanged, and between rebalances the indirect utilities are the
conditional expectations of the terminal allocation under the governing
state.  The SDE engine discretizes dU = K(U, Q) dB by an Euler step
whose kernel K comes from the martingale representation of F_v at the
current saddle point.

Both engines run on the general tree (any panel, non-recombining tree,
states per node).  The SDE engine also has a path mode restricted to
one exponential maker on a binomial lattice (``_check_paths``), where
the field separates as F(v, x, q) = v e^{-gamma x} Phi(q) and the
kernel is linear in u with a coefficient read from the Phi tables; it
carries thousands of Monte Carlo paths on fine grids.  Every martingale
increment on the lattice is a multiple of the Brownian step, so the
Euler step is exact there, and a simple strategy runs exactly in path
mode as ``simulate_sde_paths`` with the positions it holds
(``SimpleStrategy.held``).

Every engine takes the ``FieldEvaluator`` of its (panel, tree) first.
The path engines read their Phi tables from its memoized point sweeps,
so calls that share an evaluator sweep each position once, and the
positions a call lacks are swept side by side in one backward pass
(``_phi_tables``).  They draw their paths in blocks (``_path_blocks``),
each block an (N, b) up-move mask of at most ``_PATH_BLOCK_BYTES`` (one
byte a step and path), and run each block through one Euler loop
(``_euler_rows``), which turns the mask into Brownian increments as it
takes each step and yields the increments and the paths' state after
it.  ``simulate_sde_paths`` stores every row it is handed, step-major,
and hands them out in a ``PathBundle``; ``simulate_sde_terminal`` keeps
only the state at maturity, so its memory grows with the mask, not with
the number of paths times 8 bytes a step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field

import numpy as np

from .conjugate import saddle_batch, saddle_levels
from .field import FieldEvaluator
from .representative import (PrimalPoint, check_finite,
                             representative_utility)
from .tree import _LATTICE_STEP, ScenarioTree

__all__ = [
    "SimpleStrategy",
    "ExecutionResult",
    "SdeResult",
    "PathBundle",
    "execute_simple",
    "simulate_sde",
    "kernel_K",
    "state_from_U",
    "simulate_sde_paths",
    "simulate_sde_terminal",
    "indifference_cash",
    "no_arbitrage_gap",
]

_EPS_EXPLODE_SCALE = 1e-10
_TRADE_TOL_SCALE = 1e-13  # saddle tolerance scale of execute_simple's trades

# Up-move mask bytes per block of the lattice path engines (one byte a
# step and path; ``_path_blocks``): a block is drawn and run to maturity
# before the next, so memory grows with the block, not with n_paths.
# 8 MiB is 16,384 paths at 512 steps, one block for 10k.  The streamed
# Bachelier run at 512 steps x 10k paths (``verify._bachelier_terminal``,
# best of 7, 2 cores, shared host) took 209, 149, 119 and 79-92 ms in
# blocks of 1024, 2048, 4096 and 10k paths, at tracemalloc peaks of 2.2,
# 2.7, 3.8 and 7.1 MB: each step costs a fixed Python overhead per
# block, and a run holds one block's mask and a few float rows per path.
_PATH_BLOCK_BYTES = 8 << 20


def _level(lev) -> int:
    """``lev`` as an int; a bool is not a trade level."""
    if isinstance(lev, bool):
        raise TypeError(f"{lev!r} is not a trade level")
    return operator.index(lev)


@dataclass(frozen=True)
class SimpleStrategy:
    """Piecewise constant position: trade n fixes positions[n] at
    times[levels[n]] and holds it until the next trade (the last one
    until maturity).  Each position entry may be a scalar, a (J,)
    vector, or a per-node (n_level, J) table; node dependence keeps the
    strategy predictable because the trade at a level is a function of
    that level's node only.  Levels are integers (numpy integers pass);
    any other level, a bool included, is a ValueError, never truncated."""

    levels: tuple
    positions: tuple

    def __post_init__(self):
        try:
            lv = tuple(map(_level, self.levels))
        except TypeError:
            raise ValueError(f"trade levels must be integers, got "
                             f"{list(self.levels)!r}") from None
        if len(lv) != len(self.positions) or not lv:
            raise ValueError("levels and positions must align and be nonempty")
        if any(b <= a for a, b in zip(lv, lv[1:])) or lv[0] < 0:
            raise ValueError("rebalance levels must be strictly increasing")
        object.__setattr__(self, "levels", lv)

    def position_at(self, n: int, tree: ScenarioTree) -> np.ndarray:
        lev = self.levels[n]
        pos = np.asarray(self.positions[n], dtype=float)
        check_finite(pos, "positions")
        return np.broadcast_to(
            np.atleast_2d(pos) if pos.ndim else pos,
            (tree.n_nodes(lev), tree.n_assets)).copy()

    def held(self, tree: ScenarioTree) -> np.ndarray:
        """The position held over each step: row k of a (steps, J) array,
        0 before the first trade.  Each position must be a scalar or a
        (J,) vector; a per-node table is a ValueError."""
        held = np.zeros((tree.steps, tree.n_assets))
        for level, position in zip(self.levels, self.positions):
            check_finite(position, "positions")
            held[level:] = np.broadcast_to(np.asarray(position, dtype=float),
                                           (tree.n_assets,))
        return held


@dataclass
class Rebalance:
    level: int
    residual: float


@dataclass
class ExecutionResult:
    """Per-level market state along a simple-strategy execution.

    U, W, X, Q are lists of per-node arrays; level k holds the state
    governing the interval ending at times[k], so at a trade level the
    rows hold the pre-trade W, X and Q and the trade shows up from level
    k+1 on (U itself is continuous across trades by construction).
    ``SdeResult`` holds the post-trade state instead.  V is filled on
    request; V_T at the leaves is always available as minus the terminal
    cash-plus-delivery."""

    tree: ScenarioTree
    lam0: np.ndarray
    U: list
    W: list
    X: list
    Q: list
    V: list
    v_terminal: np.ndarray
    rebalances: list = dc_field(default_factory=list)

    @property
    def indifference_residual(self) -> float:
        """Worst indifference violation over all rebalance nodes: the
        final sup-norm gap of each rebalance's utility-preserving system,
        re-evaluated after convergence."""
        return max(r.residual for r in self.rebalances)

    def martingale_residual(self) -> float:
        """One-step conditional-expectation gap of U over the whole run,
        including across rebalances, where indifference makes the chain
        a martingale despite the state jump."""
        return self.tree.martingale_gap(self.U)


def execute_simple(evaluator: FieldEvaluator, strategy: SimpleStrategy,
                   lam0=None, want_interior_V: bool = False,
                   tol_scale: float = _TRADE_TOL_SCALE) -> ExecutionResult:
    """Run a simple strategy by forward induction over its trades.

    Each trade solves the indifference condition: the new state keeps
    F_v at the trade node equal to its pre-trade value.  States between
    trades are pushed to later levels by ancestry, so the tree must use
    implicit indexing.  With ``want_interior_V``, V at every level is
    minus the saddle cash of G(U, 1, 0), started from the level's
    weights and cash 0, all levels solved together (``saddle_levels``).
    """
    panel, tree = evaluator.panel, evaluator.tree
    if not tree.implicit:
        raise ValueError("execute_simple needs an implicit tree; on a "
                         "lattice use simulate_sde_paths with "
                         "SimpleStrategy.held")
    M, J, N = panel.size, tree.n_assets, tree.steps
    if strategy.levels[-1] >= N:
        raise ValueError("rebalance levels must precede maturity")
    if lam0 is not None:
        check_finite(lam0, "initial weights", 1)
    lam0 = (np.full(M, 1.0 / M) if lam0 is None
            else np.asarray(lam0, dtype=float) / np.sum(lam0))

    U = [None] * (N + 1)
    W = [None] * (N + 1)
    X = [None] * (N + 1)
    Q = [None] * (N + 1)
    rebalances = []

    anchor = 0
    v_a = lam0[None, :].copy()
    x_a = np.zeros(1)
    q_a = np.zeros((1, J))
    sweep = evaluator.sweep_states(0, v_a, x_a, q_a, names=("dv",))

    def fill(from_level, to_level):
        for k in range(from_level, to_level + 1):
            anc = tree.ancestor_index(k, np.arange(tree.n_nodes(k)), anchor)
            U[k] = sweep.at("dv", k).copy()
            W[k] = v_a[anc]
            X[k] = x_a[anc]
            Q[k] = q_a[anc]

    fill(0, strategy.levels[0])
    for n, lev in enumerate(strategy.levels):
        anc = tree.ancestor_index(lev, np.arange(tree.n_nodes(lev)), anchor)
        theta = strategy.position_at(n, tree)
        u_target = sweep.at("dv", lev)
        w, x, resid, _ = saddle_batch(evaluator, lev, u_target, theta,
                                      w0=v_a[anc], x0=x_a[anc],
                                      tol_scale=tol_scale)
        rebalances.append(Rebalance(level=lev, residual=float(resid.max())))
        anchor, v_a, x_a, q_a = lev, w, x, theta
        sweep = evaluator.sweep_states(lev, v_a, x_a, q_a, names=("dv",))
        nxt = (strategy.levels[n + 1] if n + 1 < len(strategy.levels) else N)
        fill(lev + 1, nxt)

    anc_leaf = tree.leaf_owner(anchor)
    v_term = -(x_a[anc_leaf] + (q_a[anc_leaf] * tree.psi).sum(axis=1))
    V = [None] * (N + 1)
    if want_interior_V:
        solved = saddle_levels(evaluator, U, [np.zeros(J)] * (N + 1),
                               w0=[lam0] + W[1:], x0=[0.0] * (N + 1))
        V = [-xv for _, xv, _, _ in solved]
    return ExecutionResult(tree=tree, lam0=lam0, U=U, W=W, X=X, Q=Q, V=V,
                           v_terminal=v_term, rebalances=rebalances)


@dataclass
class SdeResult:
    """Euler-discretized indirect utility and recovered market state.

    U, W, X, V, Q and ``exploded`` are lists of per-node arrays over the
    N+1 levels.  Level k holds the state after any trade at times[k]: Q
    is the position over the step starting at times[k] (at the leaves,
    the position held to maturity) and W, X solve the saddle under it,
    whereas ``ExecutionResult`` holds the pre-trade state at a trade
    level.  W, X and V are None without ``want_states`` and NaN at
    exploded nodes."""

    tree: ScenarioTree
    U: list
    W: list
    X: list
    V: list
    Q: list
    exploded: list
    eps_explode: float

    def martingale_residual(self) -> float:
        # count only parents that neither exploded nor have an exploded
        # child; the freeze deliberately breaks the one-step mean
        return self.tree.martingale_gap(self.U,
                                        ok=[~e for e in self.exploded])


def _level_kernel(evaluator: FieldEvaluator, level: int, u, q, w0=None,
                  x0=None):
    """Saddle state and SDE kernel at every node of ``level``: returns
    (w, x, dHdv), the saddle weights and cash of G(u, 1, q) per node
    (``saddle_batch``, started from ``w0``, ``x0``) and dHdv, the
    increment slope of F_v under that state, (n, M, d)."""
    w, x, _, _ = saddle_batch(evaluator, level, u, q, w0=w0, x0=x0)
    sweep = evaluator.sweep_states(level, w, x, q, names=("dv",))
    return w, x, sweep.slope("dv", level)[0]


def kernel_K(evaluator: FieldEvaluator, u, q, node):
    """SDE kernel K(u, q) at a node: dHdv of the integrand at the saddle.

    Solves the saddle at that node alone, sweeps F_v over the node's
    subtree (``FieldEvaluator.sweep_nodes``), whose level 0 is the node,
    and fits the increments to the tree's own Brownian increments there
    (``Sweep.slope``).  Returns an (M, d) array mapping
    Brownian increments to indirect utility increments.
    """
    level, idx = node
    q = np.atleast_2d(np.asarray(q, dtype=float))
    w, x, _, _ = saddle_batch(evaluator, level, u, q, nodes=[idx])
    sweep = evaluator.sweep_nodes(level, [idx], w, x, q, names=("dv",))
    return sweep.slope("dv", 0)[0][0]


def simulate_sde(evaluator: FieldEvaluator, q_levels, u0,
                 want_states: bool = True,
                 eps_scale: float = _EPS_EXPLODE_SCALE) -> SdeResult:
    """Euler scheme for dU = K(U, Q) dB on the full tree.

    ``q_levels`` gives the position held over each step, per node of the
    step's starting level (broadcast from scalars or vectors); the
    result's Q holds them per node and the last one again at the leaves.
    Nodes whose U leaves the negative orthant by less than eps are
    flagged as exploded and frozen; their descendants inherit the flag.
    With ``want_states``, the saddle at the leaves gives W and X there,
    and V at every level is minus the saddle cash of G(U, 1, 0), started
    from the level's W where no node exploded, all levels solved
    together (``saddle_levels``) after the leaves.
    """
    panel, tree = evaluator.panel, evaluator.tree
    if not tree.implicit:
        raise ValueError("simulate_sde needs an implicit tree; "
                         "use simulate_sde_paths on lattices")
    M, J, N = panel.size, tree.n_assets, tree.steps
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    check_finite(u0, "initial indirect utilities", -1)
    eps = eps_scale * np.abs(u0).max()

    U = [u0[None, :].copy()]
    exploded = [np.zeros(1, dtype=bool)]
    W = [None] * (N + 1)
    X = [None] * (N + 1)
    V = [None] * (N + 1)
    Q = []
    w_prev = None
    x_prev = None
    for k in range(N):
        n = tree.n_nodes(k)
        q = np.broadcast_to(np.atleast_2d(np.asarray(q_levels[k], float)),
                            (n, J)).copy()
        Q.append(q)
        ok = ~exploded[k]
        u_solve = np.where(ok[:, None], U[k], -1.0)
        w, x, dHdv = _level_kernel(evaluator, k, u_solve, q, w0=w_prev,
                                   x0=x_prev)
        if want_states:
            W[k] = np.where(ok[:, None], w, np.nan)
            X[k] = np.where(ok, x, np.nan)
        nc = tree.branching(k)
        u_next = (U[k][:, None, :]
                  + np.einsum("nmi,nei->nem", dHdv, tree.edge_db[k]))
        u_next = np.where(ok[:, None, None], u_next, U[k][:, None, :])
        u_next = u_next.reshape(n * nc, M)
        flag = np.repeat(~ok, nc) | (u_next.max(axis=1) >= -eps)
        u_next[flag] = np.minimum(u_next[flag], -eps)
        U.append(u_next)
        exploded.append(flag)
        w_prev = np.repeat(w, nc, axis=0)
        x_prev = np.repeat(x, nc)
    Q.append(Q[-1][tree.leaf_owner(N - 1)])
    if want_states:
        ok = ~exploded[N]
        u_solve = np.where(ok[:, None], U[N], -1.0)
        w, x, _, _ = saddle_batch(evaluator, N, u_solve, Q[N],
                                  w0=w_prev, x0=x_prev)
        W[N] = np.where(ok[:, None], w, np.nan)
        X[N] = np.where(ok, x, np.nan)
        oks = [~e for e in exploded]
        solved = saddle_levels(
            evaluator, [np.where(ok[:, None], u, -1.0)
                        for ok, u in zip(oks, U)],
            [np.zeros(J)] * (N + 1),
            w0=[w if ok.all() else None for ok, w in zip(oks, W)])
        V = [np.where(ok, -xv, np.nan)
             for ok, (_, xv, _, _) in zip(oks, solved)]
    return SdeResult(tree=tree, U=U, W=W, X=X, V=V, Q=Q,
                     exploded=exploded, eps_explode=eps)


def state_from_U(evaluator: FieldEvaluator, u, q, node):
    """Recover (W, X, V) from indirect utilities and position at a node.

    W are the normalized saddle weights of G(u, 1, q), X the saddle
    cash, and V minus the saddle cash of G(u, 1, 0), each solved at that
    node alone.
    """
    level, idx = node
    w, x, _, _ = saddle_batch(evaluator, level, u, q, nodes=[idx])
    _, x0, _, _ = saddle_batch(evaluator, level, u,
                               np.zeros(evaluator.tree.n_assets), w0=w, x0=x,
                               nodes=[idx])
    return w[0], float(x[0]), float(-x0[0])


def no_arbitrage_gap(evaluator: FieldEvaluator, lam0, v_terminal) -> float:
    """E[r(lam0, Sigma0 - V_T)] - E[r(lam0, Sigma0)], nonnegative for any
    strategy and zero exactly for the zero strategy."""
    tree, panel = evaluator.tree, evaluator.panel
    lam0 = np.asarray(lam0, dtype=float) / np.sum(lam0)
    prob = tree.leaf_probabilities()
    r0, _, _ = representative_utility(panel, lam0, tree.sigma0)
    r1, _, _ = representative_utility(panel, lam0,
                                      tree.sigma0 - np.asarray(v_terminal))
    return float(prob @ r1 - prob @ r0)


# -- fast lattice engines (one exponential maker) ------------------------


def _check_fast(evaluator: FieldEvaluator) -> float:
    """Risk aversion of the single exponential maker, or ValueError."""
    panel, tree = evaluator.panel, evaluator.tree
    if panel.size != 1 or not panel.all_exponential:
        raise ValueError("path-mode engines need a single exponential maker")
    if tree.dim != 1 or tree.n_assets != 1:
        raise ValueError("path-mode engines need one asset on a 1d lattice")
    return float(panel.gammas[0])


def _check_paths(evaluator: FieldEvaluator) -> float:
    """``_check_fast``, and a binomial lattice: a path engine moves a
    path at node j to node j + 1 or j, the lattice's step and no other
    tree's.  Returns the risk aversion, or raises ValueError."""
    gamma = _check_fast(evaluator)
    if any(w != _LATTICE_STEP for w in evaluator.tree.windows):
        raise ValueError("path-mode engines need a binomial lattice, where "
                         "node j moves to node j + 1 or j; this tree's "
                         "children are elsewhere")
    return gamma


def _phi_tables(evaluator: FieldEvaluator, qs):
    """Per-level tables of Phi(q) = dF/dv(1, 0, q) for each position q.

    With one exponential maker the field separates as F(v, x, q) =
    v exp(-gamma x) Phi(q), so these tables carry all the information
    the path engines need.  The tables are keyed by ``float(q)`` (the
    first of equal positions, -0.0 and 0.0 among them, stands for all),
    and each is read from the evaluator's memoized point sweep: the
    positions it lacks are swept together in one backward pass
    (``FieldEvaluator._sweep_points``), so a position is swept once per
    evaluator.
    """
    points = {}
    for q in map(float, qs):
        if q not in points:
            points[q] = PrimalPoint(v=[1.0], x=0.0, q=[q])
    sweeps = evaluator._sweep_points(list(points.values()), names=("dv",))
    return {q: [level[:, 0] for level in sweep.comps["dv"]]
            for q, sweep in zip(points, sweeps)}


def _path_blocks(tree: ScenarioTree, n_paths: int, seed=None, signs=None):
    """Sampled up/down paths in blocks of ``_PATH_BLOCK_BYTES // N`` paths.

    Yields (cols, up): the slice of path indices a block covers and its
    up-move mask, (N, b) step-major; ``_euler_rows``
    turns the mask into Brownian increments one step at a time.  The
    draws ``rng.random((n, N))`` of at most 32 paths each come from one
    generator, which continues a single stream, so a seed gives the
    paths of one (n_paths, N) draw whatever the block size.  ``signs``
    (n_paths, N) of +-1 replaces the draw.
    """
    N = tree.steps
    if signs is None:
        rng = np.random.default_rng(seed)
    else:
        signs = np.asarray(signs, dtype=float)
        if signs.shape != (n_paths, N):
            raise ValueError(f"signs must have shape ({n_paths}, {N}), "
                             f"got {signs.shape}")
        if not np.all((signs == 1.0) | (signs == -1.0)):
            raise ValueError("signs must be +1 or -1")
    width = max(1, _PATH_BLOCK_BYTES // N)
    for start in range(0, n_paths, width):
        cols = slice(start, min(start + width, n_paths))
        up_rows = np.empty((N, cols.stop - start), dtype=bool)
        # draw and transpose 32 paths at a time: a whole block's
        # float draw would be 8 bytes a step and path, and one
        # strided copy of a whole mask ran about 3x slower at 10k x
        # 512
        for i in range(start, cols.stop, 32):
            n = min(32, cols.stop - i)
            up = (rng.random((n, N)) < 0.5 if signs is None
                  else signs[i:i + n] > 0)
            up_rows[:, i - start:i - start + n] = up.T
        yield cols, up_rows
        del up_rows  # before the next block's mask is drawn


def _cash(phi_k, j, u, gamma: float):
    """Saddle cash log(Phi_k(j) / u) / gamma of indirect utility u at
    lattice node j of step k, for the Phi table row ``phi_k``."""
    return np.log(phi_k[j] / u) / gamma


@dataclass
class PathBundle:
    """Monte Carlo paths of the market state on a lattice.

    ``j``, ``U``, ``X`` and ``V`` read as (n_paths, N+1) and ``db`` as
    (n_paths, N), one row per path; they are transposed views of
    step-major arrays, so ``bundle.U.T[k]`` (all paths at step k) is
    contiguous.  ``exploded`` is (n_paths,), the flags at maturity.
    ``simulate_sde_paths`` returns one, storing every step of every
    path; ``simulate_sde_terminal`` runs the same Euler loop but returns
    only the terminal U, V and flags.
    """

    times: np.ndarray
    j: np.ndarray
    db: np.ndarray
    U: np.ndarray
    X: np.ndarray
    V: np.ndarray
    exploded: np.ndarray
    eps_explode: float


def _sde_scheme(evaluator: FieldEvaluator, q_levels, u0):
    """Checked inputs of the path Euler scheme.

    Returns (gamma, u0, eps, coeffs, phi_x, phi_v): the risk aversion,
    the initial indirect utility, the explosion threshold, the kernel
    coefficient of each step per lattice node, and per step the Phi
    table rows that turn (j, U) into X (under the position held into
    the step) and into V (under position 0).
    """
    gamma = _check_paths(evaluator)
    tree = evaluator.tree
    N = tree.steps
    q_levels = np.broadcast_to(np.asarray(q_levels, dtype=float), (N,))
    check_finite(q_levels, "positions")
    u0 = float(u0)
    check_finite(u0, "initial indirect utility", -1)
    tables = _phi_tables(evaluator, list(q_levels) + [0.0])
    held = [tables[float(q)] for q in q_levels]
    two_sqdt = 2.0 * np.sqrt(tree.dt(0))
    # step k's coefficient at node j is (Phi_{k+1}(j+1) - Phi_{k+1}(j))
    # / (2 sqrt(dt) Phi_k(j))
    coeffs = [(phi[k + 1][1:] - phi[k + 1][:-1]) / (phi[k] * two_sqdt)
              for k, phi in enumerate(held)]
    phi_x = [held[max(k - 1, 0)][k] for k in range(N + 1)]
    return (gamma, u0, _EPS_EXPLODE_SCALE * abs(u0), coeffs, phi_x,
            tables[0.0])


def _euler_rows(coeffs, u0: float, eps: float, up, step: float):
    """The Euler scheme of the path engines on one path block.

    ``up`` is the block's up-move mask (N, b).  Each step's Brownian
    increments (b,), +-``step``, are derived from it as the step is
    taken.  Yields (db, j, u, exploded) after each of the N steps: the
    step's increments and, after it, the node position, indirect
    utility and explosion flag of every path of the block, which start
    at 0, ``u0`` and False.  The rows are updated in place between
    yields, so a consumer that keeps a row copies it.
    """
    j = np.zeros(up.shape[1], dtype=int)
    u = np.full(up.shape[1], u0)
    exploded = np.zeros(up.shape[1], dtype=bool)
    db = np.empty(up.shape[1])
    for coeff, up_k in zip(coeffs, up):
        # +-step exactly, as 2 step up - step (2 step - step is exact)
        np.multiply(up_k, 2.0 * step, out=db)
        db -= step
        # u (1 + coeff db) in place; a flagged path keeps its frozen u
        u_next = coeff[j]
        u_next *= db
        u_next += 1.0
        u_next *= u
        np.copyto(u_next, u, where=exploded)
        exploded |= u_next >= -eps
        np.minimum(u_next, -eps, out=u)
        j += up_k
        yield db, j, u, exploded


def simulate_sde_paths(evaluator: FieldEvaluator, q_levels, u0: float,
                       n_paths: int, seed=None, signs=None) -> PathBundle:
    """Euler scheme for dU = K(U, Q) dB along sampled lattice paths.

    ``q_levels`` is the position held over each step, (N,) or a scalar.
    For one exponential maker the kernel is linear in u with a per-node
    coefficient read from the Phi tables, so all paths of a block
    advance in one vectorized update per step.  Every step of every
    path is stored; ``simulate_sde_terminal`` keeps the terminal values
    only.  X at step k is the cash under the position held into step k,
    and at step 0 under the first step's position.

    On the lattice every martingale increment is a multiple of the
    Brownian step, so the Euler step is exact, and this is the exact
    execution of a simple strategy: ``q_levels =
    strategy.held(tree)[:, 0]`` with u0 the indirect utility before any
    trade, ``evaluator.field(PrimalPoint(v=[1.0], x=0.0, q=[0.0])).dv[0]``.
    U and V are then those of ``execute_simple`` on the tree of the same
    payoffs, and so is X at steps 1..N; at step 0 X is the cash after
    the trade at time 0, where ``execute_simple`` reports the cash
    before it.
    """
    gamma, u0, eps, coeffs, phi_x, phi_v = _sde_scheme(evaluator, q_levels,
                                                       u0)
    tree = evaluator.tree
    N = tree.steps
    step = np.sqrt(tree.dt(0))
    db = np.empty((N, n_paths))
    j = np.empty((N + 1, n_paths), dtype=int)
    U = np.empty((N + 1, n_paths))
    j[0], U[0] = 0, u0  # every path starts at node 0
    exploded = np.empty(n_paths, dtype=bool)
    for cols, up in _path_blocks(tree, n_paths, seed, signs):
        for k, (db_k, j_k, u_k, exploded_k) in enumerate(
                _euler_rows(coeffs, u0, eps, up, step), 1):
            db[k - 1, cols] = db_k
            j[k, cols] = j_k
            U[k, cols] = u_k
        exploded[cols] = exploded_k
    X = np.empty_like(U)
    V = np.empty_like(U)
    for k in range(N + 1):
        X[k] = _cash(phi_x[k], j[k], U[k], gamma)
        V[k] = -_cash(phi_v[k], j[k], U[k], gamma)
    return PathBundle(times=tree.times.copy(), j=j.T, db=db.T, U=U.T, X=X.T,
                      V=V.T, exploded=exploded, eps_explode=eps)


def simulate_sde_terminal(evaluator: FieldEvaluator, q_levels, u0: float,
                          n_paths: int, seed=None, on_step=None):
    """``simulate_sde_paths`` keeping only the terminal values.

    Returns (U_T, V_T, exploded), (n_paths,) each, with the draws and
    bits of ``simulate_sde_paths``'s ``U[:, -1]``, ``V[:, -1]`` and
    ``exploded``.  Each block of paths runs one step at a time on its
    up-move mask, with no (N, b) float array, so memory grows with the
    mask, N bytes a path.  ``on_step(cols, k, db)``, if given, sees the
    Brownian increments (b,) of step k of the block's paths ``cols``
    (a slice) as the Euler step takes them, steps in order from 0
    within a block; the row is overwritten by the next step.
    """
    gamma, u0, eps, coeffs, _, phi_v = _sde_scheme(evaluator, q_levels, u0)
    tree = evaluator.tree
    step = np.sqrt(tree.dt(0))
    j = np.empty(n_paths, dtype=int)
    U = np.empty(n_paths)
    exploded = np.empty(n_paths, dtype=bool)
    for cols, up in _path_blocks(tree, n_paths, seed):
        for k, (db, j_k, u_k, exploded_k) in enumerate(
                _euler_rows(coeffs, u0, eps, up, step)):
            if on_step is not None:
                on_step(cols, k, db)
        del up  # before the next block's mask is drawn
        j[cols] = j_k
        U[cols] = u_k
        exploded[cols] = exploded_k
    return U, -_cash(phi_v[-1], j, U, gamma), exploded


def indifference_cash(evaluator: FieldEvaluator, q: float) -> float:
    """Cash the investor receives for selling q shares at time zero.

    The single trade moves the maker from position 0 to q at unchanged
    expected utility; positive convexity in q reflects the price impact.
    """
    gamma = _check_fast(evaluator)
    tables = _phi_tables(evaluator, [float(q), 0.0])
    phi_q = tables[float(q)][0][0]
    phi_0 = tables[0.0][0][0]
    return float(np.log(-phi_q) - np.log(-phi_0)) / gamma

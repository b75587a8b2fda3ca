"""Strategy execution and indirect-utility simulation.

Two engines live here.  The forward-induction engine executes simple
strategies exactly: at every rebalance it solves, node by node, for the
post-trade Pareto state that leaves each maker's expected utility
unchanged, and between rebalances the indirect utilities are the
conditional expectations of the terminal allocation under the governing
state.  The SDE engine discretizes dU = K(U, Q) dB by an Euler step
whose kernel K comes from the martingale representation of F_v at the
current saddle point.

Both engines exist in a general tree-mode (any panel, non-recombining
tree, states per node) and a fast path-mode restricted to one
exponential maker, where the field separates as F(v, x, q) =
v e^{-gamma x} Phi(q) and everything reduces to table lookups on a
recombining lattice; the fast mode carries thousands of Monte Carlo
paths on fine grids.  Every engine takes the ``FieldEvaluator`` of its
(panel, tree) first, and both execute engines a ``SimpleStrategy``; the
path engines read their Phi tables from its memoized point sweeps, so
calls that share an evaluator sweep each position once.  The path
engines draw and run their paths in blocks of at most ``_PATH_BLOCK``
paths, through one row generator per engine (``_euler_rows``,
``_execute_rows``) that carries only the current step's row of each
block.  ``simulate_sde_paths`` and ``execute_simple_paths`` store every
row through ``_stored_rows``, step-major (N+1, n_paths), and hand them
out in a ``PathBundle`` as transposed (n_paths, N+1) views;
``simulate_sde_terminal`` streams each block's terminal values, so its
memory grows with the block, not with the number of paths.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field

import numpy as np

from .conjugate import saddle_batch
from .field import FieldEvaluator, increment_slope
from .representative import PrimalPoint, representative_utility
from .tree import ScenarioTree

__all__ = [
    "SimpleStrategy",
    "ExecutionResult",
    "SdeResult",
    "PathBundle",
    "execute_simple",
    "simulate_sde",
    "kernel_K",
    "state_from_U",
    "execute_simple_paths",
    "simulate_sde_paths",
    "simulate_sde_terminal",
    "indifference_cash",
    "no_arbitrage_gap",
]

_EPS_EXPLODE_SCALE = 1e-10

# Paths per block of the lattice path engines: a block is drawn and run
# to maturity before the next, so memory grows with the block, not with
# n_paths.  At 512 steps x 10k paths (engine plus closed forms, best of
# 5, 2 cores) 2048 and 4096 ran equally fast, 1024 about 20 % slower,
# and 4096 peaked 24 MB higher than 2048.
_PATH_BLOCK = 2048


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
        return np.broadcast_to(
            np.atleast_2d(pos) if pos.ndim else pos,
            (tree.n_nodes(lev), tree.n_assets)).copy()


@dataclass
class Rebalance:
    level: int
    old_state: tuple
    new_state: tuple
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
                   tol_scale: float = 1e-13) -> ExecutionResult:
    """Run a simple strategy by forward induction over its trades.

    Each trade solves the indifference condition: the new state keeps
    F_v at the trade node equal to its pre-trade value.  States between
    trades are pushed to later levels by ancestry, so the tree must use
    implicit indexing.
    """
    panel, tree = evaluator.panel, evaluator.tree
    if not tree.implicit:
        raise ValueError("execute_simple needs an implicit tree; "
                         "use execute_simple_paths on lattices")
    M, J, N = panel.size, tree.n_assets, tree.steps
    if strategy.levels[-1] >= N:
        raise ValueError("rebalance levels must precede maturity")
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
        old = (v_a[anc], x_a[anc], q_a[anc])
        theta = strategy.position_at(n, tree)
        u_target = sweep.at("dv", lev)
        w, x, resid, _ = saddle_batch(evaluator, lev, u_target, theta,
                                      w0=old[0], x0=old[1],
                                      tol_scale=tol_scale)
        rebalances.append(Rebalance(level=lev, old_state=old,
                                    new_state=(w, x, theta),
                                    residual=float(resid.max())))
        anchor, v_a, x_a, q_a = lev, w, x, theta
        sweep = evaluator.sweep_states(lev, v_a, x_a, q_a, names=("dv",))
        nxt = (strategy.levels[n + 1] if n + 1 < len(strategy.levels) else N)
        fill(lev + 1, nxt)

    anc_leaf = tree.leaf_owner(anchor)
    v_term = -(x_a[anc_leaf] + (q_a[anc_leaf] * tree.psi).sum(axis=1))
    V = [None] * (N + 1)
    if want_interior_V:
        for k in range(N + 1):
            w0 = W[k] if k else lam0[None, :]
            wv, xv, _, _ = saddle_batch(evaluator, k, U[k],
                                        np.zeros((tree.n_nodes(k), J)),
                                        w0=w0, x0=np.zeros(tree.n_nodes(k)))
            V[k] = -xv
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

    @property
    def any_exploded(self) -> bool:
        return any(e.any() for e in self.exploded)

    def martingale_residual(self) -> float:
        # skip nodes that exploded and nodes whose children were clamped;
        # the freeze deliberately breaks the one-step mean
        return self.tree.martingale_gap(self.U,
                                        ok=[~e for e in self.exploded])


def kernel_K(evaluator: FieldEvaluator, u, q, node):
    """SDE kernel K(u, q) at a node: dHdv of the integrand at the saddle.

    Returns an (M, d) array mapping Brownian increments to indirect
    utility increments.
    """
    level, idx = node
    tree = evaluator.tree
    n = tree.n_nodes(level)
    u = np.broadcast_to(np.asarray(u, float), (n, evaluator.panel.size))
    q = np.broadcast_to(np.atleast_1d(np.asarray(q, float)),
                        (n, tree.n_assets))
    w, x, _, _ = saddle_batch(evaluator, level, u, q)
    sweep = evaluator.sweep_states(level, w, x, q, names=("dv",))
    dHdv, _ = increment_slope(tree, level, sweep.at("dv", level),
                              sweep.at("dv", level + 1))
    return dHdv[idx]


def simulate_sde(evaluator: FieldEvaluator, q_levels, u0,
                 want_states: bool = True,
                 eps_scale: float = _EPS_EXPLODE_SCALE) -> SdeResult:
    """Euler scheme for dU = K(U, Q) dB on the full tree.

    ``q_levels`` gives the position held over each step, per node of the
    step's starting level (broadcast from scalars or vectors); the
    result's Q holds them per node and the last one again at the leaves.
    Nodes whose U leaves the negative orthant by less than eps are
    flagged as exploded and frozen; their descendants inherit the flag.
    """
    panel, tree = evaluator.panel, evaluator.tree
    if not tree.implicit:
        raise ValueError("simulate_sde needs an implicit tree; "
                         "use simulate_sde_paths on lattices")
    M, J, N = panel.size, tree.n_assets, tree.steps
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if np.any(u0 >= 0):
        raise ValueError("initial indirect utilities must be negative")
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
        w, x, _, _ = saddle_batch(evaluator, k, u_solve, q,
                                  w0=w_prev, x0=x_prev)
        sweep = evaluator.sweep_states(k, w, x, q, names=("dv",))
        dHdv, _ = increment_slope(tree, k, sweep.at("dv", k),
                                  sweep.at("dv", k + 1))
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
        for k in range(N + 1):
            ok = ~exploded[k]
            u_solve = np.where(ok[:, None], U[k], -1.0)
            wv, xv, _, _ = saddle_batch(
                evaluator, k, u_solve, np.zeros((tree.n_nodes(k), J)),
                w0=W[k] if ok.all() else None)
            V[k] = np.where(ok, -xv, np.nan)
    return SdeResult(tree=tree, U=U, W=W, X=X, V=V, Q=Q,
                     exploded=exploded, eps_explode=eps)


def state_from_U(evaluator: FieldEvaluator, u, q, node):
    """Recover (W, X, V) from indirect utilities and position at a node.

    W are the normalized saddle weights of G(u, 1, q), X the saddle
    cash, and V minus the saddle cash of G(u, 1, 0).
    """
    level, idx = node
    tree = evaluator.tree
    n = tree.n_nodes(level)
    u = np.broadcast_to(np.asarray(u, float), (n, evaluator.panel.size))
    q = np.broadcast_to(np.atleast_1d(np.asarray(q, float)),
                        (n, tree.n_assets))
    w, x, _, _ = saddle_batch(evaluator, level, u, q)
    _, x0, _, _ = saddle_batch(evaluator, level, u,
                               np.zeros((n, tree.n_assets)), w0=w, x0=x)
    return w[idx], float(x[idx]), float(-x0[idx])


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


def _phi_tables(evaluator: FieldEvaluator, qs):
    """Per-level tables of Phi(q) = dF/dv(1, 0, q) for each position q.

    With one exponential maker the field separates as F(v, x, q) =
    v exp(-gamma x) Phi(q), so these tables carry all the information
    the path engines need.  Each table is read from the evaluator's
    memoized point sweep, so a position is swept once per evaluator.
    """
    tables = {}
    for q in qs:
        key = round(float(q), 12)
        if key in tables:
            continue
        sweep = evaluator.sweep_point(
            PrimalPoint(v=[1.0], x=0.0, q=[float(q)]), names=("dv",))
        tables[key] = [sweep.at("dv", k)[:, 0]
                       for k in range(evaluator.tree.steps + 1)]
    return tables


def _path_blocks(tree: ScenarioTree, n_paths: int, seed=None, signs=None):
    """Sampled up/down paths in blocks of at most ``_PATH_BLOCK`` paths.

    Returns an iterator over (cols, up, db): the slice of path indices a
    block covers, its up-move mask and its Brownian increments (exactly
    +-sqrt(dt)), both (N, b) step-major.  The draws ``rng.random((n,
    N))`` of at most 32 paths each come from one generator, which
    continues a single stream, so a seed gives the paths of one
    (n_paths, N) draw whatever the block size.  ``signs`` (n_paths, N)
    of +-1 replaces the draw.
    """
    N = tree.steps
    step = np.sqrt(tree.dt(0))
    if signs is None:
        rng = np.random.default_rng(seed)
    else:
        signs = np.asarray(signs, dtype=float)
        if signs.shape != (n_paths, N):
            raise ValueError(f"signs must have shape ({n_paths}, {N}), "
                             f"got {signs.shape}")
        if not np.all((signs == 1.0) | (signs == -1.0)):
            raise ValueError("signs must be +1 or -1")

    def blocks():
        for start in range(0, n_paths, _PATH_BLOCK):
            cols = slice(start, min(start + _PATH_BLOCK, n_paths))
            up_rows = np.empty((N, cols.stop - start), dtype=bool)
            # draw and transpose 32 paths at a time: a whole block's
            # float draw would raise the peak memory (about 9 MB at 2048
            # x 512), and one strided copy of a whole mask ran about 3x
            # slower at 10k x 512
            for i in range(start, cols.stop, 32):
                n = min(32, cols.stop - i)
                up = (rng.random((n, N)) < 0.5 if signs is None
                      else signs[i:i + n] > 0)
                up_rows[:, i - start:i - start + n] = up.T
            # +-step exactly, as signs * step: 2 step - step is exact
            db = up_rows.astype(float)
            db *= 2.0 * step
            db -= step
            yield cols, up_rows, db

    return blocks()


def _stored_rows(tree: ScenarioTree, n_paths: int, seed, signs, rows,
                 dtypes):
    """Every row of a path engine's generator, for every path.

    ``rows(up, db)`` is the generator on one block (``_euler_rows`` or
    ``_execute_rows`` with its scheme bound); it yields one row per
    entry of ``dtypes`` at steps 0..N.  Returns db (N, n_paths) and one
    (N+1, n_paths) array of each dtype, all step-major and C-contiguous.
    """
    N = tree.steps
    db = np.empty((N, n_paths))
    store = [np.empty((N + 1, n_paths), dtype=t) for t in dtypes]
    for cols, up, db_block in _path_blocks(tree, n_paths, seed, signs):
        db[:, cols] = db_block
        for k, row in enumerate(rows(up, db_block)):
            for a, r in zip(store, row):
                a[k, cols] = r
    return db, store


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
    contiguous.  ``exploded`` is (n_paths,).  ``simulate_sde_paths`` and
    ``execute_simple_paths`` return one, storing every step of every
    path; ``simulate_sde_terminal`` runs the same Euler loop but hands
    out only terminal values, block by block.
    """

    times: np.ndarray
    j: np.ndarray
    db: np.ndarray
    U: np.ndarray
    X: np.ndarray
    V: np.ndarray
    exploded: np.ndarray
    eps_explode: float = 0.0


def _sde_scheme(evaluator: FieldEvaluator, q_levels, u0):
    """Checked inputs of the path Euler scheme.

    Returns (gamma, u0, eps, coeffs, phi_x, phi_v): the risk aversion,
    the initial indirect utility, the explosion threshold, the kernel
    coefficient of each step per lattice node, and per step the Phi
    table rows that turn (j, U) into X (under the position held into
    the step) and into V (under position 0).
    """
    gamma = _check_fast(evaluator)
    tree = evaluator.tree
    N = tree.steps
    q_levels = np.broadcast_to(np.asarray(q_levels, dtype=float), (N,))
    u0 = float(u0)
    if u0 >= 0:
        raise ValueError("initial indirect utility must be negative")
    tables = _phi_tables(evaluator, list(q_levels) + [0.0])
    held = [tables[round(float(q), 12)] for q in q_levels]
    sqdt = np.sqrt(tree.dt(0))
    coeffs = [np.diff(phi[k + 1]) / (2.0 * sqdt * phi[k])
              for k, phi in enumerate(held)]
    phi_x = [held[max(k - 1, 0)][k] for k in range(N + 1)]
    return (gamma, u0, _EPS_EXPLODE_SCALE * abs(u0), coeffs, phi_x,
            tables[0.0])


def _euler_rows(coeffs, u0: float, eps: float, up, db):
    """The Euler scheme of the path engines on one path block.

    Yields (j, u, exploded) at steps 0..N: the node position, indirect
    utility and explosion flag of every path of the block.  The three
    rows are updated in place between yields, so a consumer that keeps
    a row copies it.
    """
    j = np.zeros(db.shape[1], dtype=int)
    u = np.full(db.shape[1], u0)
    exploded = np.zeros(db.shape[1], dtype=bool)
    yield j, u, exploded
    for k, coeff in enumerate(coeffs):
        # u (1 + coeff db) in place; a flagged path keeps its frozen u
        u_next = coeff[j]
        u_next *= db[k]
        u_next += 1.0
        u_next *= u
        np.copyto(u_next, u, where=exploded)
        exploded |= u_next >= -eps
        np.minimum(u_next, -eps, out=u)
        j += up[k]
        yield j, u, exploded


def simulate_sde_paths(evaluator: FieldEvaluator, q_levels, u0: float,
                       n_paths: int, seed=None, signs=None) -> PathBundle:
    """Euler scheme for dU = K(U, Q) dB along sampled lattice paths.

    For one exponential maker the kernel is linear in u with a per-node
    coefficient read from the Phi tables, so all paths of a block
    advance in one vectorized update per step.  Every step of every
    path is stored; ``simulate_sde_terminal`` keeps the terminal values
    only.
    """
    gamma, u0, eps, coeffs, phi_x, phi_v = _sde_scheme(evaluator, q_levels,
                                                       u0)
    tree = evaluator.tree
    db, (j, U, exploded) = _stored_rows(
        tree, n_paths, seed, signs,
        lambda up, db: _euler_rows(coeffs, u0, eps, up, db),
        (int, float, bool))
    X = np.empty_like(U)
    V = np.empty_like(U)
    for k in range(tree.steps + 1):
        X[k] = _cash(phi_x[k], j[k], U[k], gamma)
        V[k] = -_cash(phi_v[k], j[k], U[k], gamma)
    return PathBundle(times=tree.times.copy(), j=j.T, db=db.T, U=U.T, X=X.T,
                      V=V.T, exploded=exploded[-1], eps_explode=eps)


def simulate_sde_terminal(evaluator: FieldEvaluator, q_levels, u0: float,
                          n_paths: int, seed=None, signs=None):
    """``simulate_sde_paths`` keeping only the terminal values.

    Returns an iterator over blocks of at most ``_PATH_BLOCK`` paths, in
    path order.  Each block is (U_T, V_T, exploded, db) with ``db`` the
    block's Brownian increments as (b, N), a view of step-major storage.
    The draws and the bits are those of ``simulate_sde_paths`` (its
    ``U[:, -1]``, ``V[:, -1]``, ``exploded`` and ``db`` rows), but
    memory grows with the block, not with n_paths.
    """
    gamma, u0, eps, coeffs, _, phi_v = _sde_scheme(evaluator, q_levels, u0)

    def blocks():
        for _, up, db in _path_blocks(evaluator.tree, n_paths, seed, signs):
            for j, u, exploded in _euler_rows(coeffs, u0, eps, up, db):
                pass  # run the block to maturity
            yield u, -_cash(phi_v[-1], j, u, gamma), exploded, db.T

    return blocks()


def _execute_rows(tables, gamma: float, trade: dict, up):
    """Simple-strategy execution of ``execute_simple_paths`` on one path
    block: yields (j, x, u) at steps 0..N, the node position, cash and
    indirect utility of every path, before any trade at the step."""
    j = np.zeros(up.shape[1], dtype=int)
    xi = np.zeros(up.shape[1])
    phi_gov = tables[0.0]
    for k in range(up.shape[0] + 1):
        yield j, xi, np.exp(-gamma * xi) * phi_gov[k][j]
        if k in trade:
            phi_new = tables[round(trade[k], 12)]
            xi = xi + (np.log(-phi_new[k][j])
                       - np.log(-phi_gov[k][j])) / gamma
            phi_gov = phi_new
        if k < up.shape[0]:
            j += up[k]


def execute_simple_paths(evaluator: FieldEvaluator, strategy: SimpleStrategy,
                         n_paths: int, seed=None, signs=None) -> PathBundle:
    """Exact simple-strategy execution along sampled lattice paths.

    With one exponential maker the indifference condition at each trade
    is an explicit cash adjustment through the Phi tables, so the
    path-dependent state never needs the lattice to be non-recombining.
    Every position of ``strategy`` must be a scalar.
    """
    gamma = _check_fast(evaluator)
    tree = evaluator.tree
    if strategy.levels[-1] >= tree.steps:
        raise ValueError("rebalance levels must precede maturity")
    thetas = []
    for lev, pos in zip(strategy.levels, strategy.positions):
        if np.ndim(pos):
            raise ValueError(f"position {pos!r} at level {lev} is not a "
                             f"scalar, as the path engines need")
        thetas.append(float(pos))
    tables = _phi_tables(evaluator, thetas + [0.0])
    trade = dict(zip(strategy.levels, thetas))
    db, (j, X, U) = _stored_rows(
        tree, n_paths, seed, signs,
        lambda up, db: _execute_rows(tables, gamma, trade, up),
        (int, float, float))
    V = np.empty_like(U)
    for k in range(tree.steps + 1):
        V[k] = -_cash(tables[0.0][k], j[k], U[k], gamma)
    return PathBundle(times=tree.times.copy(), j=j.T, db=db.T, U=U.T, X=X.T,
                      V=V.T, exploded=np.zeros(n_paths, dtype=bool))


def indifference_cash(evaluator: FieldEvaluator, q: float) -> float:
    """Cash the investor receives for selling q shares at time zero.

    The single trade moves the maker from position 0 to q at unchanged
    expected utility; positive convexity in q reflects the price impact.
    """
    gamma = _check_fast(evaluator)
    tables = _phi_tables(evaluator, [float(q), 0.0])
    phi_q = tables[round(float(q), 12)][0][0]
    phi_0 = tables[0.0][0][0]
    return float(np.log(-phi_q) - np.log(-phi_0)) / gamma

"""Dual field G, saddle solves, and the conjugacy matrix identities.

G(u, y, q, node) is the saddle value sup over weights v, inf over cash x
of <v, u> + x*y - F(v, x, q, node).  With the weights restricted to the
simplex (F is degree-1 homogeneous in v, so only the direction of v
matters in the stationarity system) the saddle reduces to the square
system F_v(w, x, q) = u in the M unknowns (logits of w, x), solved by a
damped Newton iteration with multi-start fallback.  At y = 1 the saddle
value is exactly the cash coordinate x, and general y follows by
homogeneity of degree one.  On recombining trees many nodes of a level
hold the same problem bit for bit; a level's solve iterates each
distinct problem once, on the subtree of one node that holds it, and a
query of G at one node solves that node alone, with no search for
repeats.  Problems that miss their tolerance restart from jittered
iterates, drawn from one generator seeded 0, which a solve makes only
when its first restart runs.

A level's solve is a generator (``_solve``) that yields each sweep it
needs and is sent the result; one driver (``_drive``) runs one solve
(``saddle_batch``) or one per level (``saddle_levels``) side by side,
as many at once as sweep fewer than ``_RUNNING_ROWS`` leaf rows.  Each
round it allocates the leaf splits of every running solve's next sweep
in one ``allocate`` call with a row group per solve, each group with
its own stopping test, so every solve keeps the bits it has alone while
the levels of a tree share their calls.

Sensitivities of the two fields are linked through the matrices A, C, D
on the primal side and B, E, Hg on the dual side; ``conjugacy_residuals``
evaluates all the cross identities that the verification suite and the
acceptance tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldEvaluator, distinct_rows, sweep_together
from .representative import AllocationError, PrimalPoint, check_finite

__all__ = [
    "DualPoint",
    "SaddleResult",
    "SaddleError",
    "saddle_batch",
    "saddle_levels",
    "conjugate_G",
    "dual_point",
    "state_identities",
    "matrices_primal",
    "matrices_dual",
    "conjugacy_residuals",
]

_TOL_SCALE = 1e-10
_MAX_ITER = 80
_MAX_HALVINGS = 25
_RESTARTS = 8

# ``_drive`` starts another solve only while the running ones sweep
# fewer leaf rows than this, the leaves of a 13-step d=1 tree.  Each
# running solve keeps its forests and their split memos, and a round
# holds the leaf states of every running solve.  With every level of a
# simulate run's V phase solved at once, the benchmark's tree-simulate
# peak resident memory rose from 64.1 to 72.2 MB (10 pairs of 30 s
# runs; Python 3.11, numpy 2.4).
_RUNNING_ROWS = 8192


@dataclass(frozen=True)
class DualPoint:
    """Point b = (u, y, q): utility targets, marginal value, position."""

    u: np.ndarray
    y: float
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, float)))
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, float)))
        check_finite(self.u, "utility targets", -1)
        check_finite(self.q, "positions")
        if not 0 < self.y < np.inf:
            raise ValueError("marginal value y must be finite and positive")


@dataclass
class SaddleResult:
    value: float
    x: float
    weights: np.ndarray
    v: np.ndarray
    residual: float
    iterations: int


class SaddleError(RuntimeError):
    """Saddle Newton failed to reach tolerance.

    Names where: ``level``, the index ``node`` of the node at that level
    whose residual exceeds its tolerance by the largest factor, and that
    node's ``residual`` and ``tolerance``.
    """

    def __init__(self, level: int, node: int, residual: float,
                 tolerance: float):
        super().__init__(
            f"saddle solve stalled at level {level}, node {node}: residual "
            f"{residual:.3e} above tolerance {tolerance:.3e}")
        self.level = level
        self.node = node
        self.residual = residual
        self.tolerance = tolerance


def _softmax(s):
    z = np.concatenate([s, np.zeros(s.shape[:-1] + (1,))], axis=-1)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _seed(panel, tree, u, q):
    """Zero-noise saddle: invert at the mean endowment.

    Replacing the terminal total by its expectation makes F the plain
    representative utility, whose saddle is explicit through the utility
    value inverses.  Exact for deterministic payoffs, and a short Newton
    polish away from it otherwise.
    """
    prob = tree.leaf_probabilities()
    sbar = float(prob @ tree.sigma0) + np.atleast_2d(
        np.asarray(q, float)) @ (prob @ tree.psi)
    pi = np.stack([spec.inverse_value(u[..., m])
                   for m, spec in enumerate(panel.makers)], axis=-1)
    x0 = pi.sum(axis=-1) - sbar
    w = 1.0 / np.stack([spec.marginal(pi[..., m])
                        for m, spec in enumerate(panel.makers)], axis=-1)
    w = w / w.sum(axis=-1, keepdims=True)
    return w, x0


def saddle_batch(evaluator: FieldEvaluator, level: int, u, q,
                 w0=None, x0=None, tol_scale: float = _TOL_SCALE, nodes=None):
    """Solve F_v(w, x, q) = u at the nodes ``nodes`` of one level (all of
    them, in order, when None).

    ``u`` has shape (n, M) and ``q`` shape (n, J) with n the number of
    nodes solved (rows are broadcast if a single state is given).  Nodes
    whose problems agree bit for bit, in subtree class
    (``FieldEvaluator.subtree_classes``), target, position, start logits
    and start cash, are solved once and share the result; a one-node
    solve sweeps that node's subtree alone.  Each Newton iteration is one
    backward sweep of the subtrees of one node per distinct problem
    (see ``_newton``); a backtracking line search on the residual norm
    keeps the iteration inside the domain.  A restart jitters only the
    problems above tolerance, and each problem keeps the best of its own
    solves.  Returns (w, x, resid, iters), one row per node solved, with
    iters the Newton iterations of the first solve and every restart.
    """
    return _drive([_solve(evaluator, level, u, q, w0, x0, tol_scale,
                          nodes)])[0]


def saddle_levels(evaluator: FieldEvaluator, u, q, w0=None, x0=None) -> list:
    """``saddle_batch`` at every node of levels 0, 1, ..., len(u) - 1,
    all levels solved side by side.

    ``u``, ``q`` and, when given, ``w0`` and ``x0`` are lists with an
    entry per level, as ``saddle_batch`` takes them (a None entry of
    ``w0`` or ``x0`` starts that level from ``_seed``); every level is
    solved to the tolerance scale ``_TOL_SCALE``.  Levels start in order
    while the running ones sweep fewer than ``_RUNNING_ROWS`` leaf rows.
    Each round, every running level takes its next sweep, and the leaf
    splits of all of them come from one ``allocate`` call with a row
    group per level (``field.sweep_together``), so each level keeps the
    bits of its own ``saddle_batch`` and there are fewer calls.  Returns
    a list of (w, x, resid, iters), one per level; a failure raises the
    error of the first failing level, as solving the levels one after
    another would.
    """
    n = len(u)
    w0 = [None] * n if w0 is None else w0
    x0 = [None] * n if x0 is None else x0
    return _drive([_solve(evaluator, k, u[k], q[k], w0[k], x0[k],
                          _TOL_SCALE, None) for k in range(n)])


def _drive(solves) -> list:
    """Run saddle solves side by side and return their results in order.

    Each solve is a generator (``_solve``, or a ``_newton`` run) that
    yields the sweeps it needs, as (forest, v, x, q, order, names) of a
    ``FieldEvaluator._sweep_roots`` call, and is sent each sweep back.
    Solves start in order, while the running ones sweep fewer than
    ``_RUNNING_ROWS`` leaf rows.  Each round takes one request from
    every running solve, in order, and sweeps them together
    (``field.sweep_together``: one ``allocate`` call, a row group per
    request).  A failed solve stops, and so does every solve after it;
    once all have stopped, the error of the first that failed is
    raised.
    """
    results = [None] * len(solves)
    asked = {}
    failed = [len(solves), None]  # first failing solve and its error
    waiting = list(range(len(solves)))[::-1]

    def fail(i, exc):
        if i < failed[0]:
            failed[:] = [i, exc]
            for j in [j for j in asked if j > i]:
                del asked[j]

    def send(i, value):
        try:
            asked[i] = solves[i].send(value)
        except StopIteration as stop:
            results[i] = stop.value
        except Exception as exc:  # raised below, once earlier solves end
            fail(i, exc)

    def start():
        rows = sum(r[0].tree.n_leaves for r in asked.values())
        while waiting and waiting[-1] < failed[0] and rows < _RUNNING_ROWS:
            i = waiting.pop()
            send(i, None)
            if i in asked:
                rows += asked[i][0].tree.n_leaves

    start()
    while asked:
        order = sorted(asked)
        sweeps = sweep_together([asked.pop(i) for i in order])
        for i in order:
            if i >= failed[0]:
                break
            try:
                # ``send`` keeps every error of the solve to itself, and
                # no name keeps the sweep once the solve has read it
                send(i, next(sweeps))
            except AllocationError as exc:
                fail(i, exc)
                break
        if waiting:
            start()
    if failed[1] is not None:
        raise failed[1]
    return results


def _solve(evaluator, level, u, q, w0, x0, tol_scale, nodes):
    """``saddle_batch`` as a generator for ``_drive``; returns its
    (w, x, resid, iters).  Each Newton run keeps the forest it is swept
    on (``FieldEvaluator._forest``) until it ends, so solves of other
    levels run between its sweeps leave that forest and its split memo
    alone; a restart looks its forest up again, and one rebuilt meanwhile
    gives the same bits, as its memo starts empty."""
    panel, tree = evaluator.panel, evaluator.tree
    n_level, M = tree.n_nodes(level), panel.size
    nodes = (np.arange(n_level) if nodes is None
             else np.atleast_1d(np.asarray(nodes, dtype=np.intp)))
    if nodes.size and (nodes.min() < 0 or nodes.max() >= n_level):
        raise ValueError(f"node index out of range at level {level}: "
                         f"{nodes.tolist()}")
    n = nodes.size
    u = np.broadcast_to(np.asarray(u, float), (n, M)).copy()
    q = np.broadcast_to(np.atleast_2d(np.asarray(q, float)), (n, tree.n_assets)).copy()
    check_finite(u, "utility targets", -1)
    check_finite(q, "positions")
    if w0 is not None:
        check_finite(w0, "starting weights", 1)
    if x0 is not None:
        check_finite(x0, "starting cash")
    tol = tol_scale * (1.0 + np.abs(u).max(axis=1))

    if w0 is None or x0 is None:
        ws, xs = _seed(panel, tree, u, q)
    w = ws if w0 is None else np.broadcast_to(w0, (n, M)).copy()
    x = xs if x0 is None else np.broadcast_to(x0, (n,)).astype(float).copy()
    s = np.log(w[:, :-1]) - np.log(w[:, -1:])

    # a lone node shares its problem with no other, so it needs no
    # classes and no search for repeats
    row_of = None
    if n > 1:
        cls = evaluator.subtree_classes(level)[nodes].astype(float)
        first, row_of = distinct_rows(np.column_stack([cls, u, q, s, x]))
        nodes = nodes[first]
        u, q, s, x, tol = u[first], q[first], s[first], x[first], tol[first]
    w, x, resid, iters = yield from _newton(
        evaluator._forest(level, nodes)[0], u, q, s, x, tol)
    rng = None
    for _ in range(_RESTARTS):
        bad = np.flatnonzero(resid > tol)
        if not bad.size:
            break
        # fallback: jitter the problems above tolerance around their
        # best iterates; each keeps the restart only where it does better
        if rng is None:
            rng = np.random.default_rng(0)
        s = np.log(w[bad, :-1]) - np.log(w[bad, -1:])
        if M > 1:
            s = s + 0.3 * rng.standard_normal((bad.size, M - 1))
        w_r, x_r, resid_r, iters_r = yield from _newton(
            evaluator._forest(level, nodes[bad])[0], u[bad], q[bad], s,
            x[bad] + 0.1 * rng.standard_normal(bad.size), tol[bad])
        iters += iters_r
        better = resid_r < resid[bad]
        keep = bad[better]
        w[keep], x[keep], resid[keep] = (w_r[better], x_r[better],
                                         resid_r[better])
    if np.any(resid > tol):
        worst = int(np.argmax(resid / tol))
        raise SaddleError(level, int(nodes[worst]), float(resid[worst]),
                          float(tol[worst]))
    if row_of is None:
        return w, x, resid, iters
    return w[row_of], x[row_of], resid[row_of], iters


_NEWTON_SWEEP = ("dv", "dvv", "dvx")


def _roots(sweep):
    """The swept components at the roots (level 0), in sweep order:
    views of the level-0 block alone, so a solve that keeps them between
    its sweeps keeps none of the deeper levels."""
    return [sweep.at(name, 0) for name in sweep.names]


def _newton(forest, u, q, s, x, tol):
    """Damped Newton on one problem per row, one per root of the forest
    ``forest``, as a generator for ``_drive``: it yields each sweep it
    needs and returns (w, x, resid_norm, iters).

    Every iteration and line-search trial sweeps all the problems, those
    within tolerance too: ``allocate`` stops on one test over all the
    leaves it is given, so dropping some problems from a sweep could
    change the last bits of the others.  With one node per distinct
    problem, each sweep allocates the same distinct leaf states as a
    sweep of the whole level, so the iterates keep their bits.

    Each step costs one sweep when the full step is taken (Nocedal and
    Wright, *Numerical Optimization*, 2006, sec. 3.1): while every
    problem is above tolerance, the first trial (alpha = 1) sweeps the
    Newton components, and if every problem accepts it, that sweep is
    the next iterate's.  Otherwise the next iterate is swept afresh.
    Sweeps do not mix columns, so either way every iterate keeps its
    bits.
    """
    n, M = u.shape
    s = s.copy()
    x = x.copy()
    resid_norm = np.full(n, np.inf)
    w = _softmax(s)
    iters = 0
    roots = None
    # dw_i/ds_j = w_i (delta_ij - w_j), j over the first M-1 weights
    eye = np.eye(M)[:, :-1]
    for it in range(_MAX_ITER):
        iters = it + 1
        if roots is None:
            roots = _roots((yield forest, w, x, q, 2, _NEWTON_SWEEP))
        dv, dvv, dvx = roots
        R = dv - u
        resid_norm = np.abs(R).max(axis=1)
        if (resid_norm <= tol).all():
            break
        dws = w[:, :, None] * (eye[None] - w[:, None, :-1])
        J = np.concatenate([dvv @ dws, dvx[:, :, None]], axis=2)
        try:
            dz = np.linalg.solve(J, -R[..., None])[..., 0]
        except np.linalg.LinAlgError:
            dz = -np.einsum("nij,nj->ni", np.linalg.pinv(J), R)
        # cap the step so logits and cash stay in a sane range
        norm = np.abs(dz).max(axis=1, keepdims=True)
        dz = dz * np.minimum(1.0, 20.0 / np.maximum(norm, 1e-300))

        alpha = np.ones(n)
        active = resid_norm > tol
        full = bool(active.all())
        roots = w = None
        cand_s, cand_x = s.copy(), x.copy()
        for h in range(_MAX_HALVINGS):
            trial_s = s + alpha[:, None] * dz[:, :-1]
            trial_x = x + alpha * dz[:, -1]
            trial_w = _softmax(trial_s)
            reuse = full and h == 0
            trial_roots = _roots((yield (forest, trial_w, trial_x, q,
                                     2 if reuse else 1,
                                     _NEWTON_SWEEP if reuse else ("dv",))))
            trial_norm = np.abs(trial_roots[0] - u).max(axis=1)
            better = active & (trial_norm < resid_norm)
            cand_s[better] = trial_s[better]
            cand_x[better] = trial_x[better]
            active = active & ~better
            if not active.any():
                if better.all():
                    # every problem took this trial: the next iterate is
                    # the trial, bit for bit, and so are its weights and,
                    # for the full step, its sweep
                    w = trial_w
                    if reuse:
                        roots = trial_roots
                break
            alpha[active] *= 0.5
        s, x = cand_s, cand_x
        if w is None:
            w = _softmax(s)
    return w, x, resid_norm, iters


def conjugate_G(evaluator: FieldEvaluator, b: DualPoint, node=(0, 0),
                w0=None, x0=None) -> SaddleResult:
    """Evaluate G at one dual point and node.

    Solves the saddle at y = 1 at that node alone and scales by
    homogeneity: G(u, y, q) = y * G(u, 1, q), with the saddle weights
    v = y * w / F_x(w, x, q).
    """
    level, idx = node
    w, x, resid, iters = saddle_batch(evaluator, level, b.u, b.q, w0=w0,
                                      x0=x0, nodes=[idx])
    sweep = evaluator.sweep_nodes(level, [idx], w, x, b.q[None], order=1,
                                  names=("dx",))
    v = b.y * w[0] / sweep.at("dx", 0, 0)
    return SaddleResult(value=float(b.y * x[0]), x=float(x[0]),
                        weights=w[0].copy(), v=v,
                        residual=float(resid[0]), iterations=iters)


def dual_point(evaluator: FieldEvaluator, a: PrimalPoint, node=(0, 0)) -> DualPoint:
    """Forward image b = (F_v(a), F_x(a), q) of a primal point."""
    f = evaluator.field(a, node, order=1)
    return DualPoint(u=f.dv, y=f.dx, q=np.asarray(a.q, float))


def state_identities(evaluator: FieldEvaluator, a: PrimalPoint, node=(0, 0)):
    """Round-trip residuals of the primal/dual state correspondence.

    Forward maps a = (v, x, q) to b = (F_v, F_x, q); the saddle of G at b
    must restore (v, x), and the saddle value y*x must match <v, F_v>
    by homogeneity.  Returns a dict of absolute deviations, each scaled
    by 1 + the magnitude of the quantity it restores.
    """
    b = dual_point(evaluator, a, node)
    sad = conjugate_G(evaluator, b, node,
                      w0=np.asarray(a.v) / np.sum(a.v), x0=float(a.x))
    v = np.asarray(a.v, float)
    out = {
        "x_roundtrip": abs(sad.x - float(a.x)) / (1.0 + abs(float(a.x))),
        "v_roundtrip": float(np.abs(sad.v - v).max()) / (1.0 + np.abs(v).max()),
        "g_equals_xy": abs(sad.value - b.y * float(a.x))
        / (1.0 + abs(b.y * float(a.x))),
    }
    # reverse direction: start from b, map the saddle point forward again
    a2 = PrimalPoint(v=sad.v, x=sad.x, q=a.q)
    f2 = evaluator.field(a2, node, order=1)
    out["u_roundtrip"] = float(np.abs(f2.dv - b.u).max()) / (1.0 + np.abs(b.u).max())
    out["y_roundtrip"] = abs(f2.dx - b.y) / (1.0 + abs(b.y))
    return out


def matrices_primal(evaluator: FieldEvaluator, a: PrimalPoint, node=(0, 0)):
    """Sensitivity matrices A, C, D built from the Hessian of F."""
    f = evaluator.field(a, node, order=2)
    v = np.asarray(a.v, float)
    fx, fxx = f.dx, f.dxx
    A = np.outer(v, v) / fx * (f.dvv - np.outer(f.dvx, f.dvx) / fxx)
    C = v[:, None] / fx * (f.dvq - np.outer(f.dvx, f.dxq) / fxx)
    D = (-f.dqq + np.outer(f.dxq, f.dxq) / fxx) / fx
    return A, C, D


def matrices_dual(evaluator: FieldEvaluator, b: DualPoint, node=(0, 0),
                  saddle: SaddleResult = None):
    """Sensitivity matrices B, E, Hg from the Hessian of G.

    Obtained by implicit differentiation of the saddle system at y = 1:
    the block Hessian J of F in (v, x) is inverted to give the (u, y)
    derivatives of the saddle point, and the q derivatives follow from
    the chain rule.  All three matrices are invariant in y.
    """
    if saddle is None:
        saddle = conjugate_G(evaluator, DualPoint(u=b.u, y=1.0, q=b.q), node)
    # the y=1 saddle weights satisfy F_x(v1, x, q) = 1
    v1 = saddle.v
    a1 = PrimalPoint(v=v1, x=saddle.x, q=b.q)
    f = evaluator.field(a1, node, order=2)
    M, J = v1.shape[0], np.atleast_1d(b.q).shape[0]
    H = np.zeros((M + 1, M + 1))
    H[:M, :M] = f.dvv
    H[:M, M] = f.dvx
    H[M, :M] = f.dvx
    H[M, M] = f.dxx
    Fzq = np.zeros((M + 1, J))
    Fzq[:M, :] = f.dvq
    Fzq[M, :] = f.dxq
    K = np.linalg.inv(H)
    G_uu = K[:M, :M]
    G_uq = -(K @ Fzq)[:M, :]
    G_qq = -f.dqq + Fzq.T @ K @ Fzq
    Bm = G_uu / np.outer(v1, v1)
    E = G_uq / v1[:, None]
    return Bm, E, G_qq


def conjugacy_residuals(evaluator: FieldEvaluator, a: PrimalPoint, node=(0, 0)):
    """All conjugacy identities at one point, as sup-norm residuals.

    Checks B A = I, E = -B C, Hg = C' A^{-1} C + D, the weighted row
    sums of C against the score of the marginal price, and the analogous
    row sums of A.  Also reports the eigenvalue range of A, which the
    risk-aversion bounds confine to [1/c, c].
    """
    A, C, D = matrices_primal(evaluator, a, node)
    b = dual_point(evaluator, a, node)
    b1 = DualPoint(u=b.u, y=1.0, q=b.q)
    v = np.asarray(a.v, float)
    sad = conjugate_G(evaluator, b1, node, w0=v / v.sum(), x0=float(a.x))
    Bm, E, Hg = matrices_dual(evaluator, b1, node, saddle=sad)
    f = evaluator.field(a, node, order=2)
    M = v.shape[0]
    out = {}
    out["BA_identity"] = float(np.abs(Bm @ A - np.eye(M)).max())
    out["E_plus_BC"] = float(np.abs(E + Bm @ C).max())
    out["Hg_identity"] = float(np.abs(Hg - (C.T @ np.linalg.solve(A, C) + D)).max())
    out["C_row_sums"] = float(np.abs(
        C.sum(axis=0) - (f.dq / f.dx - f.dxq / f.dxx)).max())
    out["A_row_sums"] = float(np.abs(
        A.sum(axis=1) + v * f.dvx / f.dxx).max())
    eig = np.linalg.eigvalsh(0.5 * (A + A.T))
    out["A_eig_min"] = float(eig.min())
    out["A_eig_max"] = float(eig.max())
    return out

"""Shared test scaffolding: the acceptance-report summary section, the
bitwise comparison of the kernel oracle tests, the full-path Bachelier
closed forms that ``BachelierParams.terminal_forms`` is pinned against,
and the per-level lattice loop that ``binomial_lattice`` is pinned
against."""

import numpy as np

from indiffmarket.tree import (RowWindows, ScenarioTree, _grid,
                               _leaf_payoffs)

ACCEPTANCE_LINES = []


def assert_same_bits(got, want, exact):
    """Equal bits when ``exact`` (so -0.0 differs from 0.0), else within
    2 ulp."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    if exact:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        return
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        close = np.abs(got - want) <= 2 * np.spacing(
            np.maximum(np.abs(got), np.abs(want)))
    assert np.all(same | close)


# -- the Bachelier closed forms along whole paths --------------------------
# V and U of ``BachelierParams.terminal_forms`` at every step, (n_paths,
# N+1) for increments db (n_paths, N), as cumsum(axis=1) of the per-step
# increments: the library keeps only their last column.


def _cumsum_indirect_utility(par, q_levels, db, times, u0=None):
    db = np.atleast_2d(np.asarray(db, float))
    n_paths, N = db.shape
    dt = np.diff(np.asarray(times, float))
    kap = par.kappa(np.broadcast_to(np.asarray(q_levels, float), (N,)))
    if u0 is None:
        u0 = float(par.N0(0.0) * np.exp(par.gamma * 0.0))
    log_growth = np.cumsum(-kap * db - 0.5 * kap ** 2 * dt, axis=1)
    out = np.empty((n_paths, N + 1))
    out[:, 0] = u0
    out[:, 1:] = u0 * np.exp(log_growth)
    return out


def _cumsum_gain(par, q_levels, db, times):
    db = np.atleast_2d(np.asarray(db, float))
    n_paths, N = db.shape
    dt = np.diff(np.asarray(times, float))
    q = np.broadcast_to(np.asarray(q_levels, float), (N,))
    inc = (-q * (par.mu * dt + par.sigma * db)
           - 0.5 * par.gamma * par.sigma ** 2 * q ** 2 * dt)
    out = np.zeros((n_paths, N + 1))
    out[:, 1:] = np.cumsum(inc, axis=1)
    return out


# -- the binomial lattice, one level at a time ------------------------------
# ``binomial_lattice`` builds every level as a view of one array per
# attribute; this builds each level as its own array, child indices
# included, as the library once did.


def _loop_binomial_lattice(steps, horizon, sigma0=0.0, psi=("B",)):
    times, step = _grid(steps, horizon)
    B, edge_db, edge_p, child_idx = [], [], [], []
    for k in range(steps + 1):
        j = np.arange(k + 1)
        B.append(((2 * j - k) * step)[:, None])
        if k < steps:
            edge_db.append(np.broadcast_to(np.array([[step], [-step]]),
                                           (k + 1, 2, 1)).copy())
            edge_p.append(np.full((k + 1, 2), 0.5))
            child_idx.append(np.stack([j + 1, j], axis=1))
    sigma0, psi_cols = _leaf_payoffs(B[-1], sigma0, psi)
    tree = ScenarioTree(times=times, B=B,
                        windows=[RowWindows(1, (1, 0))] * steps,
                        edge_db=edge_db, edge_p=edge_p, sigma0=sigma0,
                        psi=psi_cols)
    tree.child_idx = child_idx
    return tree


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)

import numpy as np
import pytest
from conftest import (_cumsum_gain, _cumsum_indirect_utility,
                      assert_same_bits)

from indiffmarket.bachelier import BachelierParams
from indiffmarket import engine
from indiffmarket.conjugate import DualPoint, conjugate_G, saddle_batch
from indiffmarket.engine import (
    SimpleStrategy,
    execute_simple,
    indifference_cash,
    kernel_K,
    no_arbitrage_gap,
    simulate_sde,
    simulate_sde_paths,
    simulate_sde_terminal,
    state_from_U,
)
from indiffmarket.field import FieldEvaluator
from indiffmarket.representative import PrimalPoint
from indiffmarket.tree import binomial_lattice, binomial_tree
from indiffmarket.utilities import exponential, panel, sum_of_exponentials

EXP1 = panel(exponential(1.0))
MIXED = panel(sum_of_exponentials([1.0, 0.5], [1.0, 2.0]), exponential(2.0))


def make_evaluator(pan=MIXED, steps=4, sigma0="0.3 + 0.2 * B",
                   psi=("1.0 + 0.5 * B",)):
    t = binomial_tree(steps, 1.0, sigma0=sigma0, psi=psi)
    return FieldEvaluator(pan, t)


def test_zero_strategy_is_inert():
    ev = make_evaluator()
    res = execute_simple(ev, SimpleStrategy(levels=(0, 2), positions=(0.0, 0.0)),
                         lam0=[0.4, 0.6], want_interior_V=True)
    for k in range(ev.tree.steps + 1):
        assert np.max(np.abs(res.X[k])) < 1e-10
        assert np.max(np.abs(res.Q[k])) < 1e-14
        assert np.max(np.abs(res.V[k])) < 1e-10
        assert np.max(np.abs(res.W[k] - np.array([0.4, 0.6]))) < 1e-10
    assert np.max(np.abs(res.v_terminal)) < 1e-10
    assert res.indifference_residual < 1e-12


def test_buy_and_hold_indifference_cash():
    # xi_1 solves E[u(Sigma0 + xi + q psi)] = E[u(Sigma0)] for one maker
    ev = make_evaluator(pan=EXP1)
    q = 0.8
    res = execute_simple(ev, SimpleStrategy(levels=(0,), positions=(q,)))
    xi = float(res.X[1][0])
    t = ev.tree
    p = t.leaf_probabilities()
    u = EXP1.makers[0].value
    lhs = float(p @ u(t.sigma0 + xi + q * t.psi[:, 0]))
    rhs = float(p @ u(t.sigma0))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_round_trip_gain_is_nonpositive_in_mean():
    ev = make_evaluator()
    res = execute_simple(ev, SimpleStrategy(levels=(0, 2), positions=(0.7, 0.0)),
                         lam0=[0.5, 0.5])
    p = ev.tree.leaf_probabilities()
    mean_vt = float(p @ res.v_terminal)
    assert mean_vt < 0
    res0 = execute_simple(ev, SimpleStrategy(levels=(0, 2), positions=(0.0, 0.0)),
                          lam0=[0.5, 0.5])
    assert abs(float(p @ res0.v_terminal)) < 1e-10


def test_preservation_residual_randomized():
    ev = make_evaluator()
    rng = np.random.default_rng(16)
    for _ in range(5):
        levels = tuple(sorted(rng.choice(4, size=3, replace=False)))
        pos = tuple(rng.normal(scale=0.6) for _ in levels)
        res = execute_simple(ev, SimpleStrategy(levels=levels, positions=pos),
                             lam0=rng.dirichlet(np.ones(2)))
        assert res.indifference_residual < 1e-8


def test_martingale_residuals_both_engines():
    ev = make_evaluator()
    res = execute_simple(ev, SimpleStrategy(levels=(0, 1, 3),
                                            positions=(0.4, -0.2, 0.6)),
                         lam0=[0.3, 0.7])
    assert res.martingale_residual() < 1e-12
    u0 = ev.field(PrimalPoint(v=[0.3, 0.7], x=0.0, q=[0.0])).dv
    sde = simulate_sde(ev, [0.4, -0.2, -0.2, 0.6], u0, want_states=False)
    assert sde.martingale_residual() < 1e-12


def test_kernel_examples():
    # flat field: K = 0 when q = 0 and the endowment is deterministic
    t = binomial_tree(2, 1.0, sigma0=0.4, psi=("B",))
    ev = FieldEvaluator(EXP1, t)
    k0 = kernel_K(ev, [-0.8], [0.0], (0, 0))
    assert np.max(np.abs(k0)) < 1e-12
    # normalized and scaled saddle weights give the same kernel
    ev2 = make_evaluator()
    ka = kernel_K(ev2, [-0.7, -1.1], [0.5], (1, 1))
    assert np.all(np.isfinite(ka))


def test_kernel_linear_in_u_single_maker():
    ev = make_evaluator(pan=EXP1)
    k1 = kernel_K(ev, [-0.5], [0.3], (0, 0))
    k2 = kernel_K(ev, [-1.0], [0.3], (0, 0))
    assert np.allclose(2.0 * k1, k2, rtol=1e-9)


@pytest.mark.parametrize("dim, steps", [(1, 4), (2, 3)])
def test_kernel_solves_its_node_alone_and_matches_the_level(dim, steps,
                                                           monkeypatch):
    # the one-node kernel against the row of the whole-level kernel that
    # simulate_sde takes, at every node of every level: equal to 1e-12,
    # from one saddle call on that node alone
    t = binomial_tree(steps, 1.0, dim=dim,
                      sigma0="0.3 + 0.2 * B1" if dim == 2 else "0.3 + 0.2 * B",
                      psi=(("1.0 + 0.5 * B1", "B2 - 0.3 * B1") if dim == 2
                           else ("1.0 + 0.5 * B",)))
    u, q = np.array([-0.7, -1.1]), np.full(t.n_assets, 0.3)
    calls = []

    def counted(ev, level, u_, q_, *args, nodes=None, **kwargs):
        calls.append(None if nodes is None else list(nodes))
        return saddle_batch(ev, level, u_, q_, *args, nodes=nodes, **kwargs)

    for level in range(steps):
        n = t.n_nodes(level)
        _, _, rows = engine._level_kernel(
            FieldEvaluator(MIXED, t), level, np.broadcast_to(u, (n, 2)),
            np.broadcast_to(q, (n, t.n_assets)))
        ev = FieldEvaluator(MIXED, t)
        monkeypatch.setattr(engine, "saddle_batch", counted)
        for idx in range(n):
            del calls[:]
            k = kernel_K(ev, u, q, (level, idx))
            assert calls == [[idx]]
            assert k.shape == (2, dim)
            assert np.abs(k - rows[idx]).max() < 1e-12
        monkeypatch.undo()


@pytest.mark.parametrize("node", [(3, 2), (0, 0)])
def test_kernel_builds_only_its_levels_children(node, monkeypatch):
    # the fit reads the children of the node's own level, one
    # RowWindows.children call once the full tree's indices exist (the
    # saddle seed reads them); building every level of the node's
    # subtree would take 7 calls at (3, 2) and 10 at (0, 0)
    from indiffmarket.tree import RowWindows

    t = binomial_tree(10, 1.0, sigma0="0.3 + 0.2 * B",
                      psi=("1.0 + 0.5 * B",))
    t.child_idx
    calls = []
    children = RowWindows.children

    def counted_children(self, *args):
        calls.append(args)
        return children(self, *args)

    monkeypatch.setattr(RowWindows, "children", counted_children)
    kernel_K(FieldEvaluator(MIXED, t), [-0.7, -1.1], [0.3], node)
    assert calls == [(1,)]


def test_sde_zero_position_is_exact_martingale():
    ev = make_evaluator()
    a0 = PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.0])
    u0 = ev.field(a0).dv
    res = simulate_sde(ev, [0.0] * ev.tree.steps, u0)
    sweep = ev.sweep_point(a0)
    for k in range(ev.tree.steps + 1):
        exact = sweep.at("dv", k)
        assert np.max(np.abs(res.U[k] - exact)) < 1e-10
        assert np.max(np.abs(res.V[k])) < 1e-9
    assert not any(e.any() for e in res.exploded)


def test_engines_agree_on_simple_strategy():
    ev = make_evaluator(steps=6)
    lam0 = np.array([0.45, 0.55])
    strat = SimpleStrategy(levels=(0, 3), positions=(0.5, -0.1))
    res = execute_simple(ev, strat, lam0=lam0)
    u0 = ev.field(PrimalPoint(v=lam0, x=0.0, q=[0.0])).dv
    q_levels = [0.5, 0.5, 0.5, -0.1, -0.1, -0.1]
    sde = simulate_sde(ev, q_levels, u0, want_states=False)
    dt = ev.tree.dt(0)
    for k in range(ev.tree.steps + 1):
        gap = np.max(np.abs(res.U[k] - sde.U[k]))
        scale = np.max(np.abs(res.U[k]))
        assert gap < 5.0 * dt * scale


def test_state_from_U_roundtrip():
    ev = make_evaluator()
    lam0 = np.array([0.4, 0.6])
    u0 = ev.field(PrimalPoint(v=lam0, x=0.0, q=[0.0])).dv
    w, x, v = state_from_U(ev, u0, [0.0], (0, 0))
    assert np.max(np.abs(w - lam0)) < 1e-10
    assert abs(x) < 1e-10
    assert abs(v) < 1e-10
    # recomputing U from the recovered primal state closes the loop
    u_back = ev.field(PrimalPoint(v=w, x=x, q=[0.0])).dv
    assert np.max(np.abs(u_back - u0)) < 1e-8


def test_stopping_consistency_frozen_tail():
    # after the position is closed, X and W stay constant level to level
    ev = make_evaluator(steps=5)
    res = execute_simple(ev, SimpleStrategy(levels=(0, 2), positions=(0.6, 0.0)),
                         lam0=[0.5, 0.5])
    t = ev.tree
    for k in (3, 4):
        owner = t.ancestor_index(k + 1, np.arange(t.n_nodes(k + 1)), k)
        assert np.max(np.abs(res.X[k + 1] - res.X[k][owner])) < 1e-12
        assert np.max(np.abs(res.W[k + 1] - res.W[k][owner])) < 1e-12
        assert np.max(np.abs(res.Q[k + 1])) < 1e-14


def test_no_arbitrage_gap_signs():
    ev = make_evaluator()
    lam0 = np.array([0.5, 0.5])
    res = execute_simple(ev, SimpleStrategy(levels=(0, 2), positions=(0.8, 0.0)),
                         lam0=lam0)
    assert no_arbitrage_gap(ev, lam0, res.v_terminal) > 1e-6
    res0 = execute_simple(ev, SimpleStrategy(levels=(0,), positions=(0.0,)),
                          lam0=lam0)
    assert abs(no_arbitrage_gap(ev, lam0, res0.v_terminal)) < 1e-10


def test_explosion_detection():
    # a huge position on a coarse grid drives U across zero
    t = binomial_lattice(4, 1.0, sigma0=0.0, psi=("B",))
    bundle = simulate_sde_paths(FieldEvaluator(EXP1, t), [50.0] * 4, -1.0,
                                64, seed=3)
    assert bundle.exploded.any()
    # frozen after explosion: flagged paths stop moving
    flagged = np.where(bundle.exploded)[0]
    for i in flagged[:5]:
        u = bundle.U[i]
        hit = np.argmax(u >= -bundle.eps_explode)
        assert np.all(u[hit:] == u[hit])


def _held_paths(ev, strategy, n_paths, **draw):
    """A simple strategy executed along lattice paths:
    ``simulate_sde_paths`` with the positions it holds, from the
    indirect utility before any trade."""
    u0 = ev.field(PrimalPoint(v=[1.0], x=0.0, q=[0.0])).dv[0]
    return simulate_sde_paths(ev, strategy.held(ev.tree)[:, 0], u0, n_paths,
                              **draw)


def test_held_positions_step_at_each_trade():
    # 0 before the first trade, then each position until the next trade
    tree = binomial_tree(5, 1.0, psi=("B", "1.0"))
    held = SimpleStrategy((1, 3), ([0.5, -1.0], 2.0)).held(tree)
    assert held.shape == (5, 2)
    assert np.array_equal(held, [[0.0, 0.0], [0.5, -1.0], [0.5, -1.0],
                                 [2.0, 2.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        SimpleStrategy((0, 2), (0.3, np.ones((4, 2)))).held(tree)


def test_path_engines_match_tree_engine_on_lattice():
    # along the all-up path the lattice fast lane and the generic tree
    # engine walk through identical states; at step 0 the path engine
    # holds the cash after the first trade, the tree engine before it
    steps = 4
    lat = binomial_lattice(steps, 1.0, sigma0="0.1 * B", psi=("1.0 + 0.5 * B",))
    tr = binomial_tree(steps, 1.0, sigma0="0.1 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(EXP1, tr)
    levels, thetas = (0, 2), (0.7, -0.2)
    res = execute_simple(ev, SimpleStrategy(levels=levels, positions=thetas))
    signs = np.ones((1, steps), dtype=int)
    bundle = _held_paths(FieldEvaluator(EXP1, lat),
                         SimpleStrategy(levels, thetas), 1, signs=signs)
    for k in range(steps + 1):
        assert bundle.U[0, k] == pytest.approx(float(res.U[k][0, 0]), rel=1e-12)
        x_tree = float(res.X[max(k, 1)][0])
        assert bundle.X[0, k] == pytest.approx(x_tree, abs=1e-11)


def test_path_engines_share_the_evaluator_sweeps(monkeypatch):
    # one Bachelier op (paths at q, then the indifference cash of q)
    # sweeps the lattice in one joint backward pass over both positions,
    # q and 0: one leaf block of two columns, side by side
    calls = []
    pull_back = FieldEvaluator._pull_back

    def counted(self, block):
        calls.append((self.tree.n_leaves, block.shape[1]))
        return pull_back(self, block)

    monkeypatch.setattr(FieldEvaluator, "_pull_back", counted)
    ev = FieldEvaluator(EXP1, binomial_lattice(16, 1.0))
    simulate_sde_paths(ev, 0.8, -1.0, 10, seed=1)
    indifference_cash(ev, 0.8)
    held = SimpleStrategy((0, 5), (0.8, 0.0)).held(ev.tree)
    simulate_sde_paths(ev, held[:, 0], -1.0, 10, seed=1)
    assert calls == [(17, 2)]


@pytest.mark.parametrize("qs, width", [
    ([0.8, 0.8, -0.0, 0.0], 2),
    (list(np.repeat([0.5, -1.0, 2.0], 4)) + [0.0], 4),
], ids=["repeated-and-signed-zero", "per-step"])
def test_joint_phi_tables_equal_one_sweep_per_position(monkeypatch, qs,
                                                      width):
    # the positions are swept side by side in one backward pass, and
    # each table has the bits of a sweep of its position alone; equal
    # positions share the table of the first (-0.0 stands for 0.0)
    from indiffmarket.engine import _phi_tables

    lat = binomial_lattice(12, 1.0, sigma0="0.1 * B",
                           psi=("1.0 + 0.5 * B",))
    passes = []
    pull_back = FieldEvaluator._pull_back

    def counted(self, block):
        passes.append((self, block.shape[1]))
        return pull_back(self, block)

    monkeypatch.setattr(FieldEvaluator, "_pull_back", counted)
    ev = FieldEvaluator(EXP1, lat)
    tables = _phi_tables(ev, qs)
    assert passes == [(ev, width)]
    assert list(tables) == list(dict.fromkeys(map(float, qs)))
    for q in qs:
        first = next(p for p in qs if p == q)
        point = PrimalPoint(v=[1.0], x=0.0, q=[first])
        alone = FieldEvaluator(EXP1, lat).sweep_point(point, names=("dv",))
        assert len(tables[q]) == lat.steps + 1
        for k, row in enumerate(tables[q]):
            assert_same_bits(row, alone.at("dv", k)[:, 0], exact=True)
        # the pass filed each position's sweep in the point memo
        memo = ev.sweep_point(point, names=("dv",))
        assert_same_bits(memo.at("dv", k)[:, 0], tables[q][k], exact=True)
    assert [w for e, w in passes if e is ev] == [width]


def test_euler_coefficients_match_the_per_step_loop():
    # each step's coefficients have the bits of the textbook difference
    # quotient
    from indiffmarket.engine import _phi_tables, _sde_scheme

    steps = 24
    lat = binomial_lattice(steps, 1.0, sigma0="0.1 * B",
                           psi=("1.0 + 0.5 * B",))
    q = np.repeat([0.5, -1.0, 2.0], steps // 3)
    ev = FieldEvaluator(EXP1, lat)
    coeffs = _sde_scheme(ev, q, -1.0)[3]
    tables = _phi_tables(ev, list(q) + [0.0])
    sqdt = np.sqrt(lat.dt(0))
    assert len(coeffs) == steps
    for k, coeff in enumerate(coeffs):
        phi = tables[float(q[k])]
        want = np.diff(phi[k + 1]) / (2.0 * sqdt * phi[k])
        assert_same_bits(coeff, want, exact=True)


def test_bachelier_op_sweeps_once_and_builds_no_child_indices(monkeypatch,
                                                              tmp_path):
    # at 512 steps the Phi tables of q and 0 cost one joint pass of 512
    # expect calls, and a whole bachelier run no more and no child
    # index arrays
    from indiffmarket.cli import main
    from indiffmarket.engine import _phi_tables
    from indiffmarket.tree import RowWindows, ScenarioTree

    calls = {"expect": 0, "children": 0}
    expect, children = ScenarioTree.expect, RowWindows.children

    def counted_expect(self, *args):
        calls["expect"] += 1
        return expect(self, *args)

    def counted_children(self, *args):
        calls["children"] += 1
        return children(self, *args)

    monkeypatch.setattr(ScenarioTree, "expect", counted_expect)
    monkeypatch.setattr(RowWindows, "children", counted_children)
    ev = FieldEvaluator(BACH.panel(), BACH.lattice(512))
    _phi_tables(ev, [1.0] * 512 + [0.0])
    assert calls == {"expect": 512, "children": 0}
    assert "child_idx" not in vars(ev.tree)
    calls.update(expect=0)
    assert main(["bachelier", "--steps", "512", "--paths", "50", "--seed",
                 "3", "--out", str(tmp_path)]) == 0
    assert calls == {"expect": 512, "children": 0}


def test_indifference_cash_matches_tree_trade():
    steps, q = 6, 0.8
    lat = binomial_lattice(steps, 1.0, sigma0="0.3 + 0.2 * B",
                           psi=("1.0 + 0.5 * B",))
    tr = binomial_tree(steps, 1.0, sigma0="0.3 + 0.2 * B",
                       psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(EXP1, tr)
    res = execute_simple(ev, SimpleStrategy(levels=(0,), positions=(q,)))
    assert indifference_cash(FieldEvaluator(EXP1, lat), q) == pytest.approx(
        float(res.X[1][0]), rel=1e-11)


def test_strategy_validation():
    with pytest.raises(ValueError):
        SimpleStrategy(levels=(2, 1), positions=(0.1, 0.2))
    with pytest.raises(ValueError):
        SimpleStrategy(levels=(0,), positions=(0.1, 0.2))


def test_sde_martingale_residual_masks_exploded_nodes():
    # q = 2 with eps at half of |u0| freezes 9 nodes; the freeze breaks
    # the one-step mean there, so only the masked gap may vanish
    readme = panel(exponential(1.0), sum_of_exponentials([1.0, 0.5],
                                                         [1.0, 2.0]))
    ev = make_evaluator(pan=readme)
    u0 = ev.field(PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.0])).dv
    sde = simulate_sde(ev, [2.0] * 4, u0, want_states=False, eps_scale=0.5)
    assert sum(int(e.sum()) for e in sde.exploded) == 9
    assert sde.martingale_residual() <= 1e-12
    assert ev.tree.martingale_gap(sde.U) > 1e-3


def _counted_parents(tree, ok, k):
    """The parents of level ``k`` that ``martingale_gap`` counts under
    ``ok``, read one at a time: a process that is 1 at the parent and 0
    below it has gap 1 / (1 + 1) there when the parent counts and 0
    when it does not, and it is NaN above, where gaps count for
    nothing."""
    counted = np.zeros(tree.n_nodes(k), dtype=bool)
    for i in range(tree.n_nodes(k)):
        levels = [np.full(tree.n_nodes(j), np.nan if j < k else 0.0)
                  for j in range(tree.steps + 1)]
        levels[k][i] = 1.0
        counted[i] = tree.martingale_gap(levels, ok=ok) == 0.5
    return counted


def test_martingale_mask_counts_the_parents_of_ok_children(monkeypatch):
    # a parent counts when it and all of its children are ok, as read
    # through child indices; the residual reads the mask through
    # ``expect`` and builds no child indices
    from dataclasses import replace

    from indiffmarket.tree import RowWindows
    from indiffmarket.verify import corrupt_tree

    readme = panel(exponential(1.0), sum_of_exponentials([1.0, 0.5],
                                                         [1.0, 2.0]))
    ev = make_evaluator(pan=readme)
    u0 = ev.field(PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.0])).dv
    sde = simulate_sde(ev, [2.0] * 4, u0, want_states=False, eps_scale=0.5)
    tree = ev.tree
    rng = np.random.default_rng(7)
    masks = [rng.random(tree.n_nodes(k)) < 0.3
             for k in range(tree.steps + 1)]
    runs = [replace(sde, tree=replace(tree)),
            replace(sde, tree=corrupt_tree(tree, "probabilities", seed=1),
                    exploded=masks)]
    children = RowWindows.children
    calls = []

    def counted_children(self, *args):
        calls.append(args)
        return children(self, *args)

    monkeypatch.setattr(RowWindows, "children", counted_children)
    for run in runs:
        run.martingale_residual()
    assert calls == []
    monkeypatch.undo()
    for run in runs:
        ok = [~e for e in run.exploded]
        wants = [ok[k] & ok[k + 1][run.tree.child_idx[k]].all(axis=1)
                 for k in range(tree.steps)]
        # both runs count some parents and drop others
        assert 0 < sum(w.sum() for w in wants) < sum(w.size for w in wants)
        for k, want in enumerate(wants):
            assert np.array_equal(_counted_parents(run.tree, ok, k), want)


def test_tampered_U_breaks_martingale_residual():
    ev = make_evaluator()
    res = execute_simple(ev, SimpleStrategy(levels=(0, 1, 3),
                                            positions=(0.4, -0.2, 0.6)),
                         lam0=[0.3, 0.7])
    assert res.martingale_residual() < 1e-12
    res.U[2] = res.U[2].copy()
    res.U[2][1, 0] *= 1.0 + 1e-9
    assert res.martingale_residual() > 1e-12


# -- step-major path engines against the former column-major loops -------


def _column_sampler(tree, n_paths, seed=None, signs=None):
    N = tree.steps
    step = np.sqrt(tree.dt(0))
    if signs is None:
        rng = np.random.default_rng(seed)
        signs = np.where(rng.random((n_paths, N)) < 0.5, 1.0, -1.0)
    signs = np.asarray(signs, dtype=float)
    j = np.zeros((n_paths, N + 1), dtype=int)
    j[:, 1:] = np.cumsum(signs > 0, axis=1)
    return j, signs * step


def _column_sde_paths(tree, tables, gamma, q_levels, u0, eps, j, db):
    n_paths, N = db.shape
    sqdt = np.sqrt(tree.dt(0))
    U = np.empty((n_paths, N + 1))
    U[:, 0] = u0
    exploded = np.zeros(n_paths, dtype=bool)
    for k in range(N):
        phi = tables[round(float(q_levels[k]), 12)]
        jk = j[:, k]
        coeff = (phi[k + 1][jk + 1] - phi[k + 1][jk]) / (2.0 * sqdt * phi[k][jk])
        u_next = U[:, k] * (1.0 + coeff * db[:, k])
        u_next = np.where(exploded, U[:, k], u_next)
        newly = ~exploded & (u_next >= -eps)
        exploded |= newly
        U[:, k + 1] = np.minimum(u_next, -eps)
    X = np.empty_like(U)
    V = np.empty_like(U)
    phi0 = tables[0.0]
    for k in range(N + 1):
        q_gov = q_levels[max(k - 1, 0)]
        phi = tables[round(float(q_gov), 12)]
        X[:, k] = np.log(phi[k][j[:, k]] / U[:, k]) / gamma
        V[:, k] = -np.log(phi0[k][j[:, k]] / U[:, k]) / gamma
    return U, X, V, exploded


def _column_execute_paths(tables, gamma, levels, thetas, j):
    n_paths, N1 = j.shape
    phi0 = tables[0.0]
    xi = np.zeros(n_paths)
    theta_prev = 0.0
    X = np.zeros((n_paths, N1))
    U = np.empty((n_paths, N1))
    V = np.empty((n_paths, N1))
    trade = dict(zip(levels, thetas))
    for k in range(N1):
        phi_gov = tables[round(theta_prev, 12)]
        X[:, k] = xi
        U[:, k] = np.exp(-gamma * xi) * phi_gov[k][j[:, k]]
        V[:, k] = -np.log(phi0[k][j[:, k]] / U[:, k]) / gamma
        if k in trade:
            theta = trade[k]
            phi_new = tables[round(theta, 12)]
            xi = xi + (np.log(-phi_new[k][j[:, k]])
                       - np.log(-phi_gov[k][j[:, k]])) / gamma
            theta_prev = theta
    return U, X, V


def _check_bundle_layout(bundle, n_paths, N):
    assert bundle.times.shape == (N + 1,)
    assert bundle.j.shape == (n_paths, N + 1)
    assert np.issubdtype(bundle.j.dtype, np.integer)
    assert bundle.db.shape == (n_paths, N) and bundle.db.dtype == np.float64
    for a in (bundle.U, bundle.X, bundle.V):
        assert a.shape == (n_paths, N + 1) and a.dtype == np.float64
        assert a.T.flags.c_contiguous
    assert bundle.exploded.shape == (n_paths,)
    assert bundle.exploded.dtype == np.bool_


@pytest.mark.parametrize("steps, pattern, u0, n_paths, seed", [
    (64, [0.5, -1.0, 2.0, 0.0], None, 300, 4),
    (8, [50.0, 10.0, 50.0, -5.0], -1.0, 64, 3),
], ids=["piecewise-q", "exploding"])
def test_sde_paths_match_column_loop(steps, pattern, u0, n_paths, seed):
    from indiffmarket.engine import _phi_tables

    lat = binomial_lattice(steps, 1.0, sigma0="0.1 * B",
                           psi=("1.0 + 0.5 * B",))
    q = np.repeat(pattern, steps // len(pattern))
    if u0 is None:
        u0 = float(EXP1.makers[0].value(0.0))
    ev = FieldEvaluator(EXP1, lat)
    bundle = simulate_sde_paths(ev, q, u0, n_paths, seed=seed)
    _check_bundle_layout(bundle, n_paths, steps)
    j, db = _column_sampler(lat, n_paths, seed=seed)
    assert np.array_equal(bundle.j, j)
    assert_same_bits(bundle.db, db, exact=True)
    tables = _phi_tables(ev, list(q) + [0.0])
    U, X, V, exploded = _column_sde_paths(lat, tables, 1.0, q, u0,
                                          bundle.eps_explode, j, db)
    assert_same_bits(bundle.U, U, exact=True)
    assert_same_bits(bundle.X, X, exact=True)
    assert_same_bits(bundle.V, V, exact=True)
    assert np.array_equal(bundle.exploded, exploded)
    assert exploded.any() == (pattern[0] == 50.0)


def test_execute_paths_match_column_loop():
    # the Euler step on held positions is the exact execution: measured
    # gaps 1.3e-15 of max(1, |value|) in U, V and X; X at step 0 is the
    # cash after the first trade, where the execute loop holds the cash
    # before it
    from indiffmarket.engine import _phi_tables

    steps, n_paths = 24, 200
    lat = binomial_lattice(steps, 1.0, sigma0="0.3 + 0.2 * B",
                           psi=("1.0 + 0.5 * B",))
    levels, thetas = (0, 7, 15), (0.7, -0.3, 1.2)
    ev = FieldEvaluator(EXP1, lat)
    bundle = _held_paths(ev, SimpleStrategy(levels, thetas), n_paths, seed=9)
    _check_bundle_layout(bundle, n_paths, steps)
    assert not bundle.exploded.any()
    j, db = _column_sampler(lat, n_paths, seed=9)
    assert np.array_equal(bundle.j, j)
    assert_same_bits(bundle.db, db, exact=True)
    tables = _phi_tables(ev, list(thetas) + [0.0])
    U, X, V = _column_execute_paths(tables, 1.0, levels, thetas, j)
    for got, want in ((bundle.U, U), (bundle.V, V),
                      (bundle.X[:, 1:], X[:, 1:]), (bundle.X[:, 0], X[:, 1])):
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) \
            < 1e-14


def test_sampler_reuses_signs_exactly():
    lat = binomial_lattice(40, 2.0)
    signs = np.random.default_rng(5).integers(0, 2, size=(37, 40)) * 2 - 1
    bundle = simulate_sde_paths(FieldEvaluator(EXP1, lat), 0.5, -1.0, 37,
                                signs=signs)
    j, db = bundle.j, bundle.db
    j_ref, db_ref = _column_sampler(lat, 37, signs=signs)
    assert np.array_equal(j, j_ref) and j.shape == (37, 41)
    assert_same_bits(db, db_ref, exact=True)
    assert np.array_equal(np.diff(j, axis=1), (signs > 0).astype(int))


@pytest.mark.parametrize("bad", [0.0, 0.5, 2.0, -2.0, np.nan])
def test_sampler_rejects_signs_other_than_plus_minus_one(bad):
    lat = binomial_lattice(5, 1.0)
    signs = np.ones((3, 5))
    signs[1, 2] = bad
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        simulate_sde_paths(FieldEvaluator(EXP1, lat), 0.5, -1.0, 3,
                           signs=signs)


@pytest.mark.parametrize("shape", [(3, 4), (2, 5), (5, 3), (15,), (3, 5, 1)])
def test_sampler_rejects_signs_of_wrong_shape(shape):
    lat = binomial_lattice(5, 1.0)
    with pytest.raises(ValueError, match=r"shape \(3, 5\)"):
        simulate_sde_paths(FieldEvaluator(EXP1, lat), 0.5, -1.0, 3,
                           signs=np.ones(shape))


@pytest.mark.parametrize("u0", [np.nan, -np.inf, 0.0])
def test_non_finite_or_non_negative_u0_is_rejected(u0):
    # a NaN u0 would run every path to NaN U_T and V_T with none flagged
    # as exploded
    lat = FieldEvaluator(EXP1, binomial_lattice(16, 1.0, sigma0="0.1 * B"))
    runs = [
        lambda: simulate_sde_paths(lat, 0.5, u0, 4, seed=1),
        lambda: simulate_sde_terminal(lat, 0.5, u0, 4, seed=1),
        lambda: simulate_sde(make_evaluator(steps=2), 0.3, [u0, -1.0]),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="negative"):
            run()


def _field_at(**kw):
    state = {"v": [0.5, 0.5], "x": 0.0, "q": [0.0], **kw}
    return lambda ev, lat: ev.field(PrimalPoint(**state))


def _saddle_from(**kw):
    return lambda ev, lat: saddle_batch(ev, 0, [[-1.0, -1.0]], [0.0], **kw)


def _executed(position, **kw):
    return lambda ev, lat: execute_simple(
        ev, SimpleStrategy((0,), (position,)), **kw)


@pytest.mark.parametrize("run, message", [
    (_field_at(x=np.nan), "cash must be finite"),
    (_field_at(q=[np.inf]), "positions must be finite"),
    (_field_at(v=[np.nan, 0.5]), "weights must be finite and strictly "
                                 "positive"),
    (lambda ev, lat: conjugate_G(ev, DualPoint(u=[-1, -1], y=1,
                                                q=[np.nan])),
     "positions must be finite"),
    (lambda ev, lat: saddle_batch(ev, 0, [[-1.0, -1.0]], [np.nan]),
     "positions must be finite"),
    (_saddle_from(w0=[np.nan, 1.0], x0=0.0), "starting weights must be "
                                             "finite and strictly positive"),
    (_saddle_from(w0=[0.5, 0.5], x0=np.inf), "starting cash must be finite"),
    (_executed(np.nan), "positions must be finite"),
    (_executed(0.5, lam0=[0.0, 1.0]), "initial weights must be finite and "
                                      "strictly positive"),
    (_executed(0.5, lam0=[np.nan, 1.0]), "initial weights must be finite"),
    (lambda ev, lat: SimpleStrategy((0, 2), (0.5, np.nan)).held(lat.tree),
     "positions must be finite"),
    (lambda ev, lat: simulate_sde_terminal(lat, np.nan, -1.0, 4, seed=0),
     "positions must be finite"),
    (lambda ev, lat: indifference_cash(lat, np.inf),
     "positions must be finite"),
], ids=["field-x", "field-q", "field-v", "G-q", "saddle-q", "saddle-w0",
        "saddle-x0", "execute-position", "execute-lam0-zero",
        "execute-lam0-nan", "held", "terminal-q", "indifference-cash"])
def test_non_finite_inputs_are_value_errors(run, message):
    # a non-finite input is a ValueError that names it where it comes
    # in, not a solver failure deep in allocate
    ev = make_evaluator(steps=3)
    lat = FieldEvaluator(EXP1, binomial_lattice(8, 1.0, sigma0="0.1 * B"))
    with pytest.raises(ValueError, match=message):
        run(ev, lat)


def test_path_engines_reject_a_tree_that_is_not_the_lattice():
    # a 6-step tree reads as a lattice to no path engine: its node j does
    # not move to j + 1 or j
    tree = binomial_tree(6, 1.0, sigma0="0.3 + 0.2 * B",
                         psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(EXP1, tree)
    runs = [
        lambda: simulate_sde_paths(ev, 0.3, -1.0, 4, seed=1),
        lambda: simulate_sde_terminal(ev, 0.3, -1.0, 4, seed=1),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="need a binomial lattice"):
            run()
    # the lattice of the same payoffs runs, and the tree's level-0 cash
    # needs no lattice
    lat = binomial_lattice(6, 1.0, sigma0="0.3 + 0.2 * B",
                           psi=("1.0 + 0.5 * B",))
    res = _held_paths(FieldEvaluator(EXP1, lat),
                      SimpleStrategy((0, 3), (0.5, -0.2)), 4, seed=1)
    assert np.all(np.isfinite(res.V[:, -1]))
    assert np.isfinite(indifference_cash(ev, 0.5))


# -- differential oracle: path engines against the tree engines ----------

BACH = BachelierParams(gamma=1.0, b=0.0, mu=0.1, sigma=0.2, s=10.0,
                       horizon=1.0)


def _all_paths(steps):
    """Every path of a ``steps``-step binomial tree as lattice ``signs``,
    one per leaf in leaf order (leaf bit N-1-k = 0 is an up move at step
    k), and each path's tree node at every level."""
    leaf = np.arange(2 ** steps)
    k = np.arange(steps)
    signs = np.where((leaf[:, None] >> (steps - 1 - k)) & 1, -1, 1)
    nodes = [leaf >> (steps - level) for level in range(steps + 1)]
    return signs, nodes


@pytest.mark.parametrize("q, u_tol", [
    (np.ones(8), 1e-12),
    (np.tile([0.5, -1.0, 2.0, 0.0], 2), 1e-9),
], ids=["constant-q", "piecewise-q"])
def test_sde_paths_reproduce_tree_engine_on_every_path(q, u_tol):
    # measured: U relative gap 1.8e-14 (constant q) and 1.6e-10
    # (piecewise q, where the tree's saddle solves enter the Euler
    # coefficient); V and X absolute gaps 3.1e-10, the 1e-10 saddle
    # tolerance
    steps = 8
    tree_ev = FieldEvaluator(BACH.panel(), BACH.tree(steps))
    signs, nodes = _all_paths(steps)
    u0 = float(BACH.N0(0.0))
    res = simulate_sde(tree_ev, list(q), [u0])
    pb = simulate_sde_paths(FieldEvaluator(BACH.panel(), BACH.lattice(steps)),
                            q, u0, 2 ** steps, signs=signs)
    assert not any(e.any() for e in res.exploded) and not pb.exploded.any()
    for k in range(steps + 1):
        u = res.U[k][nodes[k], 0]
        assert np.max(np.abs(pb.U[:, k] / u - 1.0)) < u_tol
        assert np.max(np.abs(pb.V[:, k] - res.V[k][nodes[k]])) < 1e-9
        # path rows hold the cash under the position held into step k,
        # the tree's rows the cash after the trade at k
        q_in = np.full((tree_ev.tree.n_nodes(k), 1), q[max(k - 1, 0)])
        _, x_in, _, _ = saddle_batch(tree_ev, k, res.U[k], q_in)
        assert np.max(np.abs(pb.X[:, k] - x_in[nodes[k]])) < 1e-9


def _execution_gaps(res, pb, nodes):
    """Worst U (relative), X and V_T (absolute) gaps between a tree
    execution and its paths, over every path and level."""
    gaps = np.zeros(3)
    for k, at in enumerate(nodes):
        gaps[0] = max(gaps[0], np.max(np.abs(pb.U[:, k] / res.U[k][at, 0]
                                             - 1.0)))
        gaps[1] = max(gaps[1], np.max(np.abs(pb.X[:, k] - res.X[k][at])))
    gaps[2] = np.max(np.abs(pb.V[:, -1] - res.v_terminal))
    return gaps


def test_execute_paths_reproduce_tree_engine_on_every_path():
    # measured: U relative, X and V_T absolute gaps 1.4e-13; positions
    # held one step early (the negative control) read U 0.23, X 15.6 and
    # V_T 0.24
    steps = 8
    levels, thetas = (1, 3, 6), (0.7, -0.3, 1.2)
    tree_ev = FieldEvaluator(BACH.panel(), BACH.tree(steps))
    signs, nodes = _all_paths(steps)
    res = execute_simple(tree_ev, SimpleStrategy(levels=levels,
                                                 positions=thetas))
    ev = FieldEvaluator(BACH.panel(), BACH.lattice(steps))
    pb = _held_paths(ev, SimpleStrategy(levels, thetas), 2 ** steps,
                     signs=signs)
    assert np.all(_execution_gaps(res, pb, nodes) < 1e-12)
    early = SimpleStrategy([lev - 1 for lev in levels], thetas)
    pb = _held_paths(ev, early, 2 ** steps, signs=signs)
    assert np.all(_execution_gaps(res, pb, nodes) > 0.1)


# -- path blocks: the same draws and bits whatever the block size ---------


@pytest.mark.parametrize("steps, q, n_paths, seed", [
    (64, 1.0, 300, 4),
    (64, np.repeat([0.5, -1.0, 2.0, 0.0], 16), 300, 5),
    (4, 50.0, 64, 3),
], ids=["constant-q", "piecewise-q", "exploding"])
def test_sde_path_blocks_give_the_same_bits(monkeypatch, steps, q, n_paths,
                                            seed):
    from indiffmarket import engine
    from indiffmarket.verify import _bachelier_terminal

    ev = FieldEvaluator(BACH.panel(), BACH.lattice(steps))
    u0 = float(BACH.N0(0.0))
    ref = simulate_sde_paths(ev, q, u0, n_paths, seed=seed)
    assert ref.exploded.any() == (steps == 4)
    v_closed = _cumsum_gain(BACH, q, ref.db, ref.times)[:, -1]
    u_closed = _cumsum_indirect_utility(BACH, q, ref.db, ref.times)[:, -1]
    path_blocks = engine._path_blocks
    for block in (1, 7, 1024, n_paths):
        monkeypatch.setattr(engine, "_PATH_BLOCK_BYTES", block * steps)
        widths = [min(block, n_paths - i) for i in range(0, n_paths, block)]
        pb = simulate_sde_paths(ev, q, u0, n_paths, seed=seed)
        assert np.array_equal(pb.j, ref.j)
        for got, want in ((pb.db, ref.db), (pb.U, ref.U), (pb.X, ref.X),
                          (pb.V, ref.V)):
            assert_same_bits(got, want, exact=True)
        assert np.array_equal(pb.exploded, ref.exploded)
        # the increments the terminal stream's steps take, step by step
        db = np.full((steps, n_paths), np.nan)
        taken = []

        def seen(cols, k, row):
            taken.append(k)
            db[k, cols] = row

        ran = []

        def counted(*args):
            for cols, up in path_blocks(*args):
                ran.append(cols.stop - cols.start)
                yield cols, up

        monkeypatch.setattr(engine, "_path_blocks", counted)
        engine.simulate_sde_terminal(ev, q, u0, n_paths, seed=seed,
                                     on_step=seen)
        assert ran == widths
        assert taken == list(range(steps)) * len(widths)
        assert_same_bits(db.T, ref.db, exact=True)
        # the streamed Bachelier run honours the block width too
        ran.clear()
        v_T, v_true, u_T, u_true, exploded = _bachelier_terminal(
            BACH, ev, q, n_paths, seed)
        monkeypatch.setattr(engine, "_path_blocks", path_blocks)
        assert ran == widths
        assert_same_bits(v_T, ref.V[:, -1], exact=True)
        assert_same_bits(u_T, ref.U[:, -1], exact=True)
        assert np.array_equal(exploded, ref.exploded)
        assert_same_bits(v_true, v_closed, exact=True)
        assert_same_bits(u_true, u_closed, exact=True)


def test_streamed_bachelier_memory_has_no_float_block(monkeypatch):
    # measured at 512 steps: one block of 3000 paths peaks 1.6 MB over a
    # 32-path run (its 1.5 MB up-move mask and about 32 bytes a path),
    # three blocks 0.6 MB (one 0.5 MB mask at a time); one (N, b) float
    # array of increments would add 4 kB a path
    import tracemalloc

    from indiffmarket import engine
    from indiffmarket.verify import _bachelier_terminal

    steps, n_paths, rows = 512, 3000, 16
    ev = FieldEvaluator(BACH.panel(), BACH.lattice(steps))

    def peak(n, block):
        monkeypatch.setattr(engine, "_PATH_BLOCK_BYTES", block * steps)
        tracemalloc.start()
        try:
            _bachelier_terminal(BACH, ev, 1.0, n, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _bachelier_terminal(BACH, ev, 1.0, 1, 0)  # sweeps the Phi tables
    base = peak(32, 32)
    one = peak(n_paths, n_paths)
    three = peak(n_paths, n_paths // 3)
    for block, got in ((n_paths, one), (n_paths // 3, three)):
        assert got - base <= steps * block + rows * 8 * n_paths
    assert three <= one


def test_execute_and_sampler_blocks_give_the_same_bits(monkeypatch):
    # a simple strategy's held positions, drawn from a seed and from
    # given signs
    from indiffmarket import engine

    steps, n_paths = 24, 200
    lat = binomial_lattice(steps, 1.0, sigma0="0.3 + 0.2 * B",
                           psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(EXP1, lat)
    strategy = SimpleStrategy((0, 7, 15), (0.7, -0.3, 1.2))
    signs = np.random.default_rng(2).integers(0, 2, size=(n_paths, steps))
    signs = signs * 2 - 1
    draws = ({"seed": 9}, {"signs": signs})
    refs = [_held_paths(ev, strategy, n_paths, **draw) for draw in draws]
    for block in (1, 7, 1024, n_paths):
        monkeypatch.setattr(engine, "_PATH_BLOCK_BYTES", block * steps)
        for draw, ref in zip(draws, refs):
            pb = _held_paths(ev, strategy, n_paths, **draw)
            assert np.array_equal(pb.j, ref.j)
            for got, want in ((pb.db, ref.db), (pb.U, ref.U), (pb.X, ref.X),
                              (pb.V, ref.V)):
                assert_same_bits(got, want, exact=True)
            assert np.array_equal(pb.exploded, ref.exploded)

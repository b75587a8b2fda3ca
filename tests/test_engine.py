import numpy as np
import pytest

from indiffmarket.engine import (
    SimpleStrategy,
    execute_simple,
    execute_simple_paths,
    indifference_cash,
    kernel_K,
    no_arbitrage_gap,
    simulate_sde,
    simulate_sde_paths,
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
    assert not res.any_exploded


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
    bundle = simulate_sde_paths(EXP1, t, [50.0] * 4, -1.0, 64, seed=3)
    assert bundle.exploded.any()
    # frozen after explosion: flagged paths stop moving
    flagged = np.where(bundle.exploded)[0]
    for i in flagged[:5]:
        u = bundle.U[i]
        hit = np.argmax(u >= -bundle.eps_explode)
        assert np.all(u[hit:] == u[hit])


def test_path_engines_match_tree_engine_on_lattice():
    # along the all-up path the lattice fast lane and the generic tree
    # engine walk through identical states
    steps = 4
    lat = binomial_lattice(steps, 1.0, sigma0="0.1 * B", psi=("1.0 + 0.5 * B",))
    tr = binomial_tree(steps, 1.0, sigma0="0.1 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(EXP1, tr)
    levels, thetas = (0, 2), (0.7, -0.2)
    res = execute_simple(ev, SimpleStrategy(levels=levels, positions=thetas))
    signs = np.ones((1, steps), dtype=int)
    bundle = execute_simple_paths(EXP1, lat, levels, thetas, 1, signs=signs)
    for k in range(steps + 1):
        assert bundle.U[0, k] == pytest.approx(float(res.U[k][0, 0]), rel=1e-12)
        assert bundle.X[0, k] == pytest.approx(float(res.X[k][0]), abs=1e-11)


def test_indifference_cash_matches_tree_trade():
    steps, q = 6, 0.8
    lat = binomial_lattice(steps, 1.0, sigma0="0.3 + 0.2 * B",
                           psi=("1.0 + 0.5 * B",))
    tr = binomial_tree(steps, 1.0, sigma0="0.3 + 0.2 * B",
                       psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(EXP1, tr)
    res = execute_simple(ev, SimpleStrategy(levels=(0,), positions=(q,)))
    assert indifference_cash(EXP1, lat, q) == pytest.approx(
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


def test_tampered_U_breaks_martingale_residual():
    ev = make_evaluator()
    res = execute_simple(ev, SimpleStrategy(levels=(0, 1, 3),
                                            positions=(0.4, -0.2, 0.6)),
                         lam0=[0.3, 0.7])
    assert res.martingale_residual() < 1e-12
    res.U[2] = res.U[2].copy()
    res.U[2][1, 0] *= 1.0 + 1e-9
    assert res.martingale_residual() > 1e-12

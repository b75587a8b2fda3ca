import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indiffmarket import conjugate, engine, field, verify
from indiffmarket.conjugate import (
    DualPoint,
    SaddleError,
    conjugacy_residuals,
    conjugate_G,
    dual_point,
    matrices_dual,
    matrices_primal,
    saddle_batch,
    saddle_levels,
    state_identities,
)
from indiffmarket.engine import (SimpleStrategy, execute_simple, kernel_K,
                                state_from_U)
from indiffmarket.field import FieldEvaluator
from indiffmarket.representative import AllocationError, PrimalPoint, allocate
from indiffmarket.tree import binomial_tree
from indiffmarket.utilities import exponential, panel, sum_of_exponentials
from indiffmarket.verify import corrupt_tree

EXP1 = panel(exponential(1.0))
P12 = panel(exponential(1.0), exponential(2.0))
MIXED = panel(sum_of_exponentials([1.0, 0.5], [1.0, 2.0]), exponential(2.0))


def small_evaluator(pan=P12):
    t = binomial_tree(2, 1.0, sigma0="0.2 * B", psi=("1.0 + 0.5 * B",))
    return FieldEvaluator(pan, t)


def test_terminal_G_closed_form():
    t = binomial_tree(1, 1.0, sigma0=0.0, psi=("B",))
    ev = FieldEvaluator(EXP1, t)
    # u(x) = -e^{-x}: x = -ln(-u)
    r0 = conjugate_G(ev, DualPoint(u=[-1.0], y=1.0, q=[0.0]), node=(1, 0))
    assert r0.value == pytest.approx(0.0, abs=1e-12)
    r1 = conjugate_G(ev, DualPoint(u=[-np.e], y=1.0, q=[0.0]), node=(1, 0))
    assert r1.value == pytest.approx(-1.0, rel=1e-12)


def test_grid_sup_inf_oracle():
    ev = small_evaluator()
    t = ev.tree
    u = np.array([-0.8, -1.5])
    y = 1.3
    q = np.array([0.3])
    res = conjugate_G(ev, DualPoint(u=u, y=y, q=q))
    p = t.leaf_probabilities()
    s_leaf = t.sigma0 + q[0] * t.psi[:, 0]
    v1 = np.exp(np.linspace(-3, 3, 60)) * res.v[0]
    v2 = np.exp(np.linspace(-3, 3, 60)) * res.v[1]
    xg = np.linspace(res.x - 6, res.x + 6, 150)
    V1, V2, X = np.meshgrid(v1, v2, xg, indexing="ij")
    v = np.stack([V1.ravel(), V2.ravel()], axis=1)
    x = X.ravel()
    F = np.zeros(v.shape[0])
    for l in range(t.n_leaves):
        _, pi = allocate(P12, v, s_leaf[l] + x)
        F += p[l] * sum(v[:, m] * P12.makers[m].value(pi[:, m])
                        for m in range(2))
    obj = (v @ u + x * y - F).reshape(60, 60, 150)
    grid = obj.min(axis=2).max()
    assert abs(grid - res.value) < 5e-3


def test_homogeneity_in_y():
    ev = small_evaluator(MIXED)
    u = np.array([-0.6, -2.0])
    q = np.array([0.4])
    base = conjugate_G(ev, DualPoint(u=u, y=1.0, q=q)).value
    for y in (0.1, 1.0, 7.0):
        g = conjugate_G(ev, DualPoint(u=u, y=y, q=q)).value
        assert g == pytest.approx(y * base, rel=1e-10)


def test_saddle_recovers_primal_gradient_target():
    ev = small_evaluator()
    b = DualPoint(u=[-0.9, -1.1], y=1.0, q=[0.2])
    res = conjugate_G(ev, b)
    f = ev.field(PrimalPoint(v=res.weights, x=res.x, q=b.q))
    assert np.max(np.abs(f.dv - b.u)) < 1e-9


def test_state_identity_at_zero_cash():
    ev = small_evaluator()
    lam = np.array([0.35, 0.65])
    a = PrimalPoint(v=lam, x=0.0, q=[0.0])
    b = dual_point(ev, a)
    res = conjugate_G(ev, b)
    assert res.value == pytest.approx(0.0, abs=1e-10)
    assert np.max(np.abs(res.weights - lam)) < 1e-10


def test_round_trips_random_points():
    ev = small_evaluator(MIXED)
    rng = np.random.default_rng(12)
    for _ in range(20):
        v = rng.dirichlet(np.ones(2))
        a = PrimalPoint(v=v, x=rng.normal(), q=rng.normal(size=1))
        node = (int(rng.integers(0, 3)), 0)
        report = state_identities(ev, a, node=node)
        assert max(report.values()) < 1e-8


def test_matrix_identities_and_bounds():
    ev = small_evaluator()
    rng = np.random.default_rng(13)
    c = P12.bound_constant
    for _ in range(20):
        a = PrimalPoint(v=np.exp(rng.normal(size=2)), x=rng.normal(),
                        q=rng.normal(size=1))
        node = (int(rng.integers(0, 3)), 0)
        res = conjugacy_residuals(ev, a, node=node)
        assert res["BA_identity"] < 1e-8
        assert res["E_plus_BC"] < 1e-8
        assert res["Hg_identity"] < 1e-8
        assert res["C_row_sums"] < 1e-8
        assert res["A_row_sums"] < 1e-8
        assert res["A_eig_min"] > 1.0 / c - 1e-6
        assert res["A_eig_max"] < c + 1e-6


def test_matrix_A_positive_definite():
    ev = small_evaluator(MIXED)
    rng = np.random.default_rng(14)
    a = PrimalPoint(v=[1.2, 0.9], x=0.4, q=[-0.3])
    A, C, D = matrices_primal(ev, a)
    for _ in range(100):
        z = rng.normal(size=2)
        assert z @ A @ z > 0


def test_single_maker_matrix_A():
    t = binomial_tree(1, 1.0, sigma0=0.5, psi=("B",))
    ev = FieldEvaluator(EXP1, t)
    a = PrimalPoint(v=[2.0], x=0.1, q=[0.4])
    A, _, _ = matrices_primal(ev, a)
    f = ev.field(a, order=2)
    expected = -a.v[0] ** 2 * f.dx / f.dxx / a.v[0] ** 2 * 1.0
    # 1x1 case: A = -F_x/F_xx scaled by v^2/v^2, strictly positive
    assert A.shape == (1, 1)
    assert A[0, 0] > 0
    assert A[0, 0] == pytest.approx(expected, rel=1e-10)


def test_dual_matrices_invert_primal():
    ev = small_evaluator(MIXED)
    a = PrimalPoint(v=[0.7, 1.3], x=-0.2, q=[0.5])
    b = dual_point(ev, a)
    A, C, D = matrices_primal(ev, a)
    B, E, Hg = matrices_dual(ev, b)
    assert np.max(np.abs(B @ A - np.eye(2))) < 1e-8
    assert np.max(np.abs(E + B @ C)) < 1e-8
    assert np.max(np.abs(Hg - (C.T @ np.linalg.inv(A) @ C + D))) < 1e-8


def test_G_monotone_in_u():
    ev = small_evaluator()
    u = np.array([-0.8, -1.5])
    q = np.array([0.3])
    base = conjugate_G(ev, DualPoint(u=u, y=1.0, q=q)).value
    for m in range(2):
        up = u.copy()
        up[m] += 1e-4
        g = conjugate_G(ev, DualPoint(u=up, y=1.0, q=q)).value
        assert g > base


def test_G7_bound_exponential_panel():
    # 1/c <= -u^m dG/du^m <= c at random probes
    ev = small_evaluator()
    c = P12.bound_constant
    rng = np.random.default_rng(15)
    h = 1e-6
    for _ in range(10):
        u = -np.exp(rng.normal(size=2))
        q = rng.normal(size=1)
        for m in range(2):
            up, um = u.copy(), u.copy()
            up[m] += h
            um[m] -= h
            dg = (conjugate_G(ev, DualPoint(u=up, y=1.0, q=q)).value
                  - conjugate_G(ev, DualPoint(u=um, y=1.0, q=q)).value) / (2 * h)
            val = -u[m] * dg
            assert 1.0 / c - 1e-4 < val < c + 1e-4


def test_saddle_optimality_local():
    ev = small_evaluator()
    u = np.array([-0.8, -1.5])
    y = 1.0
    q = np.array([0.3])
    res = conjugate_G(ev, DualPoint(u=u, y=y, q=q))

    def objective(v, x):
        f = ev.field(PrimalPoint(v=v, x=x, q=q))
        return float(v @ u + x * y - f.value)

    sad = objective(res.v, res.x)
    d = 1e-3
    # worse (lower) when perturbing the sup variable v
    for m in range(2):
        for s in (-d, d):
            vp = res.v.copy()
            vp[m] *= (1.0 + s)
            assert objective(vp, res.x) <= sad + 1e-9
    # better (higher) when perturbing the inf variable x
    for s in (-d, d):
        assert objective(res.v, res.x + s) >= sad - 1e-9


def test_domain_errors():
    ev = small_evaluator()
    with pytest.raises(ValueError):
        DualPoint(u=[0.5, -1.0], y=1.0, q=[0.0])
    with pytest.raises(ValueError):
        DualPoint(u=[-1.0, -1.0], y=-2.0, q=[0.0])


@pytest.mark.parametrize("bad", [-np.inf, np.nan])
def test_non_finite_targets_are_rejected(bad):
    # the tolerance of a -inf or NaN target, 1e-10 (1 + max |u|), is not
    # finite either, so any start would pass it
    ev = FieldEvaluator(panel(exponential(1.0),
                              sum_of_exponentials([1.0, 0.5], [1.0, 2.0])),
                        binomial_tree(3, 1.0, sigma0="0.3 + 0.2 * B",
                                      psi=("1.0 + 0.5 * B",)))
    u = [[bad, -1.0]]
    runs = [
        lambda: saddle_batch(ev, 0, u, [0.0], w0=[0.5, 0.5], x0=0.0),
        lambda: saddle_levels(ev, [u], [[0.0]]),
        lambda: kernel_K(ev, u[0], [0.0], (1, 0)),
        lambda: state_from_U(ev, u[0], [0.0], (1, 1)),
        lambda: DualPoint(u=u[0], y=1.0, q=[0.0]),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="negative"):
            run()
    for y in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            DualPoint(u=[-1.0, -1.0], y=y, q=[0.0])


def test_saddle_error_names_level_node_and_residual(monkeypatch):
    monkeypatch.setattr(conjugate, "_MAX_ITER", 1)
    monkeypatch.setattr(conjugate, "_RESTARTS", 0)
    ev = small_evaluator(pan=MIXED)
    u = ev.sweep_point(PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.3]),
                       names=("dv",)).at("dv", 1)
    with pytest.raises(SaddleError) as info:
        saddle_batch(ev, 1, u, [0.3], w0=[0.5, 0.5], x0=3.0)
    err = info.value
    assert err.level == 1
    assert 0 <= err.node < ev.tree.n_nodes(1)
    assert err.residual > err.tolerance > 0
    msg = str(err)
    assert f"level 1, node {err.node}" in msg
    assert f"{err.residual:.3e}" in msg and f"{err.tolerance:.3e}" in msg


utility_specs = st.one_of(
    st.floats(0.5, 2.0).map(exponential),
    st.builds(lambda w1, w2, g1, g2: sum_of_exponentials([w1, w2], [g1, g2]),
              st.floats(0.5, 1.5), st.floats(0.5, 1.5), st.floats(0.5, 1.0),
              st.floats(1.2, 2.5)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(specs=st.lists(utility_specs, min_size=1, max_size=3),
       steps=st.sampled_from([2, 4]), coef=st.floats(-0.5, 0.5),
       const=st.floats(-0.5, 1.0), data=st.data())
def test_saddle_restores_primal_state_property(specs, steps, coef, const,
                                               data):
    # the saddle of G at b = dual_point(a), solved from its own seed,
    # gives back a = (v, x) within the 1e-8 bound of the roundtrip suite
    tree = binomial_tree(steps, 1.0, sigma0=f"{coef} * B",
                         psi=(f"{const} + {-coef} * B",))
    ev = FieldEvaluator(panel(*specs), tree)
    M = len(specs)
    v = np.array(data.draw(st.lists(st.floats(0.3, 3.0), min_size=M,
                                    max_size=M)))
    a = PrimalPoint(v=v, x=data.draw(st.floats(-1.0, 1.0)),
                    q=[data.draw(st.floats(-1.0, 1.0))])
    level = data.draw(st.integers(0, steps - 1))
    node = (level, data.draw(st.integers(0, tree.n_nodes(level) - 1)))
    sad = conjugate_G(ev, dual_point(ev, a, node), node)
    assert abs(sad.x - a.x) / (1.0 + abs(a.x)) < 1e-8
    assert np.abs(sad.v - v).max() / (1.0 + np.abs(v).max()) < 1e-8


# -- solving each distinct node problem once --------------------------------


def _whole_level_saddle(evaluator, level, u, q, w0=None, x0=None,
                        tol_scale=conjugate._TOL_SCALE):
    """The whole-level solve that ``saddle_batch`` replaced: every Newton
    iteration and line-search trial sweeps all nodes of the level, and a
    restart re-jitters them all.  The oracle of the tests below."""
    panel, tree = evaluator.panel, evaluator.tree
    n, M = tree.n_nodes(level), panel.size
    u = np.broadcast_to(np.asarray(u, float), (n, M)).copy()
    q = np.broadcast_to(np.atleast_2d(np.asarray(q, float)),
                        (n, tree.n_assets)).copy()
    tol = tol_scale * (1.0 + np.abs(u).max(axis=1))
    if w0 is None or x0 is None:
        ws, xs = conjugate._seed(panel, tree, u, q)
    w = ws if w0 is None else np.broadcast_to(w0, (n, M)).copy()
    x = xs if x0 is None else np.broadcast_to(x0, (n,)).astype(float).copy()
    s = np.log(w[:, :-1]) - np.log(w[:, -1:])
    rng = np.random.default_rng(0)
    best = None
    for _ in range(1 + conjugate._RESTARTS):
        res = _whole_level_newton(evaluator, level, u, q, s, x, tol)
        if best is None or res[2].max() < best[2].max():
            best = res
        if np.all(best[2] <= tol):
            break
        wb = best[0]
        if M > 1:
            s = (np.log(wb[:, :-1]) - np.log(wb[:, -1:])
                 + 0.3 * rng.standard_normal((n, M - 1)))
        x = best[1] + 0.1 * rng.standard_normal(n)
    return best


def _whole_level_newton(evaluator, level, u, q, s, x, tol):
    n, M = u.shape
    s, x = s.copy(), x.copy()
    resid_norm = np.full(n, np.inf)
    w = conjugate._softmax(s)
    iters = 0
    for it in range(conjugate._MAX_ITER):
        iters = it + 1
        sweep = evaluator.sweep_states(level, w, x, q, order=2,
                                       names=("dv", "dvv", "dvx"))
        R = sweep.at("dv", level) - u
        resid_norm = np.abs(R).max(axis=1)
        if np.all(resid_norm <= tol):
            break
        dvv, dvx = sweep.at("dvv", level), sweep.at("dvx", level)
        eye = np.eye(M)[:, :-1]
        dws = w[:, :, None] * (eye[None] - w[:, None, :-1])
        J = np.concatenate([dvv @ dws, dvx[:, :, None]], axis=2)
        try:
            dz = np.linalg.solve(J, -R[..., None])[..., 0]
        except np.linalg.LinAlgError:
            dz = -np.einsum("nij,nj->ni", np.linalg.pinv(J), R)
        norm = np.abs(dz).max(axis=1, keepdims=True)
        dz = dz * np.minimum(1.0, 20.0 / np.maximum(norm, 1e-300))
        alpha = np.ones(n)
        active = resid_norm > tol
        cand_s, cand_x = s.copy(), x.copy()
        for _ in range(conjugate._MAX_HALVINGS):
            trial_s = s + alpha[:, None] * dz[:, :-1]
            trial_x = x + alpha * dz[:, -1]
            sweep_t = evaluator.sweep_states(level, conjugate._softmax(trial_s),
                                             trial_x, q, order=1,
                                             names=("dv",))
            trial_norm = np.abs(sweep_t.at("dv", level) - u).max(axis=1)
            better = active & (trial_norm < resid_norm)
            cand_s[better] = trial_s[better]
            cand_x[better] = trial_x[better]
            active = active & ~better
            if not active.any():
                break
            alpha[active] *= 0.5
        s, x = cand_s, cand_x
        w = conjugate._softmax(s)
    return w, x, resid_norm, iters


def _assert_same_solve(ev, level, u, q, w0=None, x0=None):
    """``saddle_batch`` equals the whole-level oracle bit for bit at every
    node, with the same iteration count; returns the distinct problems."""
    got = saddle_batch(ev, level, u, q, w0=w0, x0=x0)
    # the oracle on an evaluator of its own, whose memos start empty
    want = _whole_level_saddle(FieldEvaluator(ev.panel, ev.tree), level, u,
                               q, w0=w0, x0=x0)
    for g, w in zip(got[:3], want[:3]):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes(), level
    assert got[3] == want[3]


def _execute_targets(ev, level, lam, q):
    """Targets as ``execute_simple`` sets them: F_v at ``level`` of the
    state held from the root, repeated wherever subtrees recombine."""
    return ev.sweep_states(0, lam[None], np.zeros(1), np.atleast_2d(q),
                           names=("dv",)).at("dv", level)


def test_distinct_solves_match_the_whole_level_on_a_deep_tree():
    t = binomial_tree(13, 1.0, sigma0="0.3 + 0.2 * B",
                      psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    lam = np.array([0.35, 0.65])
    for level in range(t.steps + 1):
        u = _execute_targets(ev, level, lam, [0.4])
        n = t.n_nodes(level)
        if level >= 4:
            # recombination repeats the targets: far fewer problems
            assert len(np.unique(u, axis=0)) < n / 2
        _assert_same_solve(ev, level, u, np.full((n, 1), -0.3),
                           w0=lam, x0=np.zeros(n))


def test_distinct_solves_match_the_whole_level_in_two_dimensions():
    t = binomial_tree(6, 1.0, dim=2, sigma0="0.3 + 0.2 * B1 - 0.1 * B2",
                      psi=("1.0 + 0.5 * B1", "0.8 + 0.4 * B2"))
    ev = FieldEvaluator(MIXED, t)
    lam = np.array([0.6, 0.4])
    for level in range(t.steps + 1):
        u = _execute_targets(ev, level, lam, [0.2, -0.1])
        _assert_same_solve(ev, level, u, [0.3, 0.2])


def _twin_tree():
    """A 5-step tree whose payoff table is no function of the down-move
    counts, so every level takes the leaf sweep, and whose two halves
    are equal: node i and node i + n/2 of every level carry equal
    subtrees."""
    rng = np.random.default_rng(3)
    table = np.round(rng.normal(size=32), 1)
    table[16:] = table[:16]
    return binomial_tree(5, 1.0, sigma0=0.1, psi=(table,))


def test_distinct_solves_match_the_whole_level_without_recombination():
    t = _twin_tree()
    assert t.recombine(0) is None
    ev = FieldEvaluator(MIXED, t)
    for level in range(t.steps + 1):
        classes = ev.subtree_classes(level)
        half = t.n_nodes(level) // 2
        if level:
            assert np.array_equal(classes[:half], classes[half:])
        u = _execute_targets(ev, level, np.array([0.5, 0.5]), [0.3])
        _assert_same_solve(ev, level, u, [0.3], w0=[0.5, 0.5], x0=0.0)


def test_distinct_solves_match_the_whole_level_on_a_corrupted_tree():
    # a corrupted probability row puts its node in a class of its own
    t = corrupt_tree(binomial_tree(5, 1.0, sigma0="0.2 * B",
                                   psi=("1.0 + 0.5 * B",)),
                     "probabilities", seed=2)
    ev = FieldEvaluator(MIXED, t)
    for level in range(t.steps + 1):
        u = _execute_targets(ev, level, np.array([0.5, 0.5]), [0.3])
        _assert_same_solve(ev, level, u, [0.3], w0=[0.5, 0.5], x0=0.0)


def test_distinct_solves_match_the_whole_level_with_dummy_rows():
    # simulate_sde solves exploded nodes with the dummy target -1
    t = binomial_tree(8, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    for level in (4, 7, 8):
        u = _execute_targets(ev, level, np.array([0.4, 0.6]), [0.2]).copy()
        u[::3] = -1.0
        _assert_same_solve(ev, level, u, [0.2])


def test_distinct_solves_match_the_whole_level_when_all_differ():
    t = binomial_tree(6, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    rng = np.random.default_rng(5)
    level = 4
    n = t.n_nodes(level)
    u = _execute_targets(ev, level, np.array([0.5, 0.5]), [0.3])
    u = u * rng.uniform(0.9, 1.1, size=u.shape)
    q = rng.normal(0.0, 0.3, size=(n, 1))
    assert len(np.unique(np.column_stack([u, q]), axis=0)) == n
    _assert_same_solve(ev, level, u, q)


@pytest.mark.parametrize("steps, level, lam, q0, q1", [
    (5, 4, [0.9472473850656326, 0.05275261493436742], 0.07, -0.64),
    (6, 3, [0.8794372157364472, 0.12056278426355282], 0.34, 1.09),
])
def test_problems_within_tolerance_stay_in_the_sweeps(steps, level, lam, q0,
                                                      q1):
    # here some problems reach tolerance iterations before the others;
    # sweeping only those left would change the last bits of the rest,
    # since allocate stops on one test over all the leaves of a sweep
    t = binomial_tree(steps, 1.0, sigma0="0.3 + 0.2 * B",
                      psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    lam = np.array(lam)
    u = _execute_targets(ev, level, lam, [q0])
    _assert_same_solve(ev, level, u, [q1], w0=lam, x0=0.0)


def _newton_alone(ev, level, nodes, u, q, s, x, tol):
    """One Newton run of the problems at ``nodes`` of ``level``, on their
    forest, with no restart: (w, x, resid, iters)."""
    forest = ev._forest(level, nodes)[0]
    return conjugate._drive([conjugate._newton(forest, u, q, s, x, tol)])[0]


def test_saddle_error_on_a_repeated_problem_names_one_of_its_nodes(
        monkeypatch):
    monkeypatch.setattr(conjugate, "_MAX_ITER", 1)
    monkeypatch.setattr(conjugate, "_RESTARTS", 0)
    t = _twin_tree()
    ev = FieldEvaluator(MIXED, t)
    level = 4
    n = t.n_nodes(level)
    u = _execute_targets(ev, level, np.array([0.5, 0.5]), [0.3])
    with pytest.raises(SaddleError) as info:
        saddle_batch(ev, level, u, [0.3], w0=[0.5, 0.5], x0=3.0)
    err = info.value
    # every problem is held by node i and by its twin i + n/2; the
    # error names the first of them
    assert err.level == level and 0 <= err.node < n // 2
    assert np.array_equal(u[err.node], u[err.node + n // 2])
    assert err.tolerance == conjugate._TOL_SCALE * (
        1.0 + np.abs(u[err.node]).max())
    # the node's own residual: its problem solved alone
    one = np.array([err.node])
    _, _, resid, _ = _newton_alone(
        ev, level, one, u[one], np.full((1, 1), 0.3), np.zeros((1, 1)),
        np.full(1, 3.0), np.full(1, err.tolerance))
    assert err.residual == pytest.approx(float(resid[0]), rel=1e-12)
    assert err.residual > err.tolerance


# -- one-node solves and per-problem restarts -------------------------------


def _whole_level_G(ev, b, node, w0=None, x0=None):
    """``conjugate_G`` solved at every node of the level, one row kept:
    (w, x, v) at the node."""
    level, idx = node
    q = np.broadcast_to(b.q, (ev.tree.n_nodes(level), ev.tree.n_assets))
    w, x, _, _ = saddle_batch(ev, level, b.u, q, w0=w0, x0=x0)
    fx = ev.sweep_states(level, w, x, q, names=("dx",)).at("dx", level)
    return w[idx], x[idx], b.y * w[idx] / fx[idx]


def _whole_level_state(ev, u, q, node):
    """``state_from_U`` solved at every node of the level, one row kept."""
    level, idx = node
    n, J = ev.tree.n_nodes(level), ev.tree.n_assets
    w, x, _, _ = saddle_batch(ev, level, u, q)
    _, x0, _, _ = saddle_batch(ev, level, u, np.zeros((n, J)), w0=w, x0=x)
    return w[idx], x[idx], -x0[idx]


def test_one_node_solves_match_the_whole_level():
    # the one-node solve sweeps its node's subtree alone, so allocate may
    # stop on other rows and move last bits; the solutions still agree
    # within the saddle tolerance
    rng = np.random.default_rng(21)
    for _ in range(25):
        tree = verify._random_tree(rng)
        pan = verify._random_panel(rng)
        a = verify._random_point(rng, pan.size, tree.n_assets)
        node = verify._random_node(rng, tree)
        ev = FieldEvaluator(pan, tree)
        b = dual_point(ev, a, node)
        tol = conjugate._TOL_SCALE * (1.0 + np.abs(b.u).max())
        for start in ({}, {"w0": a.v / a.v.sum(), "x0": a.x}):
            got = conjugate_G(ev, b, node, **start)
            w, x, v = _whole_level_G(FieldEvaluator(pan, tree), b, node,
                                     **start)
            assert got.residual <= tol
            assert np.abs(got.weights - w).max() <= tol
            assert abs(got.x - x) <= tol * (1.0 + abs(x))
            assert np.abs(got.v - v).max() <= tol * (1.0 + np.abs(v).max())
        got = state_from_U(ev, b.u, a.q, node)
        want = _whole_level_state(FieldEvaluator(pan, tree), b.u, a.q, node)
        assert np.abs(got[0] - want[0]).max() <= tol
        for g, w in zip(got[1:], want[1:]):
            assert abs(g - w) <= tol * (1.0 + abs(w))


def test_one_node_stall_names_that_node(monkeypatch):
    monkeypatch.setattr(conjugate, "_MAX_ITER", 1)
    monkeypatch.setattr(conjugate, "_RESTARTS", 0)
    ev = small_evaluator(pan=MIXED)
    a = PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.3])
    node = (1, 1)
    b = dual_point(ev, a, node)
    with pytest.raises(SaddleError) as info:
        conjugate_G(ev, b, node, w0=[0.5, 0.5], x0=3.0)
    err = info.value
    assert (err.level, err.node) == node
    assert err.tolerance == conjugate._TOL_SCALE * (1.0 + np.abs(b.u).max())
    # the node's own residual, its problem solved alone
    _, _, resid, _ = _newton_alone(
        ev, 1, np.array([1]), b.u[None], b.q[None], np.zeros((1, 1)),
        np.full(1, 3.0), np.full(1, err.tolerance))
    assert err.residual == float(resid[0]) > err.tolerance
    assert f"level 1, node 1: residual {err.residual:.3e}" in str(err)


def test_a_node_out_of_range_is_a_value_error():
    ev = small_evaluator()
    b = DualPoint(u=[-1.0, -1.0], y=1.0, q=[0.0])
    for node in ((1, 2), (1, -1)):
        with pytest.raises(ValueError, match="out of range at level 1"):
            conjugate_G(ev, b, node)


def _stuck_solve(monkeypatch, stuck):
    """Solve the eight distinct problems of level 3 of a 6-step tree with
    the problems ``stuck(call)`` (node indices) held stuck in the
    ``call``-th Newton run: their swept F_v reads +1, which no negative
    target matches, so the line search never moves them.  Returns the
    nodes and results of every Newton run, and the solve or its error."""
    t = binomial_tree(6, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    rng = np.random.default_rng(7)
    u = _execute_targets(ev, 3, np.array([0.5, 0.5]), [0.3])
    u = u * rng.uniform(0.9, 1.1, size=u.shape)
    runs = []
    forest_nodes = {}
    find_forest, newton = FieldEvaluator._forest, conjugate._newton

    def forest(self, level, nodes=None):
        out = find_forest(self, level, nodes)
        forest_nodes[id(out[0])] = (np.arange(self.tree.n_nodes(level))
                                    if nodes is None else np.asarray(nodes))
        return out

    def run(forest_, *args):
        nodes = forest_nodes[id(forest_)]
        runs.append([nodes.copy()])
        rows = np.isin(nodes, list(stuck(len(runs))))
        solve = newton(forest_, *args)
        request = next(solve)
        try:
            while True:
                out = yield request
                out.blocks[0][rows, out.columns["dv"][0]] = 1.0
                request = solve.send(out)
        except StopIteration as stop:
            out = stop.value
        # copies: the solve writes restarts into the first run's arrays
        runs[-1].append([np.copy(a) for a in out])
        return out

    monkeypatch.setattr(FieldEvaluator, "_forest", forest)
    monkeypatch.setattr(conjugate, "_newton", run)
    # a stuck problem runs every iteration and halving: keep them few
    monkeypatch.setattr(conjugate, "_MAX_ITER", 12)
    monkeypatch.setattr(conjugate, "_MAX_HALVINGS", 4)
    try:
        return runs, saddle_batch(ev, 3, u, [0.3], w0=[0.5, 0.5], x0=0.0)
    except SaddleError as err:
        return runs, err


def test_a_stuck_problem_leaves_the_others_first_solution_intact(
        monkeypatch):
    runs, (w, x, resid, _) = _stuck_solve(
        monkeypatch, lambda call: {5} if call == 1 else set())
    (nodes, first), restarts = runs[0], runs[1:]
    assert np.array_equal(nodes, np.arange(8))
    assert first[2][5] > 1.0 and np.all(np.delete(first[2], 5) < 1e-9)
    # only the stuck problem restarts; it is solved, and every other
    # problem keeps its first solution bit for bit
    assert restarts and all(np.array_equal(r[0], [5]) for r in restarts)
    others = np.arange(8) != 5
    for got, want in zip((w, x, resid), first[:3]):
        assert got[others].tobytes() == want[others].tobytes()
    assert resid[5] == restarts[-1][1][2][0] < 1e-9


def test_each_problem_keeps_its_best_restart(monkeypatch):
    # problem 5 stays stuck; problem 2 is stuck in the first run only.
    # The first restart solves problem 2 and leaves problem 5 where it
    # was: problem 2 keeps that restart, so later restarts leave it out
    runs, err = _stuck_solve(
        monkeypatch, lambda call: {2, 5} if call == 1 else {5})
    assert isinstance(err, SaddleError)
    assert (err.level, err.node) == (3, 5)
    assert len(runs) == 1 + conjugate._RESTARTS
    assert np.array_equal(runs[1][0], [2, 5])
    assert runs[1][1][2][0] < 1e-9 < runs[0][1][2][2]
    assert all(np.array_equal(r[0], [5]) for r in runs[2:])


# the sha256 of (w, x, resid) of every Newton run of a stuck solve, as a
# generator made at every call drew them
_STUCK_RUNS = {
    "one-restart": ("50f2cfa17a27c5a17ca5a2c0621796b1875c799b"
                    "57497af47041cb2e09e2d166"),
    "eight-restarts": ("c268279f9f218a16e705e6314f2f365e29263c6c"
                       "69f18c476db82fe9dbf2c15e"),
}


@pytest.mark.parametrize("name, stuck", [
    ("one-restart", lambda call: {5} if call == 1 else set()),
    ("eight-restarts", lambda call: {2, 5} if call == 1 else {5}),
])
def test_restart_generator_is_made_once_and_only_for_a_restart(
        monkeypatch, name, stuck):
    made = []
    default_rng = np.random.default_rng

    def counting(*args):
        made.append(args)
        return default_rng(*args)

    monkeypatch.setattr(np.random, "default_rng", counting)
    # a solve that needs no restart makes no generator
    ev = small_evaluator()
    saddle_batch(ev, 1, [-1.0, -1.0], [0.0])
    assert made == []
    runs, _ = _stuck_solve(monkeypatch, stuck)
    # the targets' jitter, then one generator for all the restarts
    assert made == [(7,), (0,)]
    digest = hashlib.sha256()
    for _, (w, x, resid, _) in runs:
        digest.update(w.tobytes() + x.tobytes() + resid.tobytes())
    assert digest.hexdigest() == _STUCK_RUNS[name]


# -- every level at once -----------------------------------------------------


D1 = binomial_tree(7, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
D2 = binomial_tree(4, 1.0, dim=2, sigma0="0.3 + 0.2 * B1 - 0.1 * B2",
                   psi=("1.0 + 0.5 * B1", "0.8 + 0.4 * B2"))


def _executed(tree, lam=(0.4, 0.6)):
    """An execute run of three trades on ``tree`` with the MIXED panel."""
    J = tree.n_assets
    strategy = SimpleStrategy(levels=(0, 2, tree.steps - 1), positions=(
        np.full(J, 0.5), np.full(J, -0.3), np.full(J, 0.8)))
    return execute_simple(FieldEvaluator(MIXED, tree), strategy,
                          lam0=np.array(lam))


def _level_problems(tree, start):
    """(u, q, w0, x0) of every level: the V phase of ``execute_simple``
    (targets U, position 0, started from the run's weights and cash 0),
    or with ``start`` False the sandwich probe's (targets -1, the run's
    positions, seeded starts)."""
    res = _executed(tree)
    if start:
        return (res.U, [np.zeros((len(u), tree.n_assets)) for u in res.U],
                [res.lam0[None]] + res.W[1:],
                [np.zeros(len(u)) for u in res.U])
    return [-np.ones_like(u) for u in res.U], res.Q, None, None


def _level_loop(tree, u, q, w0=None, x0=None):
    """``saddle_batch`` at each level in turn, on one evaluator."""
    ev = FieldEvaluator(MIXED, tree)
    return [saddle_batch(ev, k, u[k], q[k],
                         w0=None if w0 is None else w0[k],
                         x0=None if x0 is None else x0[k])
            for k in range(len(u))]


def _assert_same_levels(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g[:3], w[:3]):
            assert a.tobytes() == b.tobytes()
        assert g[3] == w[3]


@pytest.mark.parametrize("tree", [D1, D2], ids=["d1", "d2"])
@pytest.mark.parametrize("start", [True, False], ids=["started", "seeded"])
@pytest.mark.parametrize("running", [None, 1, 40], ids=["all", "one", "some"])
def test_levels_solved_together_keep_the_bits_of_each_level(
        monkeypatch, tree, start, running):
    # all levels at once, one at a time, or as many as sweep fewer than
    # 40 leaf rows together
    problems = _level_problems(tree, start)
    if running is not None:
        monkeypatch.setattr(conjugate, "_RUNNING_ROWS", running)
    got = saddle_levels(FieldEvaluator(MIXED, tree), *problems)
    _assert_same_levels(got, _level_loop(tree, *problems))


def test_levels_solved_together_keep_their_restarts(monkeypatch):
    # five Newton steps leave some levels above tolerance: they restart
    # while the others have stopped, each from its own generator
    u, q, _, _ = _level_problems(D1, start=False)
    monkeypatch.setattr(conjugate, "_MAX_ITER", 5)
    got = saddle_levels(FieldEvaluator(MIXED, D1), u, q)
    assert any(iters > conjugate._MAX_ITER for *_, iters in got)
    assert any(iters <= conjugate._MAX_ITER for *_, iters in got)
    _assert_same_levels(got, _level_loop(D1, u, q))


def _first_error(solve):
    with pytest.raises(Exception) as info:
        solve()
    return info.value


def test_levels_solved_together_raise_the_first_levels_error(monkeypatch):
    u, q, _, _ = _level_problems(D1, start=False)
    monkeypatch.setattr(conjugate, "_MAX_ITER", 1)
    monkeypatch.setattr(conjugate, "_RESTARTS", 0)
    err = _first_error(lambda: saddle_levels(FieldEvaluator(MIXED, D1), u, q))
    want = _first_error(lambda: _level_loop(D1, u, q))
    assert isinstance(err, SaddleError) and err.level == 0
    assert str(err) == str(want)


def test_an_allocation_error_is_the_failing_levels_own(monkeypatch):
    # leaf totals below -50 fail to allocate, with a message naming the
    # call's rows: level 3 starts at cash -100 and fails in the first
    # round, whose grouped call fails too, so the round is swept again
    # one level at a time and the error is level 3's own.  With one
    # Newton step, level 1 stalls in a later round; it comes first, so
    # its error is the one raised
    allocate_ = field.allocate
    grouped = []

    def failing(panel_, v, total, groups=None):
        if np.min(total) < -50.0:
            grouped.append(groups is not None)
            raise AllocationError(f"total {np.min(total):.6g} on "
                                  f"{len(total)} rows")
        return allocate_(panel_, v, total, groups)

    u, q, w0, x0 = _level_problems(D1, start=True)
    monkeypatch.setattr(field, "allocate", failing)
    x0[3] = np.full(len(u[3]), -100.0)
    err = _first_error(
        lambda: saddle_levels(FieldEvaluator(MIXED, D1), u, q, w0, x0))
    want = _first_error(lambda: _level_loop(D1, u, q, w0, x0))
    assert isinstance(err, AllocationError)
    assert str(err) == str(want)
    # a grouped call failed first, then the level's own
    assert grouped[:2] == [True, False]
    monkeypatch.setattr(conjugate, "_MAX_ITER", 1)
    monkeypatch.setattr(conjugate, "_RESTARTS", 0)
    err = _first_error(
        lambda: saddle_levels(FieldEvaluator(MIXED, D1), u, q, w0, x0))
    want = _first_error(lambda: _level_loop(D1, u, q, w0, x0))
    assert isinstance(err, SaddleError) and err.level == 1
    assert str(err) == str(want)


def test_the_v_phase_allocates_the_same_rows_in_fewer_calls(monkeypatch):
    # an 8-step execute run with V: the levels' sweeps share allocate
    # calls, and allocate the rows that solving the levels one after
    # another allocates
    tree = binomial_tree(8, 1.0, sigma0="0.3 + 0.2 * B",
                         psi=("1.0 + 0.5 * B",))
    strategy = SimpleStrategy(levels=(0, 2, 7), positions=(0.5, -0.3, 0.8))
    lam = np.array([0.4, 0.6])
    counts = []
    allocate_ = field.allocate
    sweep_ = FieldEvaluator.sweep_leaf_states

    def allocating(panel_, v, total, groups=None):
        if counts:
            counts[-1]["calls"] += 1
            counts[-1]["rows"] += len(total)
        return allocate_(panel_, v, total, groups)

    def sweeping(self, *args, **kwargs):
        if counts:
            counts[-1]["sweeps"] += 1
        return sweep_(self, *args, **kwargs)

    def counted(*args, **kwargs):
        counts.append({"calls": 0, "rows": 0, "sweeps": 0})
        return saddle_levels(*args, **kwargs)

    monkeypatch.setattr(field, "allocate", allocating)
    monkeypatch.setattr(FieldEvaluator, "sweep_leaf_states", sweeping)
    monkeypatch.setattr(engine, "saddle_levels", counted)
    res = execute_simple(FieldEvaluator(MIXED, tree), strategy, lam0=lam,
                         want_interior_V=True)
    together = counts.pop()
    assert together["calls"] < together["sweeps"]
    # the same V phase level by level, after the same trades
    ev = FieldEvaluator(MIXED, tree)
    execute_simple(ev, strategy, lam0=lam)
    counts.append({"calls": 0, "rows": 0, "sweeps": 0})
    V = [-saddle_batch(ev, k, res.U[k], np.zeros((len(u), 1)),
                       w0=res.W[k] if k else lam[None],
                       x0=np.zeros(len(u)))[1]
         for k, u in enumerate(res.U)]
    alone = counts.pop()
    assert alone["sweeps"] == together["sweeps"]
    assert alone["rows"] == together["rows"]
    assert alone["calls"] > together["calls"]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(V, res.V))


def test_levels_start_while_the_running_ones_sweep_few_rows(monkeypatch):
    # a level starts only while the levels running sweep fewer leaf rows
    # than the bound, so no round sweeps more than the bound plus one
    # level's forest
    tree = binomial_tree(8, 1.0, sigma0="0.3 + 0.2 * B",
                         psi=("1.0 + 0.5 * B",))
    res = execute_simple(FieldEvaluator(MIXED, tree), SimpleStrategy(
        levels=(0, 3), positions=(0.5, -0.3)), lam0=np.array([0.4, 0.6]))
    u = [-np.ones_like(x) for x in res.U]
    rounds = []
    sweep_together = conjugate.sweep_together

    def recording(requests):
        rounds.append([r[0].tree.n_leaves for r in requests])
        return sweep_together(requests)

    monkeypatch.setattr(conjugate, "sweep_together", recording)
    monkeypatch.setattr(conjugate, "_RUNNING_ROWS", 60)
    got = saddle_levels(FieldEvaluator(MIXED, tree), u, res.Q)
    assert max(map(len, rounds)) > 1
    assert all(sum(r[:-1]) < 60 for r in rounds)
    assert any(sum(r) >= 60 for r in rounds)
    _assert_same_levels(got, _level_loop(tree, u, res.Q))

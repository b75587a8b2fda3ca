import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indiffmarket import conjugate
from indiffmarket.conjugate import (
    DualPoint,
    SaddleError,
    conjugacy_residuals,
    conjugate_G,
    dual_point,
    matrices_dual,
    matrices_primal,
    saddle_batch,
    state_identities,
)
from indiffmarket.field import FieldEvaluator
from indiffmarket.representative import PrimalPoint, allocate
from indiffmarket.tree import binomial_tree
from indiffmarket.utilities import exponential, panel, sum_of_exponentials

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

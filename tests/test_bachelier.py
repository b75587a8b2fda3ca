import numpy as np
import pytest
from conftest import assert_same_bits
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indiffmarket.bachelier import BachelierParams
from indiffmarket.engine import (
    SimpleStrategy,
    execute_simple,
    indifference_cash,
    simulate_sde_paths,
)
from indiffmarket.field import FieldEvaluator
from indiffmarket.representative import PrimalPoint

REF = BachelierParams(gamma=1.0, b=0.0, mu=0.1, sigma=0.2, s=10.0, horizon=1.0)


def test_N0_deterministic_case():
    p = BachelierParams(gamma=2.0, b=0.0, mu=0.0, sigma=0.2, s=1.0, horizon=1.0)
    assert p.N0(0.0) == pytest.approx(-0.5)
    assert p.N(0.0, 0.7, 0.0) == pytest.approx(-0.5)


def test_N_log_increments_reproduce_kappa():
    # d(log -N) along B has slope -kappa(q)
    q = 0.7
    kappa = REF.kappa(q)
    t = 0.4
    h = 1e-6
    dlog = (np.log(-REF.N(q, t, h)) - np.log(-REF.N(q, t, -h))) / (2 * h)
    assert dlog == pytest.approx(-kappa, rel=1e-8)


def test_N0_against_monte_carlo():
    rng = np.random.default_rng(17)
    n = 10 ** 6
    bt = rng.normal(scale=np.sqrt(REF.horizon), size=n)
    sigma0 = REF.b + (REF.mu / (REF.gamma * REF.sigma)) * bt
    psi = REF.s + REF.mu * REF.horizon + REF.sigma * bt
    samples = -np.exp(-REF.gamma * (sigma0 + 1.0 * psi)) / REF.gamma
    mc = samples.mean()
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(REF.N0(1.0) - mc) < 3.0 * se


def test_kernel_closed_form():
    assert REF.kernel_K(-1.0, 0.0) == pytest.approx(REF.mu / REF.sigma)
    assert REF.kernel_K(-2.0, 0.3) == pytest.approx(2.0 * REF.kernel_K(-1.0, 0.3))
    q = 1.2
    u = -0.4
    assert REF.kernel_K(u, q) == pytest.approx(
        -(REF.mu / REF.sigma + REF.gamma * REF.sigma * q) * u)


def test_field_F_matches_tree_within_discretization():
    q = np.array([0.6])
    errs = []
    for steps in (8, 16):
        t = REF.tree(steps)
        ev = FieldEvaluator(REF.panel(), t)
        f = ev.field(PrimalPoint(v=[1.0], x=0.2, q=q)).value
        errs.append(abs(f - REF.field_F(1.0, 0.2, q[0])))
    assert errs[0] < 0.01 * abs(REF.field_F(1.0, 0.2, q[0]))
    assert errs[1] < errs[0]


def test_gain_examples():
    steps = 64
    times = np.linspace(0.0, 1.0, steps + 1)
    rng = np.random.default_rng(18)
    db = rng.normal(scale=np.sqrt(1.0 / steps), size=(1, steps))
    zero = REF.gain(np.zeros(steps), db, times)
    assert np.max(np.abs(zero)) < 1e-15
    qbar = 0.9
    v = REF.gain(np.full(steps, qbar), db, times)
    s_move = REF.mu * 1.0 + REF.sigma * db.sum()
    expected = -qbar * s_move - 0.5 * REF.gamma * REF.sigma ** 2 * qbar ** 2
    assert v[0, -1] == pytest.approx(expected, rel=1e-12)
    # the quadratic impact term is invariant under Q -> -Q
    v_neg = REF.gain(np.full(steps, -qbar), db, times)
    assert v[0, -1] + v_neg[0, -1] == pytest.approx(
        -REF.gamma * REF.sigma ** 2 * qbar ** 2, rel=1e-12)


def test_indifference_price_values():
    assert REF.indifference_price(0.0) == 0.0
    q = 1.0
    # makers demand compensation beyond the linear leg on both sides
    assert REF.indifference_price(q) + REF.indifference_price(-q) > 0
    expected = -q * REF.s + 0.5 * REF.gamma * REF.sigma ** 2 * q ** 2 * REF.horizon
    assert REF.indifference_price(q) == pytest.approx(expected, rel=1e-12)


def test_indifference_price_against_monte_carlo_root():
    rng = np.random.default_rng(19)
    n = 10 ** 6
    bt = rng.normal(scale=1.0, size=n)
    sigma0 = REF.b + (REF.mu / (REF.gamma * REF.sigma)) * bt
    psi = REF.s + REF.mu * REF.horizon + REF.sigma * bt
    u = lambda x: -np.exp(-REF.gamma * x) / REF.gamma
    target = u(sigma0).mean()
    q = 1.0

    def gap(xi):
        return u(sigma0 + xi + q * psi).mean() - target

    lo, hi = -20.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    xi_mc = 0.5 * (lo + hi)
    samples = u(sigma0 + REF.indifference_price(q) + q * psi)
    se = samples.std(ddof=1) / np.sqrt(n)
    # translate the MC standard error on the mean into cash units
    cash_se = se / abs(u(sigma0).mean() * REF.gamma)
    assert abs(REF.indifference_price(q) - xi_mc) < 3.0 * cash_se


def test_tree_indifference_cash_converges_to_closed_form():
    q = 1.0
    target = REF.indifference_price(q)
    errs = [abs(indifference_cash(FieldEvaluator(REF.panel(), REF.lattice(n)),
                                  q) - target)
            for n in (32, 64, 128)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_marginal_price_converges_to_bachelier_price():
    # error roughly halves per refinement at q = 0
    errs = []
    for steps in (4, 8, 16):
        t = REF.tree(steps)
        ev = FieldEvaluator(REF.panel(), t)
        price, gap = ev.marginal_price(PrimalPoint(v=[1.0], x=0.0, q=[0.0]))
        assert gap < 1e-10
        errs.append(abs(price[0] - REF.price(0.0, 0.0)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] < 0.75 * errs[0]
    assert errs[2] < 0.75 * errs[1]


def test_indirect_utility_identity_on_euler_paths():
    # U_t = e^{gamma V_t} N_t(0) for the exact solution; Euler output
    # matches to scheme tolerance
    steps = 256
    lat = REF.lattice(steps)
    qbar = 1.0
    bundle = simulate_sde_paths(FieldEvaluator(REF.panel(), lat),
                                [qbar] * steps, REF.N0(0.0), 200, seed=20)
    j, db = bundle.j, bundle.db
    times = lat.times
    closed = REF.indirect_utility(np.full(steps, qbar), db, times,
                                  u0=REF.N0(0.0))
    err = np.max(np.abs(bundle.U - closed) / np.abs(closed))
    assert err < 0.05
    gains = REF.gain(np.full(steps, qbar), db, times)
    b_path = np.concatenate(
        [np.zeros((db.shape[0], 1)), np.cumsum(db, axis=1)], axis=1)
    n0 = np.array([[REF.N(0.0, times[k], b_path[i, k])
                    for k in range(steps + 1)] for i in range(5)])
    ident = np.exp(REF.gamma * gains[:5]) * n0
    assert np.max(np.abs(bundle.U[:5] - ident) / np.abs(ident)) < 0.05


def test_engine_gain_matches_closed_form_paths():
    steps = 256
    lat = REF.lattice(steps)
    qbar = 1.0
    bundle = simulate_sde_paths(FieldEvaluator(REF.panel(), lat),
                                [qbar] * steps, REF.N0(0.0), 500, seed=21)
    closed = REF.gain(np.full(steps, qbar), bundle.db, lat.times)
    budget = 0.5 * REF.gamma * REF.sigma ** 2 * REF.horizon
    err = np.abs(bundle.V[:, -1] - closed[:, -1]).mean()
    assert err < 0.02 * budget


def test_param_validation():
    with pytest.raises(ValueError):
        BachelierParams(gamma=-1.0, b=0.0, mu=0.0, sigma=0.2, s=1.0, horizon=1.0)
    with pytest.raises(ValueError):
        BachelierParams(gamma=1.0, b=0.0, mu=0.0, sigma=0.0, s=1.0, horizon=1.0)


# -- step-major oracle against its former cumsum(axis=1) forms -----------


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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n_paths=st.integers(1, 50), steps=st.integers(1, 64),
       data=st.data())
@example(n_paths=3, steps=4, data=None)
def test_oracle_matches_cumsum_forms(n_paths, steps, data):
    if data is None:
        q = np.array([0.0, -0.0, 1.0, 0.0])
        seed, even, step_major = 0, True, True
    else:
        q = np.array(data.draw(st.lists(
            st.sampled_from([0.0, -1.5, -0.5, 0.25, 1.0, 3.0]),
            min_size=steps, max_size=steps)))
        seed = data.draw(st.integers(0, 2 ** 16))
        even = data.draw(st.booleans())
        step_major = data.draw(st.booleans())
    rng = np.random.default_rng(seed)
    dt = (np.full(steps, 0.7 / steps) if even
          else rng.uniform(0.001, 0.1, size=steps))
    times = np.concatenate([[0.0], np.cumsum(dt)])
    db = rng.normal(size=(n_paths, steps)) * np.sqrt(dt)
    if step_major:  # as the path engines hand it over
        db = np.ascontiguousarray(db.T).T
    for par in (REF, BachelierParams(gamma=2.5, b=0.3, mu=-0.2, sigma=0.7,
                                     s=1.0, horizon=0.7)):
        got = par.gain(q, db, times)
        assert got.shape == (n_paths, steps + 1)
        assert_same_bits(got, _cumsum_gain(par, q, db, times), exact=True)
        for u0 in (None, -0.8):
            got = par.indirect_utility(q, db, times, u0=u0)
            want = _cumsum_indirect_utility(par, q, db, times, u0=u0)
            assert got.shape == (n_paths, steps + 1)
            assert_same_bits(got, want, exact=True)


def test_oracle_accepts_one_path_as_a_vector():
    db = np.array([0.1, -0.2, 0.05])
    times = np.linspace(0.0, 1.0, 4)
    assert_same_bits(REF.gain(1.0, db, times),
                     _cumsum_gain(REF, 1.0, db, times), exact=True)
    assert_same_bits(REF.indirect_utility(1.0, db, times),
                     _cumsum_indirect_utility(REF, 1.0, db, times), exact=True)

import numpy as np
import pytest

from indiffmarket import field, representative
from indiffmarket.conjugate import saddle_batch
from indiffmarket.field import FieldEvaluator
from indiffmarket.representative import PrimalPoint
from indiffmarket.tree import binomial_lattice, binomial_tree
from indiffmarket.utilities import exponential, panel, sum_of_exponentials
from indiffmarket.verify import corrupt_tree

EXP1 = panel(exponential(1.0))
PAIR = panel(exponential(1.0), exponential(1.0))
MIXED = panel(sum_of_exponentials([1.0, 0.5], [1.0, 2.0]), exponential(2.0))


def one_period(sigma0=0.0, psi=("B",)):
    return binomial_tree(1, 1.0, dim=1, sigma0=sigma0, psi=psi)


def test_terminal_values():
    t = one_period(sigma0=0.0, psi=(1.0,))
    ev = FieldEvaluator(EXP1, t)
    f0 = ev.field(PrimalPoint(v=[1.0], x=0.0, q=[0.0]), node=(1, 0))
    assert f0.value == pytest.approx(-1.0)
    f1 = ev.field(PrimalPoint(v=[1.0], x=0.0, q=[1.0]), node=(1, 0))
    assert f1.value == pytest.approx(-np.exp(-1.0))

    t2 = binomial_tree(1, 1.0, sigma0=1.0, psi=(0.0,))
    ev2 = FieldEvaluator(PAIR, t2)
    f2 = ev2.field(PrimalPoint(v=[1.0, 1.0], x=0.0, q=[0.0]), node=(1, 0))
    assert f2.value == pytest.approx(-2.0 * np.exp(-0.5))


def test_root_value_one_period():
    t = one_period(sigma0=0.0, psi=("B",))
    # scale increments to +-1 by using horizon so sqrt(dt)=1
    t = binomial_tree(1, 1.0, sigma0=0.0, psi=(lambda b: np.sign(b[:, 0]),))
    ev = FieldEvaluator(EXP1, t)
    root0 = ev.field(PrimalPoint(v=[1.0], x=0.0, q=[0.0]))
    assert root0.value == pytest.approx(-1.0)
    root1 = ev.field(PrimalPoint(v=[1.0], x=0.0, q=[1.0]))
    assert root1.value == pytest.approx(-np.cosh(1.0))


def test_field_at_leaf_equals_terminal():
    t = binomial_tree(3, 1.0, sigma0="0.2 * B", psi=("B",))
    ev = FieldEvaluator(MIXED, t)
    a = PrimalPoint(v=[0.7, 1.4], x=0.3, q=[0.5])
    f = ev.field(a, node=(3, 5))
    s = float(t.sigma0[5] + a.x + a.q[0] * t.psi[5, 0])
    from indiffmarket.representative import representative_utility
    r, _, y = representative_utility(MIXED, a.v, s)
    assert f.value == pytest.approx(r, rel=1e-13)
    assert f.dx == pytest.approx(y, rel=1e-13)


def test_exact_martingale_of_value_and_derivatives():
    t = binomial_tree(4, 1.0, dim=2, sigma0="0.1 * B1", psi=("B1", "B2 - B1"))
    ev = FieldEvaluator(MIXED, t)
    a = PrimalPoint(v=[1.0, 0.5], x=-0.2, q=[0.4, -0.3])
    sweep = ev.sweep_point(a, order=2)
    assert ev.martingale_deviation(sweep) < 1e-12


def test_gradients_match_finite_differences():
    t = binomial_tree(3, 1.0, sigma0="0.3 + 0.2 * B", psi=("B",))
    ev = FieldEvaluator(MIXED, t)
    rng = np.random.default_rng(10)
    h = 1e-5
    for _ in range(10):
        v = np.exp(rng.normal(size=2))
        x = rng.normal()
        q = rng.normal(size=1)
        node = (int(rng.integers(0, 3)), 0)
        a = PrimalPoint(v=v, x=x, q=q)
        f = ev.field(a, node=node)

        def val(vv, xx, qq):
            return ev.field(PrimalPoint(v=vv, x=xx, q=qq), node=node).value

        fx = (val(v, x + h, q) - val(v, x - h, q)) / (2 * h)
        assert abs(f.dx - fx) < 1e-6 * (1 + abs(f.dx))
        fq = (val(v, x, q + h) - val(v, x, q - h)) / (2 * h)
        assert abs(f.dq[0] - fq) < 1e-6 * (1 + abs(f.dq[0]))
        for m in range(2):
            vp, vm = v.copy(), v.copy()
            vp[m] += h
            vm[m] -= h
            fv = (val(vp, x, q) - val(vm, x, q)) / (2 * h)
            assert abs(f.dv[m] - fv) < 1e-6 * (1 + abs(f.dv[m]))


def test_field_shape_properties():
    # (F2)-(F4): decreasing in v, increasing concave in x, 1-homogeneous in v
    t = binomial_tree(2, 1.0, sigma0=0.0, psi=("B",))
    ev = FieldEvaluator(PAIR, t)
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = np.exp(rng.normal(size=2))
        x = rng.normal()
        q = rng.normal(size=1)
        f = ev.field(PrimalPoint(v=v, x=x, q=q), order=2)
        assert f.value < 0
        assert f.dx > 0
        assert np.all(f.dv < 0)
        assert f.dxx < 0
        c = rng.uniform(0.5, 2.0)
        fc = ev.field(PrimalPoint(v=c * v, x=x, q=q))
        assert fc.value == pytest.approx(c * f.value, rel=1e-12)


def test_integrand_flat_when_position_zero():
    t = binomial_tree(2, 1.0, sigma0=0.5, psi=("B",))
    ev = FieldEvaluator(EXP1, t)
    h, dhdv, resid = ev.integrand(PrimalPoint(v=[1.0], x=0.3, q=[0.0]), (0, 0))
    assert np.max(np.abs(h)) < 1e-14
    assert resid < 1e-14


def test_integrand_two_point_formula():
    t = binomial_tree(1, 0.25, sigma0=0.0, psi=("B",))
    ev = FieldEvaluator(EXP1, t)
    a = PrimalPoint(v=[1.0], x=0.0, q=[0.7])
    h, _, resid = ev.integrand(a, (0, 0))
    f_up = ev.field(a, node=(1, 0)).value
    f_dn = ev.field(a, node=(1, 1)).value
    sdt = np.sqrt(0.25)
    assert h[0] == pytest.approx((f_up - f_dn) / (2 * sdt), rel=1e-12)
    assert resid < 1e-13


def test_integrand_reconstructs_field_along_paths():
    t = binomial_tree(4, 1.0, sigma0="0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    a = PrimalPoint(v=[1.2, 0.8], x=0.1, q=[0.6])
    f_root = ev.field(a).value
    for leaf in (0, 5, 15):
        total = 0.0
        idx = leaf
        path = [t.ancestor_index(4, np.array([leaf]), k)[0] for k in range(5)]
        for k in range(4):
            i = int(path[k])
            e = int(path[k + 1]) - i * t.branching(k)
            h, _, _ = ev.integrand(a, (k, i))
            db = t.edge_db[k][i, e]
            total += float(h @ db)
        f_leaf = ev.field(a, node=(4, leaf)).value
        assert f_leaf - f_root == pytest.approx(total, abs=1e-12)


def test_marginal_price_symmetric_zero():
    t = binomial_tree(1, 1.0, sigma0=0.0, psi=(lambda b: np.sign(b[:, 0]),))
    ev = FieldEvaluator(EXP1, t)
    price, gap = ev.marginal_price(PrimalPoint(v=[1.0], x=0.0, q=[0.0]))
    assert abs(price[0]) < 1e-14
    assert gap < 1e-12


def test_marginal_price_density_route_agrees():
    t = binomial_tree(4, 1.0, sigma0="0.1 * B", psi=("2.0 + 0.5 * B",))
    ev = FieldEvaluator(EXP1, t)
    price, gap = ev.marginal_price(PrimalPoint(v=[1.0], x=0.2, q=[0.3]))
    assert gap < 1e-12
    assert np.isfinite(price[0])


def test_sweep_cache_consistency():
    t = binomial_tree(3, 1.0, sigma0=0.0, psi=("B",))
    ev = FieldEvaluator(MIXED, t)
    a = PrimalPoint(v=[1.0, 1.0], x=0.0, q=[0.5])
    s1 = ev.sweep_point(a, order=1, names=("dv",))
    s2 = ev.sweep_point(a, order=2)
    # the filtered sweep must not shadow the full request
    assert "dxx" in s2.comps
    assert np.allclose(s1.at("dv", 0), s2.at("dv", 0))


@pytest.fixture
def allocate_rows(monkeypatch):
    """Row count of every ``allocate`` call, order-2 sweeps included."""
    rows = []
    original = representative.allocate

    def counting(panel_, v, total):
        rows.append(np.shape(total)[0])
        return original(panel_, v, total)

    monkeypatch.setattr(representative, "allocate", counting)
    monkeypatch.setattr(field, "allocate", counting)
    return rows


def _node_states(rng, tree, level):
    n = tree.n_nodes(level)
    return (rng.uniform(0.3, 2.0, size=(n, 2)), rng.uniform(-1.0, 1.0, size=n),
            rng.uniform(-1.0, 1.0, size=(n, tree.n_assets)))


@pytest.mark.parametrize("tree", [
    binomial_tree(7, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",)),
    binomial_tree(4, 1.0, dim=2, sigma0="0.3 + 0.2 * B1 - 0.1 * B2",
                  psi=("1.0 + 0.5 * B1", "0.8 + 0.4 * B2")),
], ids=["d1", "d2"])
def test_recombined_sweep_matches_leaf_sweep(tree, allocate_rows):
    ev = FieldEvaluator(MIXED, tree)
    rng = np.random.default_rng(5)
    for level in range(tree.steps + 1):
        v, x, q = _node_states(rng, tree, level)
        del allocate_rows[:]
        fast = ev.sweep_states(level, v, x, q, order=2)
        per_node = (tree.steps - level + 1) ** tree.dim
        recombined = tree.steps - level >= 2
        assert allocate_rows == [tree.n_nodes(level) * per_node if recombined
                                 else tree.n_leaves]
        owner = tree.leaf_owner(level)
        full = ev.sweep_leaf_states(v[owner], x[owner], q[owner], order=2)
        assert fast.comps.keys() == full.comps.keys()
        for name, levels in full.comps.items():
            if recombined:
                assert all(a is None for a in fast.comps[name][:level])
            for k in range(level, tree.steps + 1):
                ref = levels[k]
                assert fast.comps[name][k].shape == ref.shape
                assert np.all(np.abs(fast.comps[name][k] - ref)
                              <= 1e-13 * (1.0 + np.abs(ref))), (name, level, k)


def test_recombined_sweep_point_matches_leaf_sweep(allocate_rows):
    t = binomial_tree(6, 1.0, dim=1, sigma0="0.1 * B", psi=("B", "2.0 - B"))
    ev = FieldEvaluator(MIXED, t)
    a = PrimalPoint(v=[0.8, 1.3], x=0.2, q=[0.4, -0.7])
    fast = ev.sweep_point(a, order=2)
    assert allocate_rows == [7]
    n = t.n_leaves
    full = ev.sweep_leaf_states(np.tile(a.v, (n, 1)), np.full(n, a.x),
                                np.tile(a.q, (n, 1)), order=2)
    for name, levels in full.comps.items():
        for k, ref in enumerate(levels):
            assert np.all(np.abs(fast.comps[name][k] - ref)
                          <= 1e-13 * (1.0 + np.abs(ref))), (name, k)
    assert ev.martingale_deviation(fast) < 1e-12


def _leaf_path_trees():
    base = binomial_tree(5, 1.0, sigma0="0.3 + 0.2 * B",
                         psi=("1.0 + 0.5 * B",))
    noise = np.random.default_rng(8).normal(size=base.n_leaves)
    return {
        "corrupt-probabilities": corrupt_tree(base, "probabilities", seed=2),
        "table-not-of-B": binomial_tree(5, 1.0, sigma0=base.sigma0.copy(),
                                        psi=(noise,)),
        "lattice": binomial_lattice(5, 1.0, sigma0="0.3 + 0.2 * B",
                                    psi=("1.0 + 0.5 * B",)),
    }


@pytest.mark.parametrize("kind", sorted(_leaf_path_trees()))
def test_unrecombinable_trees_take_the_leaf_sweep(kind, allocate_rows):
    t = _leaf_path_trees()[kind]
    ev = FieldEvaluator(MIXED, t)
    ev.sweep_point(PrimalPoint(v=[1.0, 1.0], x=0.1, q=[0.3]), order=2)
    assert allocate_rows == [t.n_leaves]
    if t.implicit:
        ev.sweep_states(1, *_node_states(np.random.default_rng(0), t, 1))
        assert allocate_rows[-1] == t.n_leaves


def test_payoff_table_of_B_takes_the_recombined_sweep(allocate_rows):
    base = binomial_tree(5, 1.0, sigma0="0.3 + 0.2 * B",
                         psi=("1.0 + 0.5 * B",))
    t = binomial_tree(5, 1.0, sigma0=base.sigma0.copy(),
                      psi=(base.psi[:, 0].copy(),))
    a = PrimalPoint(v=[1.0, 1.0], x=0.1, q=[0.3])
    fast = FieldEvaluator(MIXED, t).sweep_point(a, order=2)
    assert allocate_rows == [6]
    ref = FieldEvaluator(MIXED, base).sweep_point(a, order=2)
    for name in ref.comps:
        assert np.allclose(fast.at(name, 0), ref.at(name, 0),
                           rtol=1e-13, atol=1e-13)


def test_terminal_computes_only_requested_components():
    t = binomial_tree(3, 1.0, dim=2, sigma0="0.1 * B1",
                      psi=("B1", "B2 - B1"))
    ev = FieldEvaluator(MIXED, t)
    rng = np.random.default_rng(4)
    n = t.n_leaves
    v, x, q = (rng.uniform(0.3, 2.0, size=(n, 2)), rng.normal(size=n),
               rng.normal(size=(n, 2)))
    for order, subsets in ((1, [("dx",), ("dq", "value")]),
                           (2, [("dv", "dvv", "dvx"), ("dqq",), ("dvq", "dx")])):
        every = ev._terminal(v, x, q, order)
        for names in subsets:
            some = ev._terminal(v, x, q, order, names)
            assert tuple(some) == names
            for name in names:
                assert np.array_equal(some[name], every[name])


def test_newton_sweep_work_count(allocate_rows):
    # one Newton sweep at level 2 of a 13-step tree: 4 nodes times 12
    # count classes, not 2^13 leaves
    t = binomial_tree(13, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    u = ev.field(PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.0])).dv
    del allocate_rows[:]
    saddle_batch(ev, 2, u, np.full((4, 1), 0.3), w0=[0.5, 0.5], x0=0.0)
    assert allocate_rows and set(allocate_rows) == {48}


def test_saddle_probe_allocation_count(allocate_rows):
    # six Newton sweeps and five line-search trials; every trial is
    # accepted at both nodes, so the next Newton sweep reuses its split:
    # 7 allocations, where one allocation per sweep would be 12
    t = binomial_tree(4, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    u = ev.field(PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.3]), node=(1, 0)).dv
    del allocate_rows[:]
    _, _, _, iters = saddle_batch(ev, 1, u, [0.3], w0=[0.7, 0.3], x0=1.0)
    assert iters == 6
    assert allocate_rows == [8] * 7


def test_leaf_allocation_memo_holds_the_last_state(allocate_rows):
    t = binomial_tree(3, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    rng = np.random.default_rng(11)
    n = t.n_leaves
    a = (rng.uniform(0.3, 2.0, size=(n, 2)), rng.normal(size=n),
         rng.normal(size=(n, 1)))
    b = (a[0], a[1] + 0.25, a[2])
    ref = FieldEvaluator(MIXED, t).sweep_leaf_states(*a, order=2)
    del allocate_rows[:]
    # one entry: A, B, A allocates three times
    for state, order in ((a, 1), (b, 1), (a, 2)):
        last = ev.sweep_leaf_states(*state, order=order)
    assert len(allocate_rows) == 3
    # B twice, then A: the repeat of B allocates nothing, and the
    # reused split gives the same bits
    del allocate_rows[:]
    for state, order in ((b, 1), (b, 2), (a, 2)):
        last = ev.sweep_leaf_states(*state, order=order)
    assert len(allocate_rows) == 2
    for name in ref.comps:
        for k in range(t.steps + 1):
            assert np.array_equal(last.at(name, k), ref.at(name, k))

    total = t.sigma0 + a[1] + (t.psi * a[2]).sum(axis=1)
    y, pi = ev._allocate(a[0], total)
    assert ev._allocate(a[0].copy(), total.copy())[0] is y
    with pytest.raises(ValueError, match="read-only"):
        y[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        pi += 1.0


@pytest.mark.parametrize("tree", [
    binomial_tree(5, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",)),
    binomial_tree(4, 1.0, dim=2, sigma0="0.3 + 0.2 * B1 - 0.1 * B2",
                  psi=("1.0 + 0.5 * B1", "0.8 + 0.4 * B2")),
], ids=["d1", "d2"])
def test_recombined_sweep_spreads_levels_as_read(tree, monkeypatch):
    ev = FieldEvaluator(MIXED, tree)
    rng = np.random.default_rng(6)
    spread = []
    original = tree.spread_recombined

    def counting(level, depth, values):
        spread.append((level, depth))
        return original(level, depth, values)

    monkeypatch.setattr(tree, "spread_recombined", counting)
    for level in range(tree.steps - 1):
        v, x, q = _node_states(rng, tree, level)
        small = ev._recombined(level)
        per = small.tree.n_leaves // tree.n_nodes(level)
        swept = small.sweep_leaf_states(
            np.repeat(v, per, axis=0), np.repeat(x, per),
            np.repeat(q, per, axis=0), order=2)
        eager = {name: [original(level, s, arr) for s, arr in enumerate(levels)]
                 for name, levels in swept.comps.items()}
        del spread[:]
        sweep = ev.sweep_states(level, v, x, q, order=2)
        assert spread == []
        assert np.array_equal(sweep.at("dv", level), eager["dv"][0])
        assert spread == [(level, 0)]
        for name, levels in eager.items():
            assert sweep.at(name, level - 1) is None
            for s, ref in enumerate(levels):
                got = sweep.at(name, level + s)
                assert got.shape == ref.shape and np.array_equal(got, ref)
        n_read = len(spread)
        comps = sweep.comps
        assert len(spread) == n_read
        assert comps.keys() == eager.keys()
        for name, levels in eager.items():
            assert comps[name][:level] == [None] * level
            for s, ref in enumerate(levels):
                assert np.array_equal(comps[name][level + s], ref)
                assert np.array_equal(sweep.at(name, level + s), ref)
        # comps first, at after: the same arrays
        sweep = ev.sweep_states(level, v, x, q, order=2)
        for name, levels in eager.items():
            for s, ref in enumerate(levels):
                assert np.array_equal(sweep.comps[name][level + s], ref)
                assert sweep.at(name, level + s) is sweep.comps[name][level + s]

import gc
import weakref

import numpy as np
import pytest

from indiffmarket import field, representative, verify
from indiffmarket.conjugate import saddle_batch
from indiffmarket.field import (_FIRST, _SECOND, FieldEvaluator, Sweep,
                               distinct_rows)
from indiffmarket.representative import PrimalPoint
from indiffmarket.tree import binomial_lattice, binomial_tree
from indiffmarket.utilities import (UtilitySpec, exponential, panel,
                                   sum_of_exponentials)
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


def test_point_memo_tells_points_apart_by_their_bits():
    # x = 0.2 and 0.2 + 4e-13 agree to 12 digits but are two points: the
    # second gets its own sweep, as from a fresh evaluator
    t = binomial_tree(4, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    near = PrimalPoint(v=[0.5, 0.5], x=0.2 + 4e-13, q=[0.3])
    first = ev.field(PrimalPoint(v=[0.5, 0.5], x=0.2, q=[0.3])).value
    got = ev.field(near).value
    assert got == FieldEvaluator(MIXED, t).field(near).value
    assert got != first


@pytest.mark.parametrize("tree", [
    binomial_tree(4, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",)),
    binomial_tree(4, 1.0, psi=(np.arange(16.0),)),
    binomial_lattice(4, 1.0, psi=("B",)),
], ids=["recombined", "leaves", "lattice"])
def test_evaluator_is_freed_without_the_cycle_collector(tree):
    # the evaluator keeps its sweeps and forests; none of them may refer
    # back to it, or a dropped evaluator would wait for the collector
    ev = FieldEvaluator(MIXED, tree)
    ev.sweep_point(PrimalPoint(v=[1.0, 1.0], x=0.1, q=[0.3]), order=2)
    if tree.implicit:
        ev.sweep_states(2, *_node_states(np.random.default_rng(1), tree, 2))
    ref = weakref.ref(ev)
    gc.disable()
    try:
        del ev
        assert ref() is None
    finally:
        gc.enable()


def test_root_forest_outlives_a_probe_of_another_level(monkeypatch):
    # a probe from the root to level 2 and back builds each recombined
    # forest once: the root's (level 0, all nodes) is kept beside the
    # last level's, and a root sweep does not drop the last level's
    # (keeping only the last level's would build four)
    tree = binomial_tree(5, 1.0, sigma0="0.3 + 0.2 * B",
                         psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, tree)
    built = []
    recombine = type(tree).recombine

    def counting(self, level, nodes=None):
        built.append(level)
        return recombine(self, level, nodes)

    monkeypatch.setattr(type(tree), "recombine", counting)
    states = _node_states(np.random.default_rng(3), tree, 2)
    for x in (0.1, 0.2):
        ev.sweep_point(PrimalPoint(v=[1.0, 1.0], x=x, q=[0.3]))
        ev.sweep_states(2, *states)
    assert built == [0, 2]


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


@pytest.mark.parametrize("kind", ["corrupt-probabilities", "table-not-of-B"])
def test_unrecombined_level_sweeps_the_subtrees_of_its_nodes(kind):
    # a level that does not recombine sweeps its nodes' own subtrees:
    # the levels above it are None, and the others hold the bits of the
    # leaf sweep with each node's state at the leaves below it
    t = _leaf_path_trees()[kind]
    ev = FieldEvaluator(MIXED, t)
    rng = np.random.default_rng(3)
    for level in range(1, t.steps + 1):
        v, x, q = _node_states(rng, t, level)
        sweep = ev.sweep_states(level, v, x, q, order=2)
        owner = t.leaf_owner(level)
        full = FieldEvaluator(MIXED, t).sweep_leaf_states(
            v[owner], x[owner], q[owner], order=2)
        for name, levels in full.comps.items():
            assert sweep.comps[name][:level] == [None] * level
            for k in range(level, t.steps + 1):
                assert sweep.at(name, k).tobytes() == levels[k].tobytes()


def _subset_cases():
    d1 = binomial_tree(7, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    d2 = binomial_tree(4, 1.0, dim=2, sigma0="0.3 + 0.2 * B1 - 0.1 * B2",
                       psi=("1.0 + 0.5 * B1", "0.8 + 0.4 * B2"))
    leaf = _leaf_path_trees()
    return {"d1": (d1, (0, 2, 5, 6, 7)), "d2": (d2, (1, 2, 3, 4)),
            "corrupt": (leaf["corrupt-probabilities"], (1, 3, 5)),
            "table": (leaf["table-not-of-B"], (0, 2, 4)),
            "lattice": (leaf["lattice"], (0,))}


@pytest.mark.parametrize("kind", sorted(_subset_cases()))
def test_node_subset_sweep_of_the_distinct_states(kind, allocate_rows):
    # states repeat over the nodes of a level; the subtrees of one node
    # per distinct (subtree class, state) give every node's values of
    # the level sweep bit for bit, from the leaves of those nodes only
    tree, levels = _subset_cases()[kind]
    ev = FieldEvaluator(MIXED, tree)
    rng = np.random.default_rng(21)
    for level in levels:
        n = tree.n_nodes(level)
        pick = rng.integers(0, 3, size=n)
        v, x, q = (rng.uniform(0.3, 2.0, size=(3, 2))[pick],
                   rng.uniform(-1.0, 1.0, size=3)[pick],
                   rng.uniform(-1.0, 1.0, size=(3, tree.n_assets))[pick])
        full = ev.sweep_states(level, v, x, q, order=2)
        nodes, node_of = distinct_rows(np.column_stack(
            [ev.subtree_classes(level), v, x, q]))
        del allocate_rows[:]
        some = ev.sweep_nodes(level, nodes, v[nodes], x[nodes], q[nodes],
                              order=2)
        if len(nodes) == n:
            # every node of the level: the level sweep's own forest, whose
            # split is reused
            assert allocate_rows == []
        else:
            per = ev._forest(level)[0].tree.n_leaves // n
            assert allocate_rows == [len(nodes) * per]
        for name in full.names:
            got, want = some.at(name, 0)[node_of], full.at(name, level)
            assert got.tobytes() == want.tobytes(), (level, name)


@pytest.mark.parametrize("kind", sorted(_subset_cases()))
def test_node_subset_sweep_in_any_order_with_closed_form_splits(kind):
    # with an all-exponential panel the split of a leaf does not depend
    # on the other leaves allocated with it, so any subset of nodes, in
    # any order, gives their values of the level sweep bit for bit
    tree, levels = _subset_cases()[kind]
    ev = FieldEvaluator(PAIR, tree)
    rng = np.random.default_rng(22)
    for level in levels:
        n = tree.n_nodes(level)
        v, x, q = _node_states(rng, tree, level)
        full = ev.sweep_states(level, v, x, q, order=2)
        nodes = rng.permutation(n)[:max(1, n // 3)]
        some = ev.sweep_nodes(level, nodes, v[nodes], x[nodes], q[nodes],
                              order=2)
        for name in full.names:
            got, want = some.at(name, 0), full.at(name, level)[nodes]
            assert got.tobytes() == want.tobytes(), (level, name)


def test_distinct_rows_go_by_bits():
    nan2 = np.array([np.nan]).view(np.int64) + 1
    rows = np.array([[1.0, 0.0], [1.0, -0.0], [1.0, 0.0], [np.nan, 1.0],
                     [nan2.view(float)[0], 1.0], [np.nan, 1.0]])
    first, inverse = distinct_rows(rows)
    assert first.tolist() == [0, 1, 3, 4]
    assert inverse.tolist() == [0, 1, 0, 2, 3, 2]


def test_martingale_deviation_catches_one_perturbed_entry():
    # a clean order-2 sweep is a one-step martingale in every component
    # to rounding level; 1e-6 added to one dvq entry at one interior
    # level must show, on levels spread from a recombined forest and on
    # a tree's own levels alike
    for tree, recombined in (
            (binomial_tree(5, 1.0, sigma0="0.3 + 0.2 * B",
                           psi=("1.0 + 0.5 * B",)), True),
            (_leaf_path_trees()["table-not-of-B"], False)):
        ev = FieldEvaluator(MIXED, tree)
        assert (ev._forest(0)[1] is not None) == recombined
        sweep = ev.sweep_point(PrimalPoint(v=[0.7, 1.2], x=0.2, q=[0.4]),
                               order=2)
        assert ev.martingale_deviation(sweep) < 1e-12
        sweep.comps["dvq"][2][1, 0, 0] += 1e-6
        assert ev.martingale_deviation(sweep) > 1e-8


def test_martingale_deviation_equals_the_gap_of_each_component():
    # one expect per level on the components packed side by side gives
    # the bits of ``martingale_gap`` run on each component alone: on
    # clean sweeps, recombined or not, with one entry moved, and then
    # with a NaN in another component at that level, which counts for
    # nothing there but leaves the moved entry's gap the worst
    rng = np.random.default_rng(8)
    for case in range(30):
        tree = verify._random_tree(rng)
        ev = FieldEvaluator(verify._random_panel(rng), tree)
        a = verify._random_point(rng, ev.panel.size, tree.n_assets)
        sweep = ev.sweep_point(a, order=1 + case % 2)
        level = int(rng.integers(1, tree.steps + 1))
        names = list(sweep.names)
        moved = names[case % len(names)]
        for name, change in ((None, None), (moved, 1e-6),
                             (names[(case + 1) % len(names)], np.nan)):
            if name is not None:
                values = sweep.comps[name][level]
                values[tuple(int(rng.integers(0, n))
                             for n in values.shape)] += change
            want = max(tree.martingale_gap(levels)
                       for levels in sweep.comps.values())
            assert ev.martingale_deviation(sweep) == want
            if name is not None:
                assert want > 1e-9


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
        block, columns = ev._terminal(v, x, q, order)
        every = Sweep(t, [block], columns)
        for names in subsets:
            block, columns = ev._terminal(v, x, q, order, names)
            assert tuple(columns) == names
            some = Sweep(t, [block], columns)
            for name in names:
                assert np.array_equal(some.at(name, 0), every.at(name, 0))


def test_newton_sweep_work_count(allocate_rows):
    # level 2 of a 13-step tree, one target: its 4 nodes hold 3 distinct
    # problems, one per down-move count, each swept on its 12 count
    # classes (not 2^11 leaves), in every Newton sweep and trial
    t = binomial_tree(13, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    u = ev.field(PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.0])).dv
    del allocate_rows[:]
    saddle_batch(ev, 2, u, np.full((4, 1), 0.3), w0=[0.5, 0.5], x0=0.0)
    assert allocate_rows == [36] * 6


def test_saddle_probe_allocation_count(allocate_rows):
    # six Newton iterations in eight sweeps on two distinct problems
    # (the two nodes): the first full-step trial is not accepted at
    # both, so a halved trial follows and the second iterate is swept
    # afresh on that trial's split; from there both accept every full
    # step, whose trial sweep is the next iterate's: 7 allocations,
    # where one allocation per sweep would be 8
    t = binomial_tree(4, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    u = ev.field(PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.3]), node=(1, 0)).dv
    del allocate_rows[:]
    _, _, _, iters = saddle_batch(ev, 1, u, [0.3], w0=[0.7, 0.3], x0=1.0)
    assert iters == 6
    assert allocate_rows == [8] * 7


def test_full_newton_steps_cost_one_sweep_each(allocate_rows, monkeypatch):
    # from this start both nodes take the full step at every iteration,
    # so each first trial's sweep is the next iterate's: one order-2
    # sweep per iteration (11 sweeps when every iterate was swept again)
    # and one allocation per sweep, as many as with the memo alone
    t = binomial_tree(4, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    u = ev.field(PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.3]), node=(1, 0)).dv
    orders = []
    sweep = FieldEvaluator.sweep_leaf_states

    def counting(self, v, x, q, order=1, names=None, split=None):
        orders.append(order)
        return sweep(self, v, x, q, order, names, split)

    monkeypatch.setattr(FieldEvaluator, "sweep_leaf_states", counting)
    del allocate_rows[:]
    _, _, _, iters = saddle_batch(ev, 1, u, [0.3], w0=[0.5, 0.5], x0=1.0)
    assert iters == 6
    assert orders == [2] * iters
    assert allocate_rows == [8] * iters


@pytest.mark.parametrize("level", [0, 5, 11, 12, 13])
def test_saddle_allocates_rows_of_the_distinct_problems_only(allocate_rows,
                                                             level):
    # one target, position and start for the whole level: the problems
    # are the subtree classes, r of them, and the first sweep allocates
    # the leaves below r nodes (their recombined count classes on levels
    # 0 to 11, their own leaves on levels 12 and 13), no more
    t = binomial_tree(13, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(MIXED, t)
    u = ev.field(PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.0])).dv
    r = len(set(ev.subtree_classes(level).tolist()))
    per = t.steps - level + 1 if level < 12 else 2 ** (t.steps - level)
    assert r < t.n_nodes(level) or level == 0
    del allocate_rows[:]
    saddle_batch(ev, level, u, [0.3], w0=[0.5, 0.5], x0=0.0)
    assert allocate_rows[0] == r * per
    assert max(allocate_rows) == r * per


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
        small = FieldEvaluator(MIXED, tree.recombine(level))
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


def _component_shapes(M, J):
    return {"value": (), "dv": (M,), "dx": (), "dq": (J,),
            "dvv": (M, M), "dvx": (M,), "dvq": (M, J), "dxx": (),
            "dxq": (J,), "dqq": (J, J)}


@pytest.mark.parametrize("order", [1, 2, pytest.param(None, id="by-name")])
@pytest.mark.parametrize("tree", [
    binomial_tree(4, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",)),
    binomial_tree(3, 1.0, dim=2, sigma0="0.3 + 0.2 * B1 - 0.1 * B2",
                  psi=("1.0 + 0.5 * B1", "0.8 + 0.4 * B2")),
    binomial_lattice(5, 1.0, sigma0="0.1 * B", psi=("B",)),
], ids=["d1", "d2", "lattice"])
def test_sweep_components_are_node_arrays_of_their_own_bits(tree, order):
    # every swept level of a component is an array of one entry per node
    # in the component's shape, and the packed sweep gives it the bits of
    # a sweep of that component alone; "by-name" sweeps each component of
    # order 2 alone at the default order, so a second-order name alone
    # must bring its own second-order leaf work
    ev = FieldEvaluator(MIXED, tree)
    shapes = _component_shapes(MIXED.size, tree.n_assets)
    rng = np.random.default_rng(8)
    n = tree.n_leaves
    full = 2 if order is None else order
    by = {} if order is None else {"order": order}
    leaf = (rng.uniform(0.5, 1.5, size=(n, MIXED.size)),
            rng.normal(0.0, 0.3, size=n),
            rng.normal(0.0, 0.5, size=(n, tree.n_assets)))
    sweeps = [(ev.sweep_leaf_states(*leaf, order=full),
               lambda name: ev.sweep_leaf_states(*leaf, names=(name,),
                                                 **by), 0)]
    for level in range(tree.steps - 1) if tree.implicit else ():
        state = _node_states(rng, tree, level)
        assert tree.recombine(level) is not None
        sweeps.append((ev.sweep_states(level, *state, order=full),
                       lambda name, lv=level, st=state: ev.sweep_states(
                           lv, *st, names=(name,), **by), level))
    for sweep, alone, first in sweeps:
        assert set(sweep.comps) == set(_FIRST + _SECOND if full == 2
                                       else _FIRST)
        for name, levels in sweep.comps.items():
            assert len(levels) == tree.steps + 1
            assert levels[:first] == [None] * first
            single = alone(name).comps[name]
            for k in range(first, tree.steps + 1):
                arr = levels[k]
                assert isinstance(arr, np.ndarray)
                assert arr.shape == (tree.n_nodes(k),) + shapes[name]
                assert arr.nbytes // arr.shape[0] == 8 * max(
                    1, int(np.prod(shapes[name])))
                assert single[k].shape == arr.shape
                assert single[k].tobytes() == arr.tobytes(), (name, k)


def test_unknown_component_name_is_a_value_error():
    ev = FieldEvaluator(MIXED, binomial_tree(3, 1.0, sigma0="0.3 + 0.2 * B",
                                             psi=("1.0 + 0.5 * B",)))
    point = PrimalPoint(v=[0.5, 0.5], x=0.0, q=[0.0])
    with pytest.raises(ValueError, match="unknown field component 'dV'"):
        ev.sweep_point(point, names=("dv", "dV"))
    with pytest.raises(ValueError, match="'dV'"):
        ev.sweep_states(0, point.v[None], [0.0], [[0.0]], names=("dV",))


# -- the lean leaf fill and node reads, pinned to their formulas ------------

THREE = panel(sum_of_exponentials([1.0, 0.5], [1.0, 2.0]), exponential(2.0),
              sum_of_exponentials([0.3, 0.7, 1.1], [0.5, 1.0, 3.0]))


def _ref_terminal(ev, v, x, q):
    """Every leaf component by its own formula, each maker's utility and
    risk aversion from kernel calls of their own: the oracle of the
    packed leaf block."""
    tree, pnl = ev.tree, ev.panel
    M = pnl.size
    total = tree.sigma0 + x + (tree.psi * q).sum(axis=1)
    y, pi = representative.allocate(pnl, v, total)
    u = np.stack([s.value(pi[:, m]) for m, s in enumerate(pnl.makers)],
                 axis=1)
    t = np.stack([1.0 / s.risk_aversion(pi[:, m])
                  for m, s in enumerate(pnl.makers)], axis=1)
    tsum = t.sum(axis=1)
    rxx = -y / tsum
    tv = t / v
    rvx = y[:, None] * tv / tsum[:, None]
    dvv = -np.einsum("nl,nm,n->nlm", tv, tv, y / tsum)
    dvv[:, np.arange(M), np.arange(M)] += y[:, None] * t / v ** 2
    return {"value": (v * u).sum(axis=1), "dv": u, "dx": y,
            "dq": tree.psi * y[:, None], "dvv": dvv, "dvx": rvx,
            "dvq": np.einsum("nm,nj->nmj", rvx, tree.psi), "dxx": rxx,
            "dxq": tree.psi * rxx[:, None],
            "dqq": np.einsum("ni,nj,n->nij", tree.psi, tree.psi, rxx)}


@pytest.mark.parametrize("pnl", [MIXED, THREE], ids=["M2", "M3"])
@pytest.mark.parametrize("order, names", [
    (1, ("dv",)), (2, ("dv", "dvv", "dvx")), (1, None), (2, None)],
    ids=["dv", "newton", "order1", "order2"])
def test_terminal_block_has_the_bits_of_each_formula(pnl, order, names):
    t = binomial_tree(3, 1.0, dim=2, sigma0="0.1 * B1",
                      psi=("B1", "B2 - B1"))
    ev = FieldEvaluator(pnl, t)
    rng = np.random.default_rng(12)
    n = t.n_leaves
    v, x, q = (rng.uniform(0.3, 2.0, size=(n, pnl.size)),
               rng.normal(size=n), rng.normal(size=(n, 2)))
    ref = _ref_terminal(ev, v, x, q)
    block, columns = ev._terminal(v, x, q, order, names)
    want = names or (_FIRST + _SECOND if order == 2 else _FIRST)
    assert tuple(columns) == want
    assert block.shape[1] == sum(ref[name][0].size for name in want)
    got = Sweep(t, [block], columns)
    for name in want:
        assert got.at(name, 0).tobytes() == ref[name].tobytes(), name


@pytest.mark.parametrize("tree", [
    binomial_tree(5, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",)),
    binomial_tree(4, 1.0, dim=2, sigma0="0.3 + 0.2 * B1 - 0.1 * B2",
                  psi=("1.0 + 0.5 * B1", "0.8 + 0.4 * B2")),
], ids=["d1", "d2"])
def test_node_reads_of_a_recombined_sweep_are_rows_of_the_spread_level(
        tree):
    # at(name, level, i) reads node i's class row; the bits are those of
    # row i of the spread level, on forests of one root and of several
    ev = FieldEvaluator(MIXED, tree)
    rng = np.random.default_rng(13)
    for level in range(tree.steps - 1):
        state = _node_states(rng, tree, level)
        rows = ev.sweep_states(level, *state, order=2)
        assert rows._spread is not None
        spread = ev.sweep_states(level, *state, order=2)
        for name in spread.names:
            for k in range(level, tree.steps + 1):
                full = spread.at(name, k)
                for i in range(tree.n_nodes(k)):
                    assert rows.at(name, k, i).tobytes() == full[i].tobytes()
                some = np.array([tree.n_nodes(k) - 1, 0, 1 % tree.n_nodes(k)])
                assert rows.at(name, k, some).tobytes() == full[some].tobytes()
    point = ev.sweep_point(PrimalPoint(v=[0.6, 1.2], x=0.1, q=[0.2] *
                                       tree.n_assets), order=2)
    assert point._spread is not None
    for name in point.names:
        for k in range(tree.steps + 1):
            full = point.comps[name][k]
            for i in range(tree.n_nodes(k)):
                assert point.at(name, k, i).tobytes() == full[i].tobytes()


@pytest.mark.parametrize("pnl", [MIXED, THREE], ids=["M2", "M3"])
def test_one_node_sweep_allocates_once_and_evaluates_each_maker_once(
        pnl, allocate_rows, monkeypatch):
    # the fixed work of the order-2 sweep a saddle Newton iteration makes:
    # one allocate over the node's leaves, then one evaluation of each
    # maker's terms for its utility and its risk tolerance together
    t = binomial_tree(4, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(pnl, t)
    calls = []
    original = UtilitySpec._terms

    def counted(self, x):
        calls.append(self)
        return original(self, x)

    monkeypatch.setattr(UtilitySpec, "_terms", counted)
    w = np.full((1, pnl.size), 1.0 / pnl.size)
    ev.sweep_nodes(1, [1], w, np.array([0.1]), np.array([[0.3]]), order=2,
                   names=("dv", "dvv", "dvx"))
    assert allocate_rows == [4]
    assert calls == list(pnl.makers)


@pytest.mark.parametrize("dim", [1, 2])
def test_recombined_sweeps_and_one_node_solves_build_no_child_indices(
        dim, monkeypatch):
    # a recombined forest is cut from its tree's rows, so neither a level
    # sweep on it nor a one-node saddle solve from a given start builds
    # child index arrays
    from indiffmarket.tree import RowWindows

    calls = []
    children = RowWindows.children

    def counted_children(self, *args):
        calls.append(args)
        return children(self, *args)

    monkeypatch.setattr(RowWindows, "children", counted_children)
    t = binomial_tree(5, 1.0, dim=dim, sigma0="0.3 + 0.2 * B1",
                      psi=("1.0 + 0.5 * B1",))
    ev = FieldEvaluator(MIXED, t)
    level, n = 2, t.n_nodes(2)
    sweep = ev.sweep_states(level, np.full((n, 2), 0.5), np.zeros(n),
                            np.full((n, 1), 0.3))
    assert ev._forest(level)[1] is not None
    sweep.comps
    u = sweep.at("dv", level, 1)
    saddle_batch(ev, level, u, [0.3], w0=[0.7, 0.3], x0=1.0, nodes=[1])
    assert calls == []
    assert "child_idx" not in vars(t)


@pytest.mark.parametrize("tree", [
    binomial_tree(5, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",)),
    binomial_tree(3, 1.0, dim=2, sigma0="0.3 + 0.2 * B1 - 0.1 * B2",
                  psi=("1.0 + 0.5 * B1", "0.8 + 0.4 * B2")),
    binomial_lattice(6, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",)),
], ids=["d1", "d2", "lattice"])
def test_sweep_slope_is_the_increment_slope_on_its_tree(tree):
    # point, level and node-subset sweeps: slope reads the sweep's own
    # tree, the forest for a node subset, bit for bit
    ev = FieldEvaluator(MIXED, tree)
    J = tree.n_assets
    sweeps = [(ev.sweep_point(PrimalPoint(v=[0.6, 1.4], x=0.1,
                                          q=np.full(J, 0.3))), 0)]
    if tree.implicit:
        n = tree.n_nodes(1)
        state = (np.full((n, 2), 0.5), np.linspace(-0.2, 0.2, n),
                 np.full((n, J), 0.3))
        sweeps.append((ev.sweep_states(1, *state), 1))
        some = ev.sweep_nodes(1, [1], *(a[[1]] for a in state))
        assert some.tree is ev._forest(1, [1])[0].tree
        sweeps.append((some, 0))
    for sweep, first in sweeps:
        for level in range(first, sweep.tree.steps):
            for name in ("value", "dv", "dq"):
                got = sweep.slope(name, level)
                want = field.increment_slope(sweep.tree, level,
                                             sweep.at(name, level),
                                             sweep.at(name, level + 1))
                for a, b in zip(got, want, strict=True):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

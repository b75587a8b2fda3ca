from dataclasses import replace

import numpy as np
import pytest

from indiffmarket.payoff import PayoffExpression
from indiffmarket.tree import (RowWindows, ScenarioTree, binomial_lattice,
                              binomial_tree, count_classes)
from indiffmarket.verify import corrupt_tree


def test_binomial_tree_shapes():
    t = binomial_tree(4, 1.0, dim=1, sigma0=0.0, psi=("B",))
    assert t.steps == 4
    assert t.horizon == pytest.approx(1.0)
    assert t.n_assets == 1
    assert t.n_leaves == 16
    assert sum(t.n_nodes(k) for k in range(5)) == 31
    for k in range(4):
        assert t.n_nodes(k) == 2 ** k
        assert t.branching(k) == 2
        assert t.dt(k) == pytest.approx(0.25)


def test_binomial_tree_moment_matching():
    for dim in (1, 2):
        t = binomial_tree(3, 0.75, dim=dim)
        prob_err, mean_err, cov_err = t.moment_errors()
        assert prob_err < 1e-14
        assert mean_err < 1e-14
        assert cov_err < 1e-14
        assert t.consistency_error() < 1e-14


def test_children_exceed_dimension():
    # the integrand solve needs >= d+1 children per node
    for dim in (1, 2, 3):
        t = binomial_tree(2, 1.0, dim=dim)
        assert t.branching(0) >= dim + 1


def test_node_probabilities_sum_to_one():
    # the nodes of level k of a 5-step tree are the leaves of its first
    # k steps
    t = binomial_tree(5, 1.0)
    for k in range(1, 6):
        p = binomial_tree(k, k / 5).leaf_probabilities()
        assert p.shape == (t.n_nodes(k),)
        assert p.sum() == pytest.approx(1.0)
    assert np.allclose(t.leaf_probabilities(), 1.0 / 32.0)


def test_lattice_recombination():
    t = binomial_lattice(6, 1.5)
    sdt = np.sqrt(0.25)
    for k in range(7):
        assert t.n_nodes(k) == k + 1
        expected = (2 * np.arange(k + 1) - k) * sdt
        assert np.allclose(t.B[k][:, 0], expected[::-1] * -1.0) or \
            np.allclose(np.sort(t.B[k][:, 0]), np.sort(expected))
    # node probabilities are binomial weights, at every level
    from math import comb
    for k in range(1, 7):
        p = binomial_lattice(k, 0.25 * k).leaf_probabilities()
        ref = np.array([comb(k, j) for j in range(k + 1)]) / 2.0 ** k
        assert np.allclose(np.sort(p), np.sort(ref))
    assert max(t.moment_errors()) < 1e-14
    assert t.consistency_error() < 1e-14


def test_ancestor_index_consistency():
    t = binomial_tree(4, 1.0)
    leaves = np.arange(t.n_leaves)
    for k in range(5):
        anc = t.ancestor_index(4, leaves, k)
        assert np.array_equal(anc, leaves // 2 ** (4 - k))
        owner = t.leaf_owner(k)
        assert np.array_equal(owner, anc)


def test_leaf_owner_at_root_is_zero_on_every_tree():
    # the root owns every leaf, also on lattices, where deeper levels
    # have no single ancestor
    for t in (binomial_tree(3, 1.0, dim=2), binomial_lattice(5, 1.0)):
        owner = t.leaf_owner(0)
        assert np.array_equal(owner, np.zeros(t.n_leaves, dtype=int))
    with pytest.raises(ValueError, match="implicit"):
        binomial_lattice(5, 1.0).leaf_owner(1)


def test_consistency_error_and_sign_corruption():
    t = binomial_tree(3, 1.0)
    assert t.consistency_error() < 1e-14
    bad = corrupt_tree(t, "signs", seed=0)
    assert bad.consistency_error() > 1e-3


def test_probability_corruption_breaks_moments():
    t = binomial_tree(3, 1.0)
    bad = corrupt_tree(t, "probabilities", seed=0)
    prob_err, mean_err, _ = bad.moment_errors()
    assert max(prob_err, mean_err) > 1e-3
    assert max(t.moment_errors()) < 1e-14


def test_leaf_payoffs_affine():
    t = binomial_tree(2, 1.0, sigma0="1.0 + 0.5 * B", psi=("2.0 - B",))
    b = t.B[-1][:, 0]
    assert np.allclose(t.sigma0, 1.0 + 0.5 * b)
    assert np.allclose(t.psi[:, 0], 2.0 - b)


def test_leaf_payoffs_callable_and_scalar():
    t = binomial_tree(2, 1.0, sigma0=0.7, psi=(lambda b: b[:, 0] ** 2,))
    assert np.allclose(t.sigma0, 0.7)
    assert np.allclose(t.psi[:, 0], t.B[-1][:, 0] ** 2)


def test_node_columns_format():
    t = binomial_tree(2, 1.0, dim=1)
    cols = t.node_columns()
    assert list(cols) == ["node_id", "parent_id", "t", "prob", "dB_1",
                          "sigma0", "psi_1"]
    n = sum(t.n_nodes(k) for k in range(t.steps + 1))
    assert all(c.shape == (n,) for c in cols.values())
    assert cols["node_id"][0] == 0 and cols["parent_id"][0] == -1
    # edge probabilities out of each parent sum to one
    leaf = cols["t"] == t.times[-1]
    assert leaf.sum() == t.n_leaves
    by_parent = {}
    for parent, p in zip(cols["parent_id"][leaf], cols["prob"][leaf]):
        by_parent[parent] = by_parent.get(parent, 0.0) + p
    for total in by_parent.values():
        assert total == pytest.approx(1.0)
    # leaves carry payoffs, interior nodes do not
    assert not np.isnan(cols["sigma0"][leaf]).any()
    assert np.isnan(cols["psi_1"][~leaf]).all()


def test_payoff_expression_grammar():
    e = PayoffExpression("1.5 + 2.0 * B - B / 4")
    b = np.array([[0.0], [2.0]])
    assert np.allclose(e(b), [1.5, 1.5 + 4.0 - 0.5])
    e2 = PayoffExpression("B1 * 2 + B2")
    b2 = np.array([[1.0, 3.0]])
    assert np.allclose(e2(b2), [5.0])


def test_payoff_expression_rejects_unsafe():
    for text in ("__import__('os')", "exp(B)", "B ** 2", "C + 1"):
        with pytest.raises(ValueError):
            PayoffExpression(text)


def test_tree_rejects_bad_inputs():
    with pytest.raises(ValueError):
        binomial_tree(0, 1.0)
    with pytest.raises(ValueError):
        binomial_lattice(3, -1.0)


def test_expect_on_lattice_matches_hand_means():
    t = binomial_lattice(2, 1.0)
    # level-1 node j moves to j+1 (up) or j (down), each with probability 1/2
    nxt = np.array([[1.0, 10.0], [3.0, 30.0], [7.0, 70.0]])
    assert np.array_equal(t.expect(1, nxt), [[2.0, 20.0], [5.0, 50.0]])
    assert np.array_equal(t.expect(0, np.array([4.0, -2.0])), [1.0])
    # gap scaled by 1 + |X_0|; a masked-out child drops its parent
    levels = [np.array([0.5]), np.array([1.0, -1.0]),
              np.array([2.0, 0.0, -2.0])]
    assert t.martingale_gap(levels) == pytest.approx(0.5 / 1.5)
    ok = [np.array([True]), np.array([True, False]), np.ones(3, bool)]
    assert t.martingale_gap(levels, ok=ok) == 0.0


def test_expect_on_two_dimensional_tree_matches_hand_means():
    t = binomial_tree(2, 1.0, dim=2)
    nxt = np.arange(16.0)
    # children of level-1 node i are 4i..4i+3, each with probability 1/4
    assert np.array_equal(t.expect(1, nxt), [1.5, 5.5, 9.5, 13.5])
    pairs = np.stack([nxt, nxt ** 2], axis=1)
    assert np.allclose(t.expect(1, pairs)[0], [1.5, (0 + 1 + 4 + 9) / 4])
    assert np.array_equal(t.expect(0, np.array([2.0, 4.0, 6.0, 12.0])), [6.0])


@pytest.mark.parametrize("dim", [1, 2])
def test_count_classes_follow_implicit_children(dim):
    nc = 1 << dim
    for s in range(4):
        cls, rep, child = count_classes(dim, s)
        assert rep.size == (s + 1) ** dim and cls.size == nc ** s
        assert all(rep[c] == np.flatnonzero(cls == c)[0]
                   for c in range(rep.size))
        deeper = count_classes(dim, s + 1)[0]
        # child e of descendant r is descendant r * nc + e one step deeper
        assert np.array_equal(deeper.reshape(-1, nc), child[cls])


@pytest.mark.parametrize("dim, steps", [(1, 6), (2, 4)])
def test_recombined_tree_carries_the_subtree_law(dim, steps):
    t = binomial_tree(steps, 1.0, dim=dim, sigma0="0.3 + 0.2 * B",
                      psi=("B1", f"1.0 - 0.5 * B{dim}"))
    small = t.recombine(0)
    assert max(small.moment_errors()) < 1e-12
    assert small.consistency_error() < 1e-12
    assert small.n_leaves == (steps + 1) ** dim and not small.implicit
    cls = count_classes(dim, steps)[0]
    mass = np.bincount(cls, weights=t.leaf_probabilities())
    assert np.allclose(small.leaf_probabilities(), mass, rtol=1e-14, atol=0)
    assert np.allclose(small.psi[cls], t.psi, rtol=1e-13, atol=1e-13)
    for level in range(steps - 1):
        small = t.recombine(level)
        n, per = t.n_nodes(level), (steps - level + 1) ** dim
        assert small.n_nodes(0) == n and small.n_leaves == n * per
        assert np.array_equal(small.B[0], t.B[level])


def test_recombine_guards():
    t = binomial_tree(5, 1.0, sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B",))
    assert t.recombine(3) is not None
    assert t.recombine(4) is None and t.recombine(5) is None
    assert corrupt_tree(t, "probabilities", seed=1).recombine(0) is None
    assert binomial_lattice(5, 1.0, psi=("B",)).recombine(0) is None
    # a per-leaf table passes only when it is a function of the counts
    rng = np.random.default_rng(3)
    noise = binomial_tree(5, 1.0, psi=(rng.normal(size=t.n_leaves),))
    assert noise.recombine(0) is None
    table = binomial_tree(5, 1.0, sigma0=t.sigma0.copy(), psi=(t.psi[:, 0],))
    assert table.recombine(0) is not None
    nudged = t.sigma0.copy()
    nudged[7] += 1e-9
    assert binomial_tree(5, 1.0, sigma0=nudged, psi=("B",)).recombine(0) is None


def _gather_expect(tree, level, values):
    """The gather formula: copy each node's children out by index, then
    sum the weighted copies over the edge axis."""
    g = values[tree.child_idx[level]]
    p = tree.edge_p[level]
    return (p.reshape(p.shape + (1,) * (g.ndim - 2)) * g).sum(axis=1)


def _every_tree_kind():
    for dim, steps in ((1, 4), (2, 3), (3, 3)):
        t = binomial_tree(steps, 1.0, dim=dim, sigma0="0.3 + 0.2 * B1",
                          psi=("B1", f"1.0 - 0.5 * B{dim}"))
        yield f"tree-d{dim}", t
        for level in range(steps - 1):
            yield f"forest-d{dim}-{level}", t.recombine(level)
    yield "lattice", binomial_lattice(5, 1.0)


def _awkward_values(rng, tree, level, shape):
    """Values for the children of ``level`` with -0.0, 0, +-1e300 and
    normals at mixed scales; one node's children are all -0.0."""
    n = tree.n_nodes(level + 1)
    v = rng.normal(size=(n,) + shape) * 10.0 ** rng.integers(
        -3, 4, size=(n,) + shape)
    pick = rng.integers(0, 5, size=v.shape)
    v[pick == 0] = -0.0
    v[pick == 1] = 0.0
    v[pick == 2] = rng.choice([1e300, -1e300], size=(pick == 2).sum())
    v[tree.child_idx[level][rng.integers(0, tree.n_nodes(level))]] = -0.0
    return v


@pytest.mark.parametrize("name, tree", list(_every_tree_kind()),
                         ids=[name for name, _ in _every_tree_kind()])
def test_expect_matches_the_gather_bit_for_bit(name, tree):
    rng = np.random.default_rng(12)
    for level in range(tree.steps):
        for shape in ((), (2,), (3, 3), (7,)):
            values = _awkward_values(rng, tree, level, shape)
            got = tree.expect(level, values)
            ref = _gather_expect(tree, level, values)
            if tree.branching(level) >= 8 and values[0].size == 1:
                # numpy adds a contiguous run of 8 or more terms pairwise,
                # not in edge order; with two columns the edge axis is
                # not the contiguous one and the gather adds in order
                two = np.stack([values.ravel(), values.ravel()], axis=1)
                ref = _gather_expect(tree, level, two)[:, 0].reshape(
                    ref.shape)
            assert got.shape == ref.shape == (tree.n_nodes(level),) + shape
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes(), (level, shape)
            # the all -0.0 node comes out +0.0, as from the gather
            assert not np.signbit(got[got == 0]).any()


def _cuts():
    """(tree, level, cut): ``cut(nodes)`` is the forest below ``nodes`` of
    ``level`` of ``tree``; the recombined forest of some nodes is cut
    from the tree it was recombined from."""
    d1 = binomial_tree(5, 1.0, sigma0="0.3 + 0.2 * B1")
    d2 = binomial_tree(3, 1.0, dim=2, psi=("B1", "B2"))
    leaves = binomial_tree(3, 1.0)
    return {
        "tree-d1": (d1, 2, lambda nodes: d1.subtrees(2, nodes)),
        "tree-d2": (d2, 1, lambda nodes: d2.subtrees(1, nodes)),
        "forest": (d1.recombine(2), 0, lambda nodes: d1.recombine(2, nodes)),
        "leaves": (leaves, 3, lambda nodes: leaves.subtrees(3, nodes)),
    }


@pytest.mark.parametrize("name", list(_cuts()))
def test_subtrees_hold_the_descendants_of_the_nodes_given(name):
    tree, level, cut = _cuts()[name]
    rng = np.random.default_rng(4)
    nodes = rng.permutation(tree.n_nodes(level))[:3]
    sub = cut(nodes)
    assert sub.steps == tree.steps - level
    assert np.array_equal(sub.B[0], tree.B[level][nodes])
    # a process on the tree, restricted to the subtrees, has the same
    # conditional expectations; the leaves below node i are the i-th
    # block of the leaf rows
    n = tree.n_nodes(level)
    values = rng.normal(size=(tree.n_leaves, 2))
    mine = values.reshape(n, -1, 2)[nodes].reshape(-1, 2)
    assert np.array_equal(sub.sigma0, tree.sigma0.reshape(n, -1)[nodes]
                          .ravel())
    for k in range(tree.steps - 1, level - 1, -1):
        values = tree.expect(k, values)
        mine = sub.expect(k - level, mine)
    assert mine.tobytes() == values[nodes].tobytes()


def test_subtrees_need_contiguous_descendants():
    lattice = binomial_lattice(4, 1.0)
    assert lattice.subtrees(0, [0]).n_leaves == lattice.n_leaves
    with pytest.raises(ValueError, match="subtrees"):
        lattice.subtrees(1, [0])


def test_subtrees_of_every_node_are_views_of_the_levels():
    t = binomial_tree(4, 1.0, sigma0="0.3 + 0.2 * B", psi=("B",))
    sub = t.subtrees(1)
    assert np.array_equal(sub.sigma0, t.subtrees(1, [0, 1]).sigma0)
    for mine, theirs in ((sub.B, t.B[1:]), (sub.edge_p, t.edge_p[1:]),
                         (sub.edge_db, t.edge_db[1:]),
                         ([sub.sigma0, sub.psi], [t.sigma0, t.psi])):
        assert all(np.shares_memory(a, b) and np.array_equal(a, b)
                   for a, b in zip(mine, theirs, strict=True))


def _forest_roots(forest, nodes):
    """The forest below some roots of a recombined forest, cut as the
    subtrees of its level 0: the descendants of root i at level s are
    its rows i c_s .. (i + 1) c_s - 1, c_s rows per root."""
    n, rows = forest.n_nodes(0), []
    for k in range(forest.steps + 1):
        c = forest.n_nodes(k) // n
        rows.append((np.asarray(nodes)[:, None] * c + np.arange(c)).ravel())
    return ScenarioTree(
        times=forest.times, B=[b[r] for b, r in zip(forest.B, rows)],
        windows=forest.windows,
        edge_db=[a[r] for a, r in zip(forest.edge_db, rows)],
        edge_p=[a[r] for a, r in zip(forest.edge_p, rows)],
        sigma0=forest.sigma0[rows[-1]], psi=forest.psi[rows[-1]])


@pytest.mark.parametrize("dim, steps", [(1, 7), (2, 4)])
def test_recombined_forest_of_some_nodes_is_cut_from_the_whole(dim, steps):
    # recombine(level, nodes) builds directly, bit for bit, the forest
    # that cutting the roots ``nodes`` out of recombine(level) gives
    t = binomial_tree(steps, 1.0, dim=dim, sigma0="0.3 + 0.2 * B1",
                      psi=("B1", f"1.0 - 0.5 * B{dim}"))
    rng = np.random.default_rng(9)
    for level in range(steps - 1):
        n = t.n_nodes(level)
        for nodes in (rng.permutation(n)[:max(1, n // 2)], np.arange(n)):
            got = t.recombine(level, nodes)
            want = _forest_roots(t.recombine(level), nodes)
            assert got.steps == want.steps and not got.implicit
            assert got.windows == want.windows
            for name in ("times", "sigma0", "psi"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            for name in ("B", "edge_db", "edge_p", "child_idx"):
                for a, b in zip(getattr(got, name), getattr(want, name),
                                strict=True):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_implicit_is_read_from_the_windows(dim):
    t = binomial_tree(4, 1.0, dim=dim, sigma0="0.3 + 0.2 * B1",
                      psi=("1.0 + 0.5 * B1",))
    assert t.implicit
    for level in range(t.steps):
        assert t.subtrees(level).implicit
        assert t.subtrees(level, np.arange(t.n_nodes(level))[::-2]).implicit
    for level in range(t.steps - 1):
        assert not t.recombine(level).implicit
        assert not t.recombine(level, [0]).implicit
    assert not binomial_lattice(4, 1.0).implicit


def test_psi_must_have_one_row_per_leaf():
    t = binomial_tree(3, 1.0, psi=("B", "1.0 + 0.5 * B"))
    replace(t, psi=t.psi.copy())
    for bad in (t.psi.T, t.psi[:, 0], t.psi[:-1], t.psi[None]):
        with pytest.raises(ValueError, match="psi must have one row per leaf"):
            replace(t, psi=bad)


@pytest.mark.parametrize("dim, steps", [(1, 6), (2, 4)])
def test_recombined_forest_is_cut_from_the_tree_rows(dim, steps):
    # node i * C_s + c of level s of recombine(level, nodes) carries the
    # B and edge_db rows of root i's first descendant in class c, and the
    # leaves their sigma0 and psi rows, bit for bit
    t = binomial_tree(steps, 1.0, dim=dim, sigma0="0.3 + 0.2 * B1",
                      psi=("B1", f"1.0 - 0.5 * B{dim}"))
    nc = 2 ** dim
    for level in range(steps - 1):
        n = t.n_nodes(level)
        for nodes in (None, np.arange(n)[::-2]):
            forest = t.recombine(level, nodes)
            roots = np.arange(n) if nodes is None else nodes
            for s in range(steps - level + 1):
                rows = (roots[:, None] * nc ** s
                        + count_classes(dim, s)[1]).ravel()
                pairs = [(forest.B[s], t.B[level + s])]
                if s < steps - level:
                    pairs.append((forest.edge_db[s], t.edge_db[level + s]))
                for got, whole in pairs:
                    want = whole[rows]
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
            for got, want in ((forest.sigma0, t.sigma0[rows]),
                              (forest.psi, t.psi[rows])):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_recombinability_is_checked_once_per_tree(monkeypatch):
    calls = []
    branching = ScenarioTree.branching

    def counting(self, level):
        calls.append(level)
        return branching(self, level)

    monkeypatch.setattr(ScenarioTree, "branching", counting)
    t = binomial_tree(6, 1.0, sigma0="0.3 + 0.2 * B", psi=("B",))
    for level in range(t.steps + 1):
        t.recombine(level)
        t.recombine(level, [0])
    # the check asks every level's branching once, on the first call
    # that can recombine, and never again for this tree
    assert calls == list(range(t.steps))
    # a corrupted copy is a fresh tree with a check of its own
    bad = corrupt_tree(t, "probabilities", seed=1)
    assert bad.recombine(0) is None and t.recombine(0) is not None


def test_expect_rejects_values_of_another_level():
    t = binomial_tree(3, 1.0)
    with pytest.raises(ValueError, match="level 2"):
        t.expect(1, np.zeros(t.n_nodes(3)))


@pytest.mark.parametrize("tree", [binomial_tree(4, 1.0),
                                  binomial_tree(3, 1.0, dim=2),
                                  binomial_lattice(4, 1.0)],
                         ids=["d1", "d2", "lattice"])
def test_expect_reads_corrupted_probabilities(tree):
    bad = corrupt_tree(tree, "probabilities", seed=5)
    hit = [(k, i) for k in range(tree.steps)
           for i in np.flatnonzero((bad.edge_p[k] != tree.edge_p[k]).any(1))]
    assert len(hit) == 1
    k, i = hit[0]
    for level in range(tree.steps):
        one = bad.expect(level, np.ones(tree.n_nodes(level + 1)))
        off = np.abs(one - 1.0)
        if level == k:
            assert off[i] == pytest.approx(0.05, abs=1e-12)
            off[i] = 0.0
        assert off.max() < 1e-15


@pytest.mark.parametrize("steps", [1, 2, 64, 512])
def test_lattice_matches_the_per_level_loop(steps):
    # every level of every array, the child indices and the node dump,
    # bit for bit
    from conftest import _loop_binomial_lattice

    kw = dict(sigma0="0.3 + 0.2 * B", psi=("1.0 + 0.5 * B", "B * B"))
    got = binomial_lattice(steps, 1.5, **kw)
    want = _loop_binomial_lattice(steps, 1.5, **kw)
    for name in ("B", "edge_db", "edge_p", "child_idx"):
        for a, b in zip(getattr(got, name), getattr(want, name),
                        strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
    for name in ("times", "sigma0", "psi"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    cols, ref = got.node_columns(), want.node_columns()
    assert list(cols) == list(ref)
    for name in cols:
        assert cols[name].dtype == ref[name].dtype
        assert cols[name].tobytes() == ref[name].tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_tree_children_follow_the_implicit_order(dim):
    t = binomial_tree(4, 1.0, dim=dim)
    nc = 2 ** dim
    for k in range(t.steps):
        assert t.branching(k) == nc
        want = np.arange(t.n_nodes(k))[:, None] * nc + np.arange(nc)
        assert t.child_idx[k].shape == want.shape
        assert np.array_equal(t.child_idx[k], want)


def test_child_indices_are_built_on_first_read(monkeypatch):
    calls = []
    children = RowWindows.children

    def counting(self, n):
        calls.append(n)
        return children(self, n)

    monkeypatch.setattr(RowWindows, "children", counting)
    lat = binomial_lattice(5, 1.0)
    lat.expect(2, np.ones(lat.n_nodes(3)))
    assert [lat.branching(k) for k in range(lat.steps)] == [2] * 5
    assert calls == []
    first = lat.child_idx
    assert calls == [1, 2, 3, 4, 5]
    assert lat.child_idx is first and len(calls) == 5


def test_lattice_levels_are_read_only_views():
    lat = binomial_lattice(6, 1.0)
    for name in ("B", "edge_db", "edge_p"):
        levels = getattr(lat, name)
        assert all(not a.flags.writeable for a in levels)
        # the levels are views of one array
        assert levels[0].base is not None
        assert all(a.base is levels[0].base for a in levels)
    with pytest.raises(ValueError, match="read-only"):
        lat.edge_p[3][0, 0] = 0.6
    with pytest.raises(ValueError, match="read-only"):
        lat.edge_db[2][1] *= -1.0
    with pytest.raises(ValueError, match="read-only"):
        lat.B[4][0, 0] = 1.0
    assert np.all(lat.edge_p[5] == 0.5)


@pytest.mark.parametrize("kind, name", [("probabilities", "edge_p"),
                                        ("signs", "edge_db")])
def test_corrupt_tree_changes_one_level_of_a_lattice(kind, name):
    lat = binomial_lattice(8, 1.0)
    bad = corrupt_tree(lat, kind, seed=3)
    hit = [(k, i) for k in range(lat.steps)
           for i in range(lat.n_nodes(k))
           if not np.array_equal(getattr(bad, name)[k][i],
                                 getattr(lat, name)[k][i])]
    assert len(hit) == 1
    # the source lattice keeps its levels, bit for bit
    fresh = binomial_lattice(8, 1.0)
    for attr in ("B", "edge_db", "edge_p"):
        for a, b in zip(getattr(lat, attr), getattr(fresh, attr),
                        strict=True):
            assert a.tobytes() == b.tobytes()

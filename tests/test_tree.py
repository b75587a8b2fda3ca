import numpy as np
import pytest

from indiffmarket.payoff import PayoffExpression
from indiffmarket.tree import binomial_lattice, binomial_tree, count_classes
from indiffmarket.verify import corrupt_tree


def test_binomial_tree_shapes():
    t = binomial_tree(4, 1.0, dim=1, sigma0=0.0, psi=("B",))
    assert t.steps == 4
    assert t.horizon == pytest.approx(1.0)
    assert t.n_assets == 1
    assert t.n_leaves == 16
    assert t.total_nodes == 31
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
        t.validate()


def test_children_exceed_dimension():
    # the integrand solve needs >= d+1 children per node
    for dim in (1, 2, 3):
        t = binomial_tree(2, 1.0, dim=dim)
        assert t.branching(0) >= dim + 1


def test_node_probabilities_sum_to_one():
    t = binomial_tree(5, 1.0)
    for k in range(6):
        p = t.node_probabilities(k)
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
    # node probabilities are binomial weights
    p = t.node_probabilities(6)
    from math import comb
    ref = np.array([comb(6, j) for j in range(7)]) / 64.0
    assert np.allclose(np.sort(p), np.sort(ref))
    t.validate()


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
    with pytest.raises(ValueError):
        bad.validate()


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
    assert all(c.shape == (t.total_nodes,) for c in cols.values())
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
    small.validate()
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

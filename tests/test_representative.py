import numpy as np
import pytest
from conftest import assert_same_bits
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indiffmarket.representative import (
    _MAX_NEWTON,
    _REL_TOL,
    AllocationError,
    PrimalPoint,
    allocate,
    representative_gradient,
    representative_utility,
    split_tolerances,
    weights_from_allocation,
)
from indiffmarket.utilities import (
    UtilitySpec,
    exponential,
    panel,
    sum_of_exponentials,
)

PAIR = panel(exponential(1.0), exponential(1.0))
MIXED = panel(sum_of_exponentials([1.0, 0.5], [1.0, 2.0]), exponential(2.0))


def test_single_maker_degenerate():
    p = panel(exponential(1.5))
    for v, x in ((2.0, 0.3), (0.7, -1.2)):
        r, split, y = representative_utility(p, [v], x)
        assert r == pytest.approx(v * p.makers[0].value(x))
        assert split[0] == pytest.approx(x)
        assert y == pytest.approx(v * p.makers[0].marginal(x))


def test_symmetric_pair():
    r, split, y = representative_utility(PAIR, [1.0, 1.0], 0.0)
    assert np.allclose(split, [0.0, 0.0], atol=1e-12)
    assert r == pytest.approx(-2.0)
    assert y == pytest.approx(1.0)


def test_tilted_pair_closed_form():
    # v = (1, e): split (-1/2, 1/2), value -2*sqrt(e)
    r, split, y = representative_utility(PAIR, [1.0, np.e], 0.0)
    assert np.allclose(split, [-0.5, 0.5], atol=1e-12)
    assert r == pytest.approx(-2.0 * np.sqrt(np.e), rel=1e-12)


def test_pareto_allocation_examples():
    p1 = panel(exponential(2.0))
    assert representative_utility(p1, [1.0], 1.7)[1][0] == pytest.approx(1.7)

    split = representative_utility(PAIR, [1.0, 1.0], 2.0)[1]
    assert np.allclose(split, [1.0, 1.0], atol=1e-12)

    p12 = panel(exponential(1.0), exponential(2.0))
    pi = representative_utility(p12, [1.0, 1.0], 0.0)[1]
    assert pi.sum() == pytest.approx(0.0, abs=1e-12)
    # common marginal: e^{-x1} = e^{-2 x2} with u_2 = -e^{-2x}/2
    foc = np.exp(-pi[0]) - np.exp(-2.0 * pi[1])
    assert abs(foc) < 1e-10


def test_weights_from_allocation_examples():
    assert np.allclose(weights_from_allocation(panel(exponential(1.0)), [3.0]), [1.0])
    assert np.allclose(weights_from_allocation(PAIR, [0.0, 0.0]), [0.5, 0.5])
    # u_2(x) = -e^{-2x}/2 has u_2'(0) = 1, so equal weights again
    p12 = panel(exponential(1.0), exponential(2.0))
    assert np.allclose(weights_from_allocation(p12, [0.0, 0.0]), [0.5, 0.5])


def test_weight_allocation_roundtrip():
    rng = np.random.default_rng(5)
    for p in (PAIR, MIXED):
        for _ in range(25):
            lam = rng.dirichlet(np.ones(p.size))
            sigma = rng.normal(scale=2.0)
            split = representative_utility(p, lam, sigma)[1]
            back = weights_from_allocation(p, split)
            assert np.max(np.abs(back - lam)) < 1e-10


def test_gradient_symmetric_point():
    dv, dx = representative_gradient(PAIR, [1.0, 1.0], 0.0)
    assert np.allclose(dv, [-1.0, -1.0], atol=1e-12)
    assert dx == pytest.approx(1.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    h = 1e-6
    for p in (PAIR, MIXED):
        for _ in range(20):
            v = np.exp(rng.normal(size=p.size))
            x = rng.normal(scale=2.0)
            dv, dx = representative_gradient(p, v, x)
            r0 = representative_utility(p, v, x)[0]
            fx = (representative_utility(p, v, x + h)[0]
                  - representative_utility(p, v, x - h)[0]) / (2 * h)
            assert abs(dx - fx) < 1e-6 * (1 + abs(dx))
            for m in range(p.size):
                vp, vm = v.copy(), v.copy()
                vp[m] += h
                vm[m] -= h
                fv = (representative_utility(p, vp, x)[0]
                      - representative_utility(p, vm, x)[0]) / (2 * h)
                assert abs(dv[m] - fv) < 1e-6 * (1 + abs(dv[m]))


def test_positive_homogeneity_in_v():
    rng = np.random.default_rng(7)
    for p in (PAIR, MIXED):
        for _ in range(50):
            v = np.exp(rng.normal(size=p.size))
            x = rng.normal(scale=3.0)
            c = rng.uniform(0.1, 10.0)
            r1 = representative_utility(p, v, x)[0]
            rc = representative_utility(p, c * v, x)[0]
            assert abs(rc - c * r1) < 1e-12 * abs(c * r1)


def test_envelope_identity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        v = np.exp(rng.normal(size=MIXED.size))
        x = rng.normal(scale=2.0)
        _, split, _ = representative_utility(MIXED, v, x)
        dv, _ = representative_gradient(MIXED, v, x)
        direct = np.array([MIXED.makers[m].value(split[m]) for m in range(2)])
        assert np.max(np.abs(dv - direct)) < 1e-12


def test_allocate_feasibility_and_foc():
    rng = np.random.default_rng(9)
    n = 500
    for p in (PAIR, MIXED):
        v = np.exp(rng.normal(size=(n, p.size)))
        total = rng.normal(scale=4.0, size=n)
        y, pi = allocate(p, v, total)
        assert np.max(np.abs(pi.sum(axis=1) - total)) < 1e-12 * (
            1 + np.max(np.abs(total)))
        for m, spec in enumerate(p.makers):
            resid = v[:, m] * spec.marginal(pi[:, m]) - y
            assert np.max(np.abs(resid / y)) < 1e-12


def test_brute_force_grid_bound():
    # grid max over the split is a lower bound within the grid modulus
    v = np.array([0.8, 1.7])
    x = 0.4
    r, _, _ = representative_utility(MIXED, v, x)
    x1 = np.arange(-5.0, 5.0, 1e-3)
    vals = (v[0] * MIXED.makers[0].value(x1)
            + v[1] * MIXED.makers[1].value(x - x1))
    gmax = vals.max()
    assert gmax <= r + 1e-12
    assert r <= gmax + 1e-4


def test_allocation_curvature_matches_finite_differences():
    h = 1e-5
    v = np.array([1.3, 0.6])
    x = -0.7
    y, pi = allocate(MIXED, v, np.array([x]))
    t, tsum = split_tolerances(MIXED, pi)
    rxx = -y[0] / tsum[0]
    fd = (representative_utility(MIXED, v, x + h)[2]
          - representative_utility(MIXED, v, x - h)[2]) / (2 * h)
    assert abs(rxx - fd) < 1e-7

    # d2r/dv^m dx = y t^m / (v^m tsum)
    for m in range(2):
        vp, vm = v.copy(), v.copy()
        vp[m] += h
        vm[m] -= h
        fd_vx = (representative_utility(MIXED, vp, x)[2]
                 - representative_utility(MIXED, vm, x)[2]) / (2 * h)
        rvx = y[0] * t[0, m] / (v[m] * tsum[0])
        assert abs(rvx - fd_vx) < 1e-7


def test_primal_point_validation():
    with pytest.raises(ValueError):
        PrimalPoint(v=[1.0, -0.5], x=0.0, q=[0.0])


# -- bitwise oracle: the column-wise Newton iteration of ``allocate`` -------


def _ref_allocate(panel, v, total):
    """``allocate`` iterating on (n, M) arrays with sums over trailing
    axes of length M; returns (y, pi, iterations)."""
    M = panel.size
    total = np.atleast_1d(np.asarray(total, dtype=float))
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = np.broadcast_to(v, (total.shape[0], M))
    logv = np.log(v)
    logup0 = np.log([m.marginal(0.0) for m in panel.makers])
    gmin = np.array([min(m.rates) for m in panel.makers])
    lny = np.mean(logv + logup0, axis=1) - total / M
    pi = (logv + logup0 - lny[:, None]) / gmin
    logup = np.empty_like(pi)
    av = np.empty_like(pi)
    for it in range(_MAX_NEWTON):
        for m, spec in enumerate(panel.makers):
            logup[:, m], av[:, m] = spec.log_marginal_and_aversion(pi[:, m])
        f = logv + logup - lny[:, None]
        g = total - pi.sum(axis=1)
        tsum = (1.0 / av).sum(axis=1)
        dlny = ((f / av).sum(axis=1) - g) / tsum
        dpi = (f - dlny[:, None]) / av
        np.clip(dpi, -20.0, 20.0, out=dpi)
        pi += dpi
        lny += dlny
        if max(np.max(np.abs(dpi)), np.max(np.abs(dlny))) < _REL_TOL * (
                1.0 + np.max(np.abs(pi))):
            return np.exp(lny), pi, it + 1
    raise AssertionError("reference Newton did not converge")


makers = st.integers(1, 3).flatmap(lambda k: st.builds(
    sum_of_exponentials,
    st.lists(st.floats(0.05, 5.0), min_size=k, max_size=k),
    st.lists(st.floats(0.2, 4.0), min_size=k, max_size=k)))
panels = st.lists(makers, min_size=1, max_size=4).map(lambda ms: panel(*ms))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(p=panels, data=st.data())
@example(p=MIXED, data=None)
def test_allocate_matches_column_oracle(p, data):
    if p.all_exponential:
        return
    if data is None:
        v = np.array([[0.5, 0.5], [0.1, 3.0], [2.0, 0.7]])
        total = np.array([-700.0, 700.0, 0.0])
    else:
        n = data.draw(st.integers(1, 12))
        v = np.array(data.draw(st.lists(
            st.lists(st.floats(0.01, 10.0), min_size=p.size,
                     max_size=p.size), min_size=n, max_size=n)))
        total = np.array(data.draw(st.lists(
            st.floats(-700.0, 700.0), min_size=n, max_size=n)))
    with np.errstate(over="ignore"):
        y_ref, pi_ref, _ = _ref_allocate(p, v, total)
    ok = np.isfinite(y_ref)
    if not ok.all():
        # y out of floating-point range is an error, not inf; compare
        # the remaining rows as a batch of their own
        with pytest.raises(AllocationError, match="out of range"):
            allocate(p, v, total)
        if not ok.any():
            return
        v, total = v[ok], total[ok]
        y_ref, pi_ref, _ = _ref_allocate(p, v, total)
    y, pi = allocate(p, v, total)
    assert pi.shape == pi_ref.shape and pi.flags.c_contiguous
    assert_same_bits(y, y_ref, exact=True)
    assert_same_bits(pi, pi_ref, exact=True)


def test_exact_column_oracle_rejects_makers_summed_right_to_left(
        monkeypatch):
    # three makers are held to the oracle's bits: summing the three
    # makers' start terms right to left moves the split, which the check
    # of test_allocate_matches_column_oracle rejects
    from indiffmarket import representative

    def right_to_left(rows):
        return rows[2] + rows[1] + rows[0]

    three = panel(sum_of_exponentials([1.0, 0.5], [1.0, 2.0]),
                  exponential(1.5),
                  sum_of_exponentials([0.3, 0.7, 1.1], [0.5, 1.0, 3.0]))
    rng = np.random.default_rng(3)
    v = np.exp(rng.normal(size=(257, 3)))
    total = rng.normal(scale=4.0, size=257)
    pi_ref = _ref_allocate(three, v, total)[1]
    assert_same_bits(allocate(three, v, total)[1], pi_ref, exact=True)
    monkeypatch.setattr(representative, "_total", right_to_left)
    with pytest.raises(AssertionError):
        assert_same_bits(allocate(three, v, total)[1], pi_ref, exact=True)


def test_allocate_evaluates_each_maker_once_per_iteration(monkeypatch):
    three = panel(sum_of_exponentials([1.0, 0.5], [1.0, 2.0]),
                  exponential(2.0),
                  sum_of_exponentials([0.3, 0.7, 1.1], [0.5, 1.0, 3.0]))
    rng = np.random.default_rng(10)
    n = 257
    v = np.exp(rng.normal(size=(n, 3)))
    total = rng.normal(scale=4.0, size=n)
    _, _, iters = _ref_allocate(three, v, total)

    calls = []
    original = UtilitySpec.log_marginal_and_aversion

    def counted(self, x, out=None):
        calls.append((self, x.shape, x.flags.c_contiguous))
        return original(self, x, out)

    monkeypatch.setattr(UtilitySpec, "log_marginal_and_aversion", counted)
    allocate(three, v, total)
    assert iters > 2
    assert len(calls) == three.size * iters
    assert [c[0] for c in calls] == list(three.makers) * iters
    assert all(shape == (n,) and contiguous for _, shape, contiguous in calls)


_ONE = sum_of_exponentials([0.7], [1.3])          # a one-term mixture
_TWO = sum_of_exponentials([1.0, 0.5], [1.0, 2.0])
_THREE = sum_of_exponentials([0.3, 0.7, 1.1], [0.5, 1.0, 3.0])


@pytest.mark.parametrize("makers", [
    (_TWO,), (_THREE,),
    (_TWO, _ONE), (_ONE, _THREE),
    (_TWO, exponential(1.5), _THREE),
    (_THREE, _ONE, _TWO, exponential(0.8)),
], ids=["2", "3", "2-1", "1-3", "2-exp-3", "3-1-2-exp"])
@pytest.mark.parametrize("n", [1, 2, 9, 257])
def test_allocate_keeps_the_bits_of_the_column_oracle(makers, n):
    # the maker-major loop on preallocated rows, with its sums over
    # makers left to right, against the oracle's trailing-axis sums
    p = panel(*makers)
    rng = np.random.default_rng(n + 10 * p.size)
    v = np.exp(rng.normal(size=(n, p.size)))
    total = rng.normal(scale=4.0, size=n)
    y_ref, pi_ref, iters = _ref_allocate(p, v, total)
    y, pi = allocate(p, v, total)
    assert iters > 1
    assert pi.shape == (n, p.size) and pi.flags.c_contiguous
    assert_same_bits(y, y_ref, exact=True)
    assert_same_bits(pi, pi_ref, exact=True)


@pytest.mark.parametrize("p, v, total, row, lny", [
    (panel(sum_of_exponentials([1.0, 1.0, 1.0], [1.0, 1.0, 4.0])),
     [1.0], -178.0, 0, "712"),
    (panel(exponential(1.0)), [1.0], [0.0, -710.0, -705.0], 1, "710"),
    (MIXED, [[0.5, 0.5], [1.0, 2.0]], [-2.0, -2000.0], 1, None),
], ids=["mixture", "exponential", "mixed-panel"])
def test_allocate_overflow_raises(p, v, total, row, lny):
    with pytest.raises(AllocationError, match=f"row {row}: log y = ") as exc:
        allocate(p, v, total)
    if lny is not None:
        assert f"log y = {lny}" in str(exc.value)


def test_allocate_below_overflow_is_finite():
    y, _ = allocate(panel(exponential(1.0)), [1.0], [-709.0, 709.0])
    assert np.isfinite(y).all() and y[0] > 1e307 and y[1] > 0.0


# -- row groups: each group gets the bits of its own call -------------------


def _groups_at(n, cuts):
    """Row counts of the groups that start at 0 and at each of ``cuts``."""
    return np.diff(np.concatenate([[0], np.sort(cuts), [n]])).tolist()


def _separate(p, v, total, groups):
    """``allocate`` of each group's rows alone, stacked."""
    starts = np.cumsum([0] + groups[:-1])
    parts = [allocate(p, v[a:a + g], total[a:a + g])
             for a, g in zip(starts, groups)]
    return (np.concatenate([y for y, _ in parts]),
            np.concatenate([pi for _, pi in parts]))


def _mixed_panel(rng, M):
    """M makers, every other one a sum of two exponentials, so M >= 2
    runs the Newton iteration and M = 1 the closed form."""
    return panel(*[
        exponential(float(rng.uniform(0.5, 2.0))) if m % 2 == 0
        else sum_of_exponentials(rng.uniform(0.5, 1.5, size=2).tolist(),
                                 [float(rng.uniform(0.5, 1.0)),
                                  float(rng.uniform(1.2, 2.5))])
        for m in range(M)])


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_row_groups_give_the_bits_of_separate_calls(M):
    rng = np.random.default_rng(40 + M)
    for _ in range(25):
        p = _mixed_panel(rng, M)
        n = int(rng.integers(2, 60))
        v = rng.uniform(0.1, 3.0, size=(n, M))
        total = rng.uniform(-5.0, 5.0, size=n) * rng.choice([1.0, 10.0], n)
        cuts = rng.choice(np.arange(1, n), size=int(rng.integers(1, min(n, 7))),
                          replace=False)
        groups = _groups_at(n, cuts)
        y, pi = allocate(p, v, total, groups)
        y_ref, pi_ref = _separate(p, v, total, groups)
        assert_same_bits(y, y_ref, exact=True)
        assert_same_bits(pi, pi_ref, exact=True)


def _iterations(monkeypatch, p, v, total):
    """Newton iterations of a call: evaluations of the first maker."""
    calls = []
    spec = p.makers[0]
    evaluate = type(spec).log_marginal_and_aversion

    def counting(self, x, out=None):
        if self is spec:
            calls.append(1)
        return evaluate(self, x, out=out)

    with monkeypatch.context() as m:
        m.setattr(type(spec), "log_marginal_and_aversion", counting)
        allocate(p, v, total)
    return len(calls)


# rates 20x apart on one maker: totals of +-50 take some 25 Newton
# iterations, totals near 0 a handful
SPREAD = panel(sum_of_exponentials([1.0, 1.0], [0.05, 10.0]), exponential(5.0))


def test_a_slow_group_leaves_the_quick_ones_their_bits(monkeypatch):
    # the quick groups stop moving when they pass, while the slow one
    # iterates on, so each keeps the bits of its own call
    rng = np.random.default_rng(3)
    quick_v = rng.uniform(0.8, 1.2, size=(12, 2))
    quick_t = rng.uniform(-0.1, 0.1, size=12)
    slow_v = np.array([[1e-3, 1.0], [1e3, 1.0], [0.1, 1.0], [1.0, 1.0]])
    slow_t = np.array([-50.0, 50.0, -50.0, 50.0])
    fast = _iterations(monkeypatch, SPREAD, quick_v, quick_t)
    slow = _iterations(monkeypatch, SPREAD, slow_v, slow_t)
    assert slow >= fast + 10
    v = np.concatenate([quick_v[:4], slow_v, quick_v[4:]])
    total = np.concatenate([quick_t[:4], slow_t, quick_t[4:]])
    groups = [2, 2, 4, 3, 5]
    y, pi = allocate(SPREAD, v, total, groups)
    y_ref, pi_ref = _separate(SPREAD, v, total, groups)
    assert_same_bits(y, y_ref, exact=True)
    assert_same_bits(pi, pi_ref, exact=True)


class _SignedZeroMaker:
    """u'(x) = exp(-x), with aversion -1 at x = 0 exactly and 1 elsewhere.
    With ``_SIGNED_ZERO``'s start (gmin -1), a row of total 0 starts at
    pi = -0.0 and takes steps of -0.0, so its split is -0.0."""

    def log_marginal_and_aversion(self, x, out):
        logup, av = out
        np.negative(x, out=logup)
        av[...] = np.where(x == 0.0, -1.0, 1.0)


class _SignedZeroPanel:
    size = 1
    all_exponential = False
    newton_start = (np.zeros((1, 1)), np.full((1, 1), -1.0))
    makers = (_SignedZeroMaker(),)


def test_a_group_that_passed_keeps_a_negative_zero():
    # the -0.0 row passes at once while the other group iterates on: its
    # rows must be left alone, not moved by a zero step (-0.0 + 0.0 is
    # +0.0)
    p = _SignedZeroPanel()
    v, total = np.ones((3, 1)), np.array([0.0, 1.5, -0.7])
    alone = allocate(p, v[:1], total[:1])[1]
    assert np.signbit(alone[0, 0]) and alone[0, 0] == 0.0
    y, pi = allocate(p, v, total, [1, 2])
    y_ref, pi_ref = _separate(p, v, total, [1, 2])
    assert_same_bits(y, y_ref, exact=True)
    assert_same_bits(pi, pi_ref, exact=True)
    assert np.signbit(pi[0, 0])


@pytest.mark.parametrize("p", [MIXED, PAIR], ids=["newton", "closed-form"])
def test_a_group_that_overflows_fails_the_call(p):
    # log y overflows on one row of the second group only
    v = np.ones((5, 2))
    total = np.array([0.0, 1.0, -3000.0, 0.3, 0.2])
    for rows in ([0, 1], [3, 4]):
        allocate(p, v[rows], total[rows])
    with pytest.raises(AllocationError, match="marginal value out of range"):
        allocate(p, v, total, [2, 1, 2])


def test_a_group_that_does_not_converge_fails_the_call(monkeypatch):
    # with 10 Newton steps the quick first group passes and the slow
    # second one does not
    import indiffmarket.representative as representative

    monkeypatch.setattr(representative, "_MAX_NEWTON", 10)
    v = np.concatenate([np.ones((3, 2)), [[1e-3, 1.0], [1e3, 1.0]]])
    total = np.array([0.0, 0.01, -0.02, -50.0, 50.0])
    allocate(SPREAD, v[:3], total[:3])
    with pytest.raises(AllocationError, match="did not converge"):
        allocate(SPREAD, v, total, [3, 2])


@pytest.mark.parametrize("groups", [[], [0, 3], [2, 2], [4, -1]])
def test_row_groups_must_cover_the_rows(groups):
    with pytest.raises(ValueError, match="row groups"):
        allocate(MIXED, np.ones((3, 2)), np.zeros(3), groups)

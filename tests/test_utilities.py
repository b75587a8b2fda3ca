import numpy as np
import pytest
from conftest import assert_same_bits
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indiffmarket.utilities import (
    InverseValueError,
    MakerPanel,
    UtilitySpec,
    exponential,
    panel,
    sum_of_exponentials,
)

MIX = sum_of_exponentials([1.0, 1.0], [1.0, 2.0])


def test_exponential_value_at_zero():
    assert exponential(1.0).value(0.0) == pytest.approx(-1.0)
    assert exponential(2.0).value(0.0) == pytest.approx(-0.5)


def test_mixture_value_direct_arithmetic():
    # -(w1 e^{-g1 x}/g1 + w2 e^{-g2 x}/g2) at x=1
    expected = -(np.exp(-1.0) + np.exp(-2.0) / 2.0)
    assert MIX.value(1.0) == pytest.approx(expected, rel=1e-15)


def test_exponential_risk_aversion_constant():
    spec = exponential(1.0)
    for x in (-4.0, 0.0, 3.0):
        assert spec.risk_aversion(x) == pytest.approx(1.0)


def test_exponential_marginal_at_zero():
    # u(x) = -e^{-2x}/2 so u'(0) = 1
    assert exponential(2.0).marginal(0.0) == pytest.approx(1.0)


def test_mixture_risk_aversion_at_zero():
    # u' = sum w_i e^{-g_i x}, u'' = -sum w_i g_i e^{-g_i x}:
    # a(0) = (1 + 2)/(1 + 1) for w=(1,1), g=(1,2)
    assert MIX.risk_aversion(0.0) == pytest.approx(3.0 / 2.0)


def test_inverse_marginal_fixed_points():
    assert exponential(1.0).inverse_marginal(1.0) == pytest.approx(0.0)
    assert exponential(2.0).inverse_marginal(1.0) == pytest.approx(0.0)
    # u'(0) = 1 + 1 = 2 for the mixture
    assert MIX.inverse_marginal(2.0) == pytest.approx(0.0, abs=1e-12)


def test_inverse_marginal_rejects_nonpositive():
    with pytest.raises(ValueError):
        exponential(1.0).inverse_marginal(0.0)
    with pytest.raises(ValueError):
        MIX.inverse_marginal(-2.0)


@pytest.mark.parametrize("spec", [
    exponential(1.0),
    exponential(2.0),
    exponential(0.5),
    MIX,
    sum_of_exponentials([0.3, 0.7, 1.1], [0.5, 1.0, 3.0]),
])
def test_sign_and_aversion_bounds(spec):
    rng = np.random.default_rng(0)
    x = rng.uniform(-20.0, 20.0, size=1000)
    c = spec.bound_constant
    assert np.all(spec.value(x) < 0)
    assert np.all(spec.marginal(x) > 0)
    # u'' = -a u' < 0 follows from u' > 0 and a >= 1/c > 0
    a = spec.risk_aversion(x)
    assert np.all(a >= 1.0 / c - 1e-12)
    assert np.all(a <= c + 1e-12)


@pytest.mark.parametrize("spec", [exponential(1.7), MIX])
def test_inverse_marginal_roundtrip(spec):
    rng = np.random.default_rng(1)
    x = rng.uniform(-8.0, 8.0, size=200)
    back = spec.inverse_marginal(spec.marginal(x))
    assert np.max(np.abs(back - x)) < 1e-10


@pytest.mark.parametrize("spec", [exponential(1.0), exponential(3.0), MIX])
def test_marginal_matches_finite_differences(spec):
    rng = np.random.default_rng(2)
    x = rng.uniform(-10.0, 10.0, size=50)
    h = 1e-5
    up = spec.marginal(x)
    fd = (spec.value(x + h) - spec.value(x - h)) / (2 * h)
    assert np.max(np.abs(up - fd) / (1.0 + np.abs(up))) < 1e-6


def test_utility_increases_to_zero():
    for spec in (exponential(1.0), exponential(2.5), MIX):
        x = np.linspace(-5.0, 30.0, 400)
        u = spec.value(x)
        assert np.all(np.diff(u) > 0)
    for g in (1.0, 1.5, 4.0):
        spec = exponential(g)
        assert spec.value(40.0) > -1e-10 * abs(spec.value(0.0))


@pytest.mark.parametrize("spec", [exponential(0.8), MIX])
def test_inverse_value_roundtrip(spec):
    rng = np.random.default_rng(3)
    x = rng.uniform(-6.0, 6.0, size=100)
    back = spec.inverse_value(spec.value(x))
    assert np.max(np.abs(back - x)) < 1e-10
    with pytest.raises(ValueError):
        spec.inverse_value(0.5)


def test_inverse_value_stall_is_a_named_solver_error():
    # a target neither Newton start reaches on rates 0.001 and 50; a
    # target that is not negative stays a bad input
    stiff = sum_of_exponentials([1.0, 1.0], [0.001, 50.0])
    with pytest.raises(InverseValueError, match="did not converge"):
        stiff.inverse_value(-1000.1492341383038)
    assert not issubclass(InverseValueError, ValueError)
    with pytest.raises(ValueError):
        stiff.inverse_value(0.0)


def test_log_marginal_and_aversion_agree_with_direct():
    rng = np.random.default_rng(4)
    x = rng.uniform(-12.0, 12.0, size=300)
    lm, a = MIX.log_marginal_and_aversion(x)
    assert np.max(np.abs(lm - np.log(MIX.marginal(x)))) < 1e-12
    assert np.max(np.abs(a - MIX.risk_aversion(x))) < 1e-12
    # stays finite far outside the overflow range of the direct formula
    lm_far, a_far = MIX.log_marginal_and_aversion(np.array([-500.0, 500.0]))
    assert np.all(np.isfinite(lm_far)) and np.all(np.isfinite(a_far))


def test_spec_validation():
    with pytest.raises(ValueError):
        UtilitySpec(weights=(1.0,), rates=(-1.0,))
    with pytest.raises(ValueError):
        UtilitySpec(weights=(1.0, 2.0), rates=(1.0,))
    with pytest.raises(ValueError):
        MIX.gamma


def test_bound_constant_symmetrized():
    # rates below one push c through the reciprocal
    assert exponential(0.25).bound_constant == pytest.approx(4.0)
    assert exponential(3.0).bound_constant == pytest.approx(3.0)
    assert MIX.bound_constant == pytest.approx(2.0)


def test_panel_properties():
    p = panel(exponential(1.0), exponential(2.0))
    assert p.size == 2
    assert p.all_exponential
    assert np.allclose(p.gammas, [1.0, 2.0])
    assert p.bound_constant == pytest.approx(2.0)
    q = panel(MIX, exponential(0.2))
    assert not q.all_exponential
    assert q.bound_constant == pytest.approx(5.0)
    with pytest.raises(ValueError):
        MakerPanel(makers=())


# -- bitwise oracle: the trailing-axis formulas of the mixture kernels ------


def _ref_wge(spec, x):
    x = np.asarray(x, dtype=float)
    return np.asarray(spec.weights) * np.exp(
        -np.multiply.outer(x, np.asarray(spec.rates)))


def _ref_value(spec, x):
    return -(_ref_wge(spec, x) / np.asarray(spec.rates)).sum(axis=-1)


def _ref_marginal(spec, x):
    return _ref_wge(spec, x).sum(axis=-1)


def _ref_log_marginal_and_aversion(spec, x):
    x = np.asarray(x, dtype=float)
    g = np.asarray(spec.rates)
    e = np.log(np.asarray(spec.weights)) - np.multiply.outer(x, g)
    m = e.max(axis=-1, keepdims=True)
    t = np.exp(e - m)
    s = t.sum(axis=-1)
    return m[..., 0] + np.log(s), (t * g).sum(axis=-1) / s


def _ref_risk_aversion(spec, x):
    t = _ref_wge(spec, x)
    return (t * np.asarray(spec.rates)).sum(axis=-1) / t.sum(axis=-1)


def check_kernels(spec, x, exact):
    for name, ref in KERNELS:
        got, want = getattr(spec, name)(x), ref(spec, x)
        if not isinstance(want, tuple):
            got, want = (got,), (want,)
        for g, w in zip(got, want, strict=True):
            assert_same_bits(g, w, exact)


KERNELS = [
    ("value", _ref_value),
    ("marginal", _ref_marginal),
    ("log_marginal_and_aversion", _ref_log_marginal_and_aversion),
    ("risk_aversion", _ref_risk_aversion),
]

specs = st.integers(1, 3).flatmap(lambda k: st.builds(
    sum_of_exponentials,
    st.lists(st.floats(0.01, 10.0), min_size=k, max_size=k),
    st.lists(st.floats(0.05, 5.0), min_size=k, max_size=k)))
wealth = st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=40)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spec=specs, xs=wealth)
@example(spec=MIX, xs=[-700.0, 700.0, 0.0, -0.0])
@example(spec=exponential(1.3), xs=[-700.0, 700.0, -0.0])
@example(spec=sum_of_exponentials([0.3, 0.7, 1.1], [0.5, 1.0, 3.0]),
         xs=[-700.0, -3.0, 0.0, 12.5, 700.0])
def test_kernels_match_trailing_axis_oracle(spec, xs):
    x = np.array(xs)
    with np.errstate(all="ignore"):
        check_kernels(spec, x, exact=True)
        check_kernels(spec, x[0], exact=True)


def test_kernels_on_strided_rows():
    # columns of an (n, M) split reach the kernels as strided views
    x = np.random.default_rng(11).uniform(-30.0, 30.0, size=(64, 2))[:, 1]
    check_kernels(sum_of_exponentials([0.3, 0.7], [0.5, 3.0]), x, exact=True)


def test_exact_oracle_rejects_a_reordered_three_term_kernel(monkeypatch):
    # three-term specs are held to the oracle's bits: a marginal that
    # adds its terms right to left stays within 2 ulp but fails the
    # check of test_kernels_match_trailing_axis_oracle
    spec = sum_of_exponentials([0.3, 0.7, 1.1], [0.5, 1.0, 3.0])
    x = np.random.default_rng(12).uniform(-5.0, 5.0, size=2000)

    def reordered(self, x):
        t = _ref_wge(self, x)
        return t[..., 0] + (t[..., 1] + t[..., 2])

    monkeypatch.setattr(UtilitySpec, "marginal", reordered)
    check_kernels(spec, x, exact=False)
    with pytest.raises(AssertionError):
        check_kernels(spec, x, exact=True)


def test_oracle_tells_a_reordered_sum_apart():
    # the 2-ulp check is not vacuous: summing three terms right to left
    # moves some results by an ulp, which the exact check rejects
    spec = sum_of_exponentials([0.3, 0.7, 1.1], [0.5, 1.0, 3.0])
    x = np.random.default_rng(12).uniform(-5.0, 5.0, size=2000)
    t = _ref_wge(spec, x)
    reordered = t[:, 0] + (t[:, 1] + t[:, 2])
    assert not np.array_equal(reordered, spec.marginal(x))
    assert_same_bits(reordered, spec.marginal(x), exact=False)


def _round_trip_targets(spec, fractions):
    """Wealth levels s * 700 / max(rates): every term exp(-g_i x) stays
    inside floating-point range, and with rates near 1 the targets span
    about +-700."""
    return np.array(fractions) * (700.0 / max(spec.rates))


fractions = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spec=specs, s=fractions)
@example(spec=MIX, s=[-1.0, 1.0, 0.0])
@example(spec=sum_of_exponentials([0.3, 0.7, 1.1], [0.05, 1.0, 5.0]),
         s=[-1.0, -0.5, 0.5, 1.0])
def test_inverse_marginal_round_trip_property(spec, s):
    x = _round_trip_targets(spec, s)
    back = spec.inverse_marginal(spec.marginal(x))
    assert np.all(np.abs(back - x) <= 1e-10 * (1.0 + np.abs(x)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spec=specs, s=fractions)
@example(spec=MIX, s=[-1.0, 1.0, 0.0])
@example(spec=sum_of_exponentials([0.3, 0.7, 1.1], [0.05, 1.0, 5.0]),
         s=[-1.0, -0.5, 0.5, 1.0])
# the bound start lies ~260 below the root, where Newton climbs 0.5 a step
@example(spec=sum_of_exponentials([1.0, 1.0, 1.0], [1.0, 2.0, 0.5]),
         s=[-0.25])
def test_inverse_value_round_trip_property(spec, s):
    x = _round_trip_targets(spec, s)
    back = spec.inverse_value(spec.value(x))
    assert np.all(np.abs(back - x) <= 1e-10 * (1.0 + np.abs(x)))

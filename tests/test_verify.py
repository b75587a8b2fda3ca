import pytest

from indiffmarket.verify import SUITE_NAMES, SuiteResult, run_suite


def test_all_suites_pass_at_default_scale():
    results = [run_suite(name, seed=0) for name in SUITE_NAMES]
    assert [r.name for r in results] == list(SUITE_NAMES)
    for r in results:
        assert r.passed, r.line()


def test_suite_lines_are_machine_readable():
    r = run_suite("conjugacy", seed=1, probes=5)
    line = r.line()
    assert "conjugacy" in line
    assert "probes=5" in line
    assert line.endswith("PASS")


@pytest.mark.parametrize("suite", ["martingale"])
@pytest.mark.parametrize("kind", ["probabilities", "signs"])
def test_martingale_negative_controls(suite, kind):
    assert not run_suite(suite, seed=0, corrupt=kind).passed


@pytest.mark.parametrize("suite", ["conjugacy", "roundtrip", "gradient",
                                   "preservation", "noarb"])
def test_threshold_sabotage_negative_control(suite):
    assert not run_suite(suite, seed=0, corrupt="threshold").passed


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nonsense", seed=0)


def test_result_verdict_logic():
    ok = SuiteResult(name="x", probes=1, max_deviation=1e-12, threshold=1e-8)
    bad = SuiteResult(name="x", probes=1, max_deviation=1e-4, threshold=1e-8)
    assert ok.passed and not bad.passed
    assert bad.line().endswith("FAIL")


def test_seed_determinism():
    a = run_suite("roundtrip", seed=5, probes=10)
    b = run_suite("roundtrip", seed=5, probes=10)
    assert a.max_deviation == b.max_deviation

"""Acceptance gate: one test per criterion, one printed verdict line each.

Tolerances are pinned here and must not be loosened; each criterion
prints ``CRITERION <n> <name>: PASS|FAIL (<measurement>)`` so the run
log doubles as the acceptance report.
"""

import time

import numpy as np

from conftest import ACCEPTANCE_LINES

from indiffmarket.bachelier import BachelierParams
from indiffmarket.engine import (
    SimpleStrategy,
    execute_simple,
    execute_simple_paths,
    indifference_cash,
    no_arbitrage_gap,
)
from indiffmarket.field import FieldEvaluator
from indiffmarket.tree import binomial_lattice, binomial_tree
from indiffmarket.utilities import exponential, panel, sum_of_exponentials
from indiffmarket.verify import _bachelier_terminal, run_suite


def _verdict(num, name, passed, detail):
    line = f"CRITERION {num} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_conjugacy_identities():
    t0 = time.perf_counter()
    r = run_suite("conjugacy", seed=0, probes=200)
    wall = time.perf_counter() - t0
    ok = r.passed and wall < 60.0
    _verdict(1, "conjugacy identities",
             ok, f"max_dev={r.max_deviation:.3e} < 1e-8, {wall:.1f}s < 60s")


def test_criterion_2_round_trips():
    r = run_suite("roundtrip", seed=0, probes=200)
    _verdict(2, "primal/dual round trips",
             r.passed, f"max_dev={r.max_deviation:.3e} < 1e-8")


def test_criterion_3_martingale_identities():
    r = run_suite("martingale", seed=0, probes=10)
    _verdict(3, "exact one-step martingales",
             r.passed, f"max_dev={r.max_deviation:.3e} < 1e-12")


def test_criterion_4_utility_preservation():
    pan = panel(sum_of_exponentials([1.0, 0.5], [1.0, 2.0]),
                exponential(2.0))
    tree = binomial_tree(16, 1.0, sigma0="0.3 + 0.2 * B",
                         psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(pan, tree)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        n_tr = int(rng.integers(1, 5))
        levels = tuple(sorted(rng.choice(16, size=n_tr, replace=False)))
        positions = tuple(float(rng.normal(scale=0.6)) for _ in levels)
        res = execute_simple(ev, SimpleStrategy(levels, positions),
                             lam0=rng.dirichlet(np.ones(2)))
        worst = max(worst, res.indifference_residual)
    _verdict(4, "utility preservation at rebalances",
             worst < 1e-8, f"max residual={worst:.3e} < 1e-8 over 20 strategies")


def test_criterion_5_bachelier_quantitative():
    t0 = time.perf_counter()
    par = BachelierParams(gamma=1.0, b=0.0, mu=0.1, sigma=0.2, s=10.0,
                          horizon=1.0)
    steps, n_paths, q = 512, 10_000, 1.0
    ev = FieldEvaluator(par.panel(), par.lattice(steps))
    v_T, v_closed, _, _, _ = _bachelier_terminal(par, ev, q, n_paths, 0)
    budget = 0.5 * par.gamma * par.sigma ** 2 * par.horizon
    mean_err = float(np.abs(v_T - v_closed).mean())
    xi = indifference_cash(ev, q)
    xi_rel = abs(xi / par.indifference_price(q) - 1.0)
    wall = time.perf_counter() - t0
    ok = mean_err < 0.02 * budget and xi_rel < 0.01 and wall < 300.0
    _verdict(5, "Bachelier closed-form oracle", ok,
             f"mean|V_T err|={mean_err:.3e} < {0.02 * budget:.1e}, "
             f"xi rel err={xi_rel:.3e} < 1e-2, {wall:.1f}s < 300s")


def test_criterion_6_simple_approximation_convergence():
    steps = 64
    pan = panel(exponential(1.0))
    ev = FieldEvaluator(pan, binomial_lattice(steps, 1.0, sigma0=0.3,
                                              psi=("0.5 + 0.4 * B",)))
    rng = np.random.default_rng(11)
    signs = rng.integers(0, 2, size=(256, steps)) * 2 - 1

    def cash_paths(n_dates):
        stride = steps // n_dates
        levels = tuple(range(0, steps, stride))
        thetas = tuple(
            float(np.sin(2 * np.pi * (l + stride / 2) / steps))
            for l in levels)
        return execute_simple_paths(ev, SimpleStrategy(levels, thetas), 256,
                                    signs=signs).X

    ref = cash_paths(64)
    errs = [float(np.max(np.abs(cash_paths(n) - ref))) for n in (2, 4, 8, 16)]
    ok = errs[0] > errs[1] > errs[2] > errs[3]
    _verdict(6, "convergence of simple approximations", ok,
             "max-node |X^N - X^64| = "
             + ", ".join(f"{e:.3e}" for e in errs) + " strictly decreasing")


def test_criterion_7_bounds():
    sandwich = run_suite("sandwich", seed=0, probes=5)
    cbound = run_suite("cbound", seed=0, probes=100)
    ok = sandwich.passed and cbound.passed
    _verdict(7, "cash sandwich and spectral bounds", ok,
             f"sandwich dev={sandwich.max_deviation:.3e} < 1e-8, "
             f"eigenvalue excess={cbound.max_deviation:.3e} < 1e-6")


def test_criterion_8_no_arbitrage():
    suite = run_suite("noarb", seed=0, probes=10)
    pan = panel(sum_of_exponentials([1.0, 0.5], [1.0, 2.0]),
                exponential(2.0))
    tree = binomial_tree(4, 1.0, sigma0="0.3 + 0.2 * B",
                         psi=("1.0 + 0.5 * B",))
    ev = FieldEvaluator(pan, tree)
    lam0 = np.array([0.5, 0.5])
    res = execute_simple(ev, SimpleStrategy((0, 2), (0.8, -0.4)), lam0=lam0)
    strict = no_arbitrage_gap(ev, lam0, res.v_terminal)
    res0 = execute_simple(ev, SimpleStrategy((0,), (0.0,)), lam0=lam0)
    zero = abs(no_arbitrage_gap(ev, lam0, res0.v_terminal))
    ok = suite.passed and strict > 1e-10 and zero < 1e-10
    _verdict(8, "no arbitrage", ok,
             f"suite dev={suite.max_deviation:.3e} < 1e-10, "
             f"active gap={strict:.3e} > 1e-10, zero gap={zero:.3e} < 1e-10")


def test_criterion_9_gradient_checks():
    r = run_suite("gradient", seed=0, probes=100)
    _verdict(9, "analytic vs finite-difference gradients",
             r.passed, f"max rel err={r.max_deviation:.3e} < 1e-6")

"""Verification suites: randomized probes of the library's invariants.

Each suite draws seeded random (panel, tree, point) probes, measures the
worst deviation of one invariant family, and reports it against a fixed
threshold.  The same suites back the `verify` CLI subcommand and the
acceptance tests, which only differ in probe counts.

Negative controls: ``corrupt`` injects a seeded defect (transition
probabilities off, increment signs flipped, or a sabotaged threshold)
under which the affected suite must fail; the tests assert that it does.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .bachelier import BachelierParams
from .conjugate import conjugacy_residuals, saddle_batch, state_identities
from .engine import (SimpleStrategy, execute_simple, indifference_cash,
                     no_arbitrage_gap, simulate_sde, simulate_sde_paths)
from .field import FieldEvaluator
from .representative import PrimalPoint
from .tree import ScenarioTree, binomial_tree
from .utilities import MakerPanel, UtilitySpec, exponential

__all__ = ["SuiteResult", "run_suite", "corrupt_tree",
           "SUITE_NAMES", "DEFAULT_PROBES"]


@dataclass
class SuiteResult:
    name: str
    probes: int
    max_deviation: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.threshold

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.name:<14} probes={self.probes:<5} "
                f"max_dev={self.max_deviation:.3e} "
                f"threshold={self.threshold:.1e} {verdict}")


def corrupt_tree(tree: ScenarioTree, kind: str, seed: int = 0) -> ScenarioTree:
    """Seeded defect injection for negative controls."""
    t = copy.copy(tree)
    t.edge_p = [a.copy() for a in tree.edge_p]
    t.edge_db = [a.copy() for a in tree.edge_db]
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, tree.steps))
    i = int(rng.integers(0, tree.n_nodes(k)))
    if kind == "probabilities":
        t.edge_p[k][i, 0] += 0.05
    elif kind == "signs":
        t.edge_db[k][i] = -t.edge_db[k][i]
    else:
        raise ValueError(f"unknown corruption '{kind}'")
    return t


# -- probe generators ----------------------------------------------------


def _random_panel(rng, exponential_only=False) -> MakerPanel:
    M = int(rng.integers(1, 4))
    specs = []
    for _ in range(M):
        if exponential_only or rng.random() < 0.6:
            specs.append(exponential(float(rng.uniform(0.5, 2.0))))
        else:
            specs.append(UtilitySpec(
                weights=tuple(rng.uniform(0.5, 1.5, size=2)),
                rates=(float(rng.uniform(0.5, 1.0)),
                       float(rng.uniform(1.2, 2.5)))))
    return MakerPanel(makers=tuple(specs))


def _random_tree(rng, steps=None) -> ScenarioTree:
    N = int(rng.choice([2, 4])) if steps is None else steps
    d = int(rng.integers(1, 3))
    J = int(rng.integers(1, 3))
    a = rng.uniform(-0.5, 0.5, size=d)
    sigma0 = lambda b, c=a: _affine(c, 0.0, b)  # noqa: E731
    coefs = [rng.uniform(-0.5, 0.5, size=d) for _ in range(J)]
    consts = rng.uniform(-0.5, 1.0, size=J)
    psi = tuple((lambda b, c=coefs[j], c0=consts[j]: _affine(c, c0, b))
                for j in range(J))
    return binomial_tree(N, float(rng.uniform(0.5, 1.5)), dim=d,
                         sigma0=sigma0, psi=psi)


def _affine(coef, const, b):
    return const + b @ np.asarray(coef)


def _random_point(rng, M, J) -> PrimalPoint:
    return PrimalPoint(v=rng.uniform(0.3, 3.0, size=M),
                       x=float(rng.uniform(-1.0, 1.0)),
                       q=rng.uniform(-1.0, 1.0, size=J))


def _random_node(rng, tree):
    level = int(rng.integers(0, tree.steps))
    return level, int(rng.integers(0, tree.n_nodes(level)))


def _random_strategy(rng, tree) -> SimpleStrategy:
    n_tr = int(rng.integers(1, min(4, tree.steps + 1)))
    levels = np.sort(rng.choice(tree.steps, size=n_tr, replace=False))
    positions = tuple(rng.uniform(-1.0, 1.0, size=tree.n_assets)
                      for _ in range(n_tr))
    return SimpleStrategy(levels=tuple(int(l) for l in levels),
                          positions=positions)


# -- suites --------------------------------------------------------------


def _suite_conjugacy(rng, probes, tree_factory):
    worst = 0.0
    for _ in range(probes):
        tree = tree_factory(rng)
        panel = _random_panel(rng)
        ev = FieldEvaluator(panel, tree)
        a = _random_point(rng, panel.size, tree.n_assets)
        res = conjugacy_residuals(ev, a, _random_node(rng, tree))
        worst = max(worst, res["BA_identity"], res["E_plus_BC"],
                    res["Hg_identity"], res["C_row_sums"], res["A_row_sums"])
    return worst


def _suite_roundtrip(rng, probes, tree_factory):
    worst = 0.0
    for _ in range(probes):
        tree = tree_factory(rng)
        panel = _random_panel(rng)
        ev = FieldEvaluator(panel, tree)
        a = _random_point(rng, panel.size, tree.n_assets)
        res = state_identities(ev, a, _random_node(rng, tree))
        worst = max(worst, max(res.values()))
    return worst


def _suite_martingale(rng, probes, tree_factory):
    worst = 0.0
    for _ in range(probes):
        tree = tree_factory(rng)
        panel = _random_panel(rng)
        ev = FieldEvaluator(panel, tree)
        a = _random_point(rng, panel.size, tree.n_assets)
        worst = max(worst, ev.martingale_deviation(ev.sweep_point(a, order=2)))
        worst = max(worst, max(tree.moment_errors()), tree.consistency_error())
        res = execute_simple(ev, _random_strategy(rng, tree))
        worst = max(worst, res.martingale_residual())
        u0 = ev.field(PrimalPoint(v=res.lam0, x=0.0,
                                  q=np.zeros(tree.n_assets))).dv
        sde = simulate_sde(
            ev, [rng.uniform(-0.5, 0.5, size=tree.n_assets)] * tree.steps,
            u0, want_states=False)
        worst = max(worst, sde.martingale_residual())
    return worst


def _suite_preservation(rng, probes, tree_factory):
    worst = 0.0
    for _ in range(probes):
        tree = tree_factory(rng)
        panel = _random_panel(rng)
        ev = FieldEvaluator(panel, tree)
        res = execute_simple(ev, _random_strategy(rng, tree))
        worst = max(worst, res.indifference_residual)
    return worst


def _suite_cbound(rng, probes, tree_factory):
    worst = 0.0
    for _ in range(probes):
        tree = tree_factory(rng)
        panel = _random_panel(rng, exponential_only=True)
        ev = FieldEvaluator(panel, tree)
        a = _random_point(rng, panel.size, tree.n_assets)
        res = conjugacy_residuals(ev, a, _random_node(rng, tree))
        c = panel.bound_constant
        worst = max(worst, 1.0 / c - res["A_eig_min"],
                    res["A_eig_max"] - c, 0.0)
    return worst


def _suite_sandwich(rng, probes, tree_factory):
    worst = 0.0
    for _ in range(probes):
        tree = tree_factory(rng)
        panel = _random_panel(rng)
        ev = FieldEvaluator(panel, tree)
        res = execute_simple(ev, _random_strategy(rng, tree))
        c = panel.bound_constant
        for k in range(tree.steps + 1):
            u = res.U[k]
            mone = -np.ones_like(u)
            _, xg, _, _ = saddle_batch(ev, k, mone, res.Q[k])
            mid = xg - res.X[k]
            lo = (np.log(np.maximum(-u, 1.0)) / c
                  + c * np.log(np.minimum(-u, 1.0))).sum(axis=1)
            hi = (np.log(np.minimum(-u, 1.0)) / c
                  + c * np.log(np.maximum(-u, 1.0))).sum(axis=1)
            worst = max(worst, float(np.maximum(lo - mid, 0.0).max()),
                        float(np.maximum(mid - hi, 0.0).max()))
    return worst


def _suite_noarb(rng, probes, tree_factory):
    worst = 0.0
    for _ in range(probes):
        tree = tree_factory(rng)
        panel = _random_panel(rng)
        ev = FieldEvaluator(panel, tree)
        res = execute_simple(ev, _random_strategy(rng, tree))
        gap = no_arbitrage_gap(ev, res.lam0, res.v_terminal)
        worst = max(worst, -gap)
        zero = SimpleStrategy(levels=(0,),
                              positions=(np.zeros(tree.n_assets),))
        res0 = execute_simple(ev, zero)
        gap0 = no_arbitrage_gap(ev, res0.lam0, res0.v_terminal)
        worst = max(worst, abs(gap0))
    return worst


def _suite_gradient(rng, probes, tree_factory):
    worst = 0.0
    for _ in range(probes):
        tree = tree_factory(rng)
        panel = _random_panel(rng)
        ev = FieldEvaluator(panel, tree)
        a = _random_point(rng, panel.size, tree.n_assets)
        node = _random_node(rng, tree)
        f = ev.field(a, node)
        h = 1e-5

        def value(v=None, x=None, q=None):
            return ev.field(PrimalPoint(
                v=a.v if v is None else v,
                x=a.x if x is None else x,
                q=a.q if q is None else q), node).value

        for m in range(panel.size):
            e = np.zeros(panel.size)
            e[m] = h
            fd = (value(v=a.v + e) - value(v=a.v - e)) / (2 * h)
            worst = max(worst, abs(fd - f.dv[m]) / (1.0 + abs(f.dv[m])))
        fd = (value(x=a.x + h) - value(x=a.x - h)) / (2 * h)
        worst = max(worst, abs(fd - f.dx) / (1.0 + abs(f.dx)))
        for j in range(tree.n_assets):
            e = np.zeros(tree.n_assets)
            e[j] = h
            fd = (value(q=a.q + e) - value(q=a.q - e)) / (2 * h)
            worst = max(worst, abs(fd - f.dq[j]) / (1.0 + abs(f.dq[j])))
    return worst


def _suite_bachelier(rng, probes, tree_factory):
    par = BachelierParams(gamma=1.0, b=0.0, mu=0.1, sigma=0.2, s=10.0,
                          horizon=1.0)
    steps, n_paths = 64, max(probes, 500)
    lat = par.lattice(steps)
    pb = simulate_sde_paths(par.panel(), lat, 1.0, float(par.N0(0.0)),
                            n_paths, seed=int(rng.integers(0, 2 ** 31)))
    v_true = par.gain(1.0, pb.db, pb.times)[:, -1]
    impact = 0.5 * par.gamma * par.sigma ** 2 * par.horizon
    dev_v = float(np.abs(pb.V[:, -1] - v_true).mean()) / (0.02 * impact)
    xi = indifference_cash(par.panel(), lat, 1.0)
    dev_xi = abs(xi / par.indifference_price(1.0) - 1.0) / 0.01
    return max(dev_v, dev_xi)


_SUITES = {
    "conjugacy": (_suite_conjugacy, 50, 1e-8),
    "roundtrip": (_suite_roundtrip, 50, 1e-8),
    "martingale": (_suite_martingale, 10, 1e-12),
    "preservation": (_suite_preservation, 10, 1e-8),
    "cbound": (_suite_cbound, 30, 1e-6),
    "sandwich": (_suite_sandwich, 5, 1e-8),
    "noarb": (_suite_noarb, 10, 1e-10),
    "gradient": (_suite_gradient, 30, 1e-6),
    "bachelier": (_suite_bachelier, 1000, 1.0),
}

SUITE_NAMES = tuple(_SUITES)
DEFAULT_PROBES = {name: _SUITES[name][1] for name in _SUITES}


def run_suite(name: str, seed: int = 0, probes: int = None,
              corrupt: str = None) -> SuiteResult:
    """Run one suite; ``corrupt`` injects a defect for negative controls.

    'probabilities' and 'signs' corrupt every probe tree; 'threshold'
    sabotages the pass bar.  Martingale-style suites fail under tree
    corruption; purely algebraic suites (which hold for any weights)
    only fail under threshold sabotage.
    """
    if name not in _SUITES:
        raise KeyError(f"unknown suite '{name}' (have {sorted(_SUITES)})")
    fn, default_probes, threshold = _SUITES[name]
    probes = default_probes if probes is None else int(probes)
    rng = np.random.default_rng(seed)
    if corrupt in ("probabilities", "signs"):
        def tree_factory(r, _kind=corrupt):
            return corrupt_tree(_random_tree(r), _kind,
                                seed=int(r.integers(0, 2 ** 31)))
    elif corrupt == "threshold":
        threshold *= 1e-30
        tree_factory = _random_tree
    elif corrupt is None:
        tree_factory = _random_tree
    else:
        raise ValueError(f"unknown corruption '{corrupt}'")
    dev = fn(rng, probes, tree_factory)
    return SuiteResult(name=name, probes=probes, max_deviation=float(dev),
                       threshold=threshold)

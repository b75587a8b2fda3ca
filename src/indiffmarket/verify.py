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

from dataclasses import dataclass, replace

import numpy as np

from .bachelier import BachelierParams
from .conjugate import (conjugacy_residuals, matrices_primal, saddle_levels,
                        state_identities)
from .engine import (SimpleStrategy, execute_simple, indifference_cash,
                     no_arbitrage_gap, simulate_sde, simulate_sde_paths,
                     simulate_sde_terminal)
from .field import FieldEvaluator
from .representative import PrimalPoint
from .tree import ScenarioTree, binomial_tree
from .utilities import MakerPanel, UtilitySpec, exponential

__all__ = ["SuiteResult", "run_suite", "corrupt_tree", "SUITE_NAMES"]


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
    """Seeded defect injection for negative controls, into a fresh tree
    that caches nothing of ``tree`` (``ScenarioTree._recombinable``)."""
    t = replace(tree, edge_p=[a.copy() for a in tree.edge_p],
                edge_db=[a.copy() for a in tree.edge_db])
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


# -- probes --------------------------------------------------------------
#
# A probe measures one invariant family on the evaluator of one random
# (panel, tree) and returns its worst deviation; ``run_suite`` draws the
# tree, then the panel, and keeps the max over probes.


def _probe_conjugacy(rng, ev):
    a = _random_point(rng, ev.panel.size, ev.tree.n_assets)
    res = conjugacy_residuals(ev, a, _random_node(rng, ev.tree))
    return max(res["BA_identity"], res["E_plus_BC"], res["Hg_identity"],
               res["C_row_sums"], res["A_row_sums"])


def _probe_roundtrip(rng, ev):
    a = _random_point(rng, ev.panel.size, ev.tree.n_assets)
    return max(state_identities(ev, a, _random_node(rng, ev.tree)).values())


def _probe_martingale(rng, ev):
    tree = ev.tree
    a = _random_point(rng, ev.panel.size, tree.n_assets)
    devs = [ev.martingale_deviation(ev.sweep_point(a, order=2)),
            *tree.moment_errors(), tree.consistency_error()]
    res = execute_simple(ev, _random_strategy(rng, tree))
    devs.append(res.martingale_residual())
    u0 = ev.field(PrimalPoint(v=res.lam0, x=0.0,
                              q=np.zeros(tree.n_assets))).dv
    sde = simulate_sde(
        ev, [rng.uniform(-0.5, 0.5, size=tree.n_assets)] * tree.steps,
        u0, want_states=False)
    devs.append(sde.martingale_residual())
    return max(devs)


def _probe_preservation(rng, ev):
    res = execute_simple(ev, _random_strategy(rng, ev.tree))
    return res.indifference_residual


def _probe_cbound(rng, ev):
    # the risk-aversion bounds confine the eigenvalues of A to [1/c, c]
    a = _random_point(rng, ev.panel.size, ev.tree.n_assets)
    A, _, _ = matrices_primal(ev, a, _random_node(rng, ev.tree))
    eig = np.linalg.eigvalsh(0.5 * (A + A.T))
    c = ev.panel.bound_constant
    return max(1.0 / c - float(eig.min()), float(eig.max()) - c, 0.0)


def _probe_sandwich(rng, ev):
    res = execute_simple(ev, _random_strategy(rng, ev.tree))
    c = ev.panel.bound_constant
    devs = []
    solved = saddle_levels(ev, [-np.ones_like(u) for u in res.U], res.Q)
    for u, x, (_, xg, _, _) in zip(res.U, res.X, solved):
        mid = xg - x
        lo = (np.log(np.maximum(-u, 1.0)) / c
              + c * np.log(np.minimum(-u, 1.0))).sum(axis=1)
        hi = (np.log(np.minimum(-u, 1.0)) / c
              + c * np.log(np.maximum(-u, 1.0))).sum(axis=1)
        devs += [float(np.maximum(lo - mid, 0.0).max()),
                 float(np.maximum(mid - hi, 0.0).max())]
    return max(devs)


def _probe_noarb(rng, ev):
    res = execute_simple(ev, _random_strategy(rng, ev.tree))
    gap = no_arbitrage_gap(ev, res.lam0, res.v_terminal)
    res0 = execute_simple(ev, SimpleStrategy(
        levels=(0,), positions=(np.zeros(ev.tree.n_assets),)))
    return max(-gap, abs(no_arbitrage_gap(ev, res0.lam0, res0.v_terminal)))


def _probe_gradient(rng, ev):
    a = _random_point(rng, ev.panel.size, ev.tree.n_assets)
    node = _random_node(rng, ev.tree)
    f = ev.field(a, node)
    h = 1e-5

    def value(v=None, x=None, q=None):
        return ev.field(PrimalPoint(
            v=a.v if v is None else v,
            x=a.x if x is None else x,
            q=a.q if q is None else q), node).value

    def rel(fd, exact):
        return abs(fd - exact) / (1.0 + abs(exact))

    devs = []
    for m, e in enumerate(np.eye(ev.panel.size) * h):
        fd = (value(v=a.v + e) - value(v=a.v - e)) / (2 * h)
        devs.append(rel(fd, f.dv[m]))
    devs.append(rel((value(x=a.x + h) - value(x=a.x - h)) / (2 * h), f.dx))
    for j, e in enumerate(np.eye(ev.tree.n_assets) * h):
        fd = (value(q=a.q + e) - value(q=a.q - e)) / (2 * h)
        devs.append(rel(fd, f.dq[j]))
    return max(devs)


def _bachelier_terminal(par, ev: FieldEvaluator, q: float, n_paths: int,
                        seed):
    """Terminal values of the Bachelier run, path by path: (V_T engine,
    V_T closed form, U_T engine, U_T closed form, exploded).

    The Euler paths start at N0(0) and are streamed block by block, one
    step at a time; the closed forms advance on each step's own
    increments as the engine takes them.
    """
    add, result = par.terminal_forms(q, ev.tree.times, n_paths)
    u_T, v_T, exploded = simulate_sde_terminal(ev, q, float(par.N0(0.0)),
                                               n_paths, seed=seed,
                                               on_step=add)
    v_true, u_true = result()
    return v_T, v_true, u_T, u_true, exploded


def _bachelier(rng, probes):
    """One lattice run against the closed forms; ``probes`` paths, at
    least 500."""
    par = BachelierParams(gamma=1.0, b=0.0, mu=0.1, sigma=0.2, s=10.0,
                          horizon=1.0)
    ev = FieldEvaluator(par.panel(), par.lattice(64))
    pb = simulate_sde_paths(ev, 1.0, float(par.N0(0.0)), max(probes, 500),
                            seed=int(rng.integers(0, 2 ** 31)))
    # the closed form in the streamed run's step order, which fixes its bits
    add, result = par.terminal_forms(1.0, pb.times, len(pb.db))
    for k, db in enumerate(pb.db.T):
        add(slice(None), k, db)
    v_true, _ = result()
    impact = 0.5 * par.gamma * par.sigma ** 2 * par.horizon
    dev_v = float(np.abs(pb.V[:, -1] - v_true).mean()) / (0.02 * impact)
    xi = indifference_cash(ev, 1.0)
    dev_xi = abs(xi / par.indifference_price(1.0) - 1.0) / 0.01
    return max(dev_v, dev_xi)


_SUITES = {
    "conjugacy": (_probe_conjugacy, 50, 1e-8),
    "roundtrip": (_probe_roundtrip, 50, 1e-8),
    "martingale": (_probe_martingale, 10, 1e-12),
    "preservation": (_probe_preservation, 10, 1e-8),
    "cbound": (_probe_cbound, 30, 1e-6),
    "sandwich": (_probe_sandwich, 5, 1e-8),
    "noarb": (_probe_noarb, 10, 1e-10),
    "gradient": (_probe_gradient, 30, 1e-6),
    "bachelier": (None, 1000, 1.0),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, probes: int = None,
              corrupt: str = None) -> SuiteResult:
    """Run one suite; ``corrupt`` injects a defect for negative controls.

    'probabilities' and 'signs' corrupt every probe tree; 'threshold'
    sabotages the pass bar.  Martingale-style suites fail under tree
    corruption; purely algebraic suites (which hold for any weights)
    only fail under threshold sabotage.  Each tree suite draws, per
    probe, a tree, then a panel (exponential makers only for 'cbound'),
    and hands their ``FieldEvaluator`` to its probe; 'bachelier' is one
    lattice run.
    """
    if name not in _SUITES:
        raise KeyError(f"unknown suite '{name}' (have {sorted(_SUITES)})")
    probe, default_probes, threshold = _SUITES[name]
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
    if probe is None:
        dev = _bachelier(rng, probes)
    else:
        dev = 0.0
        for _ in range(probes):
            tree = tree_factory(rng)
            panel = _random_panel(rng, exponential_only=name == "cbound")
            dev = max(dev, probe(rng, FieldEvaluator(panel, tree)))
    return SuiteResult(name=name, probes=probes, max_deviation=float(dev),
                       threshold=threshold)

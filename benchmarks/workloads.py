"""Benchmark workloads: seeded inputs, one operation each, and the gate
that every operation's output must pass.

An operation is one call of ``indiffmarket.cli.main`` on inputs made
from the workload seed and the operation index alone, so the same seed
always yields byte-identical configs and operation seeds.  The program
sees only the generated files and arguments.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

# The README's mixed panel: one exponential maker and one sum of two
# exponentials, so ``allocate`` runs its Newton iteration.
MIXED_PANEL = {"makers": [{"gamma": 1.0},
                          {"weights": [1.0, 0.5], "rates": [1.0, 2.0]}]}

# d=1: 13 steps, 8192 leaves, the README payoffs.  d=2: 6 steps,
# 4096 leaves, two payoffs over B1 and B2.
TREES = {
    1: {"kind": "tree", "steps": 13, "horizon": 1.0, "dim": 1,
        "sigma0": "0.3 + 0.2 * B", "psi": ["1.0 + 0.5 * B"]},
    2: {"kind": "tree", "steps": 6, "horizon": 1.0, "dim": 2,
        "sigma0": "0.3 + 0.2 * B1 - 0.1 * B2",
        "psi": ["1.0 + 0.5 * B1", "0.8 + 0.4 * B2"]},
}

# Operation i of tree-simulate uses slot i % 4 of CYCLE: its kind, its
# number of trades and the level of its first trade.  The later trade
# levels, the positions, lam0 and the engine seed are drawn from the
# seed.  An execute operation costs more the earlier its first trade
# (about 2.7 s from level 0, 1.1 s from level 11 on one Xeon core), so
# drawing that level at random would make a run's figures hinge on its
# draws.  Every cycle has the same slots, and the timed phase runs whole
# cycles, so a run's mix of operations does not depend on how many
# cycles fit.  The two execute slots cost about the same, 2 to 3 s, and
# sit between the cheaper d=2 slot and the dearer sde slot, so the
# median latency falls inside one group of operations, not in the gap
# between two.
CYCLE = (("d1-execute", 2, 2), ("d1-execute", 3, 3), ("d1-sde", 4, 1),
         ("d2-execute", 1, 0))

# Gate tolerances: criterion 3 (one-step martingale gap) and criterion 5
# (Bachelier oracle), as pinned in the acceptance tests.
MARTINGALE_TOL = 1e-12
BACHELIER_VT_SHARE = 0.02
BACHELIER_XI_REL = 0.01

# Parameters of the default ``bachelier`` run: one exponential maker,
# selling q = 1 share.  The benchmark computes the closed-form price
# itself rather than trusting the value the program writes.
BACHELIER = {"gamma": 1.0, "sigma": 0.2, "mu": 0.1, "s": 10.0,
             "horizon": 1.0, "q": 1.0}

SUITES = ("conjugacy", "roundtrip", "martingale", "preservation", "cbound",
          "sandwich", "noarb", "gradient", "bachelier")


@dataclass
class Op:
    """One operation: CLI arguments plus where its output goes."""

    kind: str
    argv: list
    out: Path
    meta: dict = field(default_factory=dict)


def op_rng(seed: int, index: int, warmup: bool = False):
    """Generator for one operation, a function of (seed, index) only."""
    return np.random.default_rng([int(seed), int(warmup), int(index)])


class Workload:
    """Base: subclasses define ``make`` and ``check``."""

    name = ""
    cycle = 1          # the timed phase runs whole cycles of this many ops

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)

    def op(self, index: int, warmup: bool = False) -> Op:
        label = f"warmup{index}" if warmup else f"op{index}"
        out = self.workdir / label
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        # the warm-up input is the same for every seed, so that set-up
        # time does not depend on the seed
        rng = op_rng(0 if warmup else self.seed, index, warmup)
        return self.make(index, out, rng, warmup)

    def make(self, index, out, rng, warmup) -> Op:
        raise NotImplementedError

    def check(self, op: Op, rc, stdout: str):
        """Failure reason, or None when the output is correct."""
        raise NotImplementedError

    def digest(self, op: Op, stdout: str) -> str:
        """sha256 of the output CSV files (metadata.json holds wall
        times and is left out)."""
        h = hashlib.sha256()
        for p in sorted(op.out.glob("*.csv")):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        return h.hexdigest()

    def bytes_written(self, op: Op) -> int:
        return sum(p.stat().st_size for p in op.out.iterdir()
                   if p.name != "config.yaml")


# -- tree-simulate ---------------------------------------------------------


def tree_config(rng, kind: str, n_trades: int, first: int) -> dict:
    d = 2 if kind.startswith("d2") else 1
    tree = dict(TREES[d])
    n_assets = len(tree["psi"])
    steps = tree["steps"]
    later = rng.choice(np.arange(first + 1, steps), size=n_trades - 1,
                       replace=False)
    levels = [first] + sorted(int(k) for k in later)
    if n_assets == 1:
        positions = [float(rng.normal(0.0, 0.6)) for _ in levels]
    else:
        positions = [rng.normal(0.0, 0.6, size=n_assets).tolist()
                     for _ in levels]
    return {
        "seed": int(rng.integers(0, 2 ** 31)),
        "panel": MIXED_PANEL,
        "tree": tree,
        "strategy": {"kind": "simple", "levels": levels,
                     "positions": positions},
        "engine": {"mode": "sde" if kind.endswith("sde") else "execute",
                   "lam0": rng.dirichlet([1.0, 1.0]).tolist()},
    }


def check_paths_csv(path: Path, steps: int, dim: int, n_makers: int):
    """Criterion-3 gate on a ``simulate`` output, rebuilt from the config.

    Children of node i at level k are nodes i*2^d .. i*2^d + 2^d - 1 of
    level k+1, each with probability 2^-d.  On every parent that did not
    explode and has no exploded child, each U_m must equal the mean of
    its children to 1e-12 * (1 + max |U| over those parents), and W, X,
    V must be finite on every node that did not explode.
    """
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    col = {name: i for i, name in enumerate(header)}
    nc = 2 ** dim
    sizes = [nc ** k for k in range(steps + 1)]
    rows = lines[2:]
    if len(rows) != sum(sizes):
        return f"paths.csv has {len(rows)} rows, expected {sum(sizes)}"
    data = np.array([[float(c) if c else np.nan for c in r.split(",")]
                     for r in rows])
    try:
        u_cols = [col[f"U_{m + 1}"] for m in range(n_makers)]
        state_cols = ([col[f"W_{m + 1}"] for m in range(n_makers)]
                      + [col["X"], col["V"]])
        ex_col = col["exploded"]
    except KeyError as exc:
        return f"paths.csv lacks column {exc}"
    bounds = np.cumsum([0] + sizes)
    U = [data[a:b, u_cols] for a, b in zip(bounds, bounds[1:])]
    ex = [data[a:b, ex_col] != 0 for a, b in zip(bounds, bounds[1:])]
    for k in range(steps):
        ok = ~ex[k] & ~ex[k + 1].reshape(sizes[k], nc).any(axis=1)
        if not ok.any():
            continue
        mean = U[k + 1].reshape(sizes[k], nc, n_makers).mean(axis=1)
        scale = 1.0 + np.abs(U[k][ok]).max()
        gap = np.abs(mean[ok] - U[k][ok]).max() / scale
        if not gap <= MARTINGALE_TOL:
            return f"martingale gap {gap:.3e} at level {k}"
    alive = ~np.concatenate(ex)
    if not np.isfinite(data[alive][:, state_cols]).all():
        return "non-finite W, X or V on a node that did not explode"
    return None


class TreeSimulate(Workload):
    name = "tree-simulate"
    cycle = len(CYCLE)

    def make(self, index, out, rng, warmup):
        # the warm-up is the cheapest slot: it only has to touch the
        # code paths once
        kind, n_trades, first = (CYCLE[-1] if warmup
                                 else CYCLE[index % len(CYCLE)])
        cfg = tree_config(rng, kind, n_trades, first)
        path = out / "config.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=True))
        return Op(f"{kind}/{n_trades}",
                  ["simulate", "--config", str(path), "--out", str(out)],
                  out, {"steps": cfg["tree"]["steps"],
                        "dim": cfg["tree"]["dim"],
                        "makers": len(cfg["panel"]["makers"])})

    def check(self, op, rc, stdout):
        if rc != 0:
            return f"exit status {rc}"
        return check_paths_csv(op.out / "paths.csv", op.meta["steps"],
                               op.meta["dim"], op.meta["makers"])


# -- lattice-mc ------------------------------------------------------------


def read_summary(path: Path) -> dict:
    rows = path.read_text().splitlines()[2:]
    return {name: float(value) if value else np.nan
            for name, value in (r.split(",") for r in rows)}


def check_bachelier(out: Path):
    """Criterion-5 gate on a ``bachelier`` output.

    Requires mean |V_T error| < 0.02 * impact scale and xi relative error
    < 0.01, with the impact scale and the closed-form price computed
    here, and the reported mean error equal to the mean of the per-path
    errors in ``bachelier_paths.csv``.
    """
    p = BACHELIER
    s = read_summary(out / "bachelier_summary.csv")
    impact = 0.5 * p["gamma"] * p["sigma"] ** 2 * p["horizon"]
    xi_closed = (-p["q"] * p["s"]
                 + 0.5 * p["gamma"] * p["sigma"] ** 2 * p["q"] ** 2
                 * p["horizon"])
    try:
        mean_err, xi_engine = s["mean_abs_vT_error"], s["xi_engine"]
        reported = (s["impact_scale"], s["xi_closed"], s["xi_rel_error"])
    except KeyError as exc:
        return f"bachelier_summary.csv lacks {exc}"
    lines = (out / "bachelier_paths.csv").read_text().splitlines()
    i_err = lines[1].split(",").index("abs_err")
    errs = np.array([float(r.split(",")[i_err]) for r in lines[2:]])
    if not abs(errs.mean() - mean_err) <= 1e-12 * (1.0 + mean_err):
        return (f"summary mean error {mean_err!r} differs from the paths "
                f"file mean {errs.mean()!r}")
    xi_rel = abs(xi_engine / xi_closed - 1.0)
    expected = (impact, xi_closed, xi_rel)
    if not np.allclose(reported, expected, rtol=1e-12, atol=1e-15):
        return f"summary reports {reported}, expected {expected}"
    if not mean_err < BACHELIER_VT_SHARE * impact:
        return f"mean |V_T error| {mean_err:.3e} over bound"
    if not xi_rel < BACHELIER_XI_REL:
        return f"xi relative error {xi_rel:.3e} over bound"
    return None


class LatticeMC(Workload):
    name = "lattice-mc"

    def make(self, index, out, rng, warmup):
        seed = int(rng.integers(0, 2 ** 31))
        return Op("bachelier",
                  ["bachelier", "--steps", "512", "--paths", "10000",
                   "--seed", str(seed), "--out", str(out)], out)

    def check(self, op, rc, stdout):
        if rc != 0:
            return f"exit status {rc}"
        return check_bachelier(op.out)


# -- verify-suites ---------------------------------------------------------


def check_verify(rc, stdout: str):
    """Exit status 0, and one PASS line for each of the nine suites."""
    if rc != 0:
        return f"exit status {rc}"
    verdicts = {line.split()[0]: line.split()[-1]
                for line in stdout.splitlines() if line.strip()}
    bad = [s for s in SUITES if verdicts.get(s) != "PASS"]
    if bad:
        return f"suites without PASS: {bad}"
    return None


class VerifySuites(Workload):
    name = "verify-suites"

    def make(self, index, out, rng, warmup):
        seed = int(rng.integers(0, 2 ** 31))
        return Op("verify-all",
                  ["verify", "--suite", "all", "--seed", str(seed)], out)

    def check(self, op, rc, stdout):
        return check_verify(rc, stdout)

    def digest(self, op, stdout):
        return hashlib.sha256(stdout.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (TreeSimulate, LatticeMC, VerifySuites)}

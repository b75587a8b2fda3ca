"""Command line harness: simulate, verify, bachelier, pareto, dump-tree.

Exit status: 0 on success, 1 when a verification suite fails, 2 on
configuration errors, 3 when a solver fails: the optimal split cannot
be computed (marginal value out of floating-point range, or no
convergence), or a saddle solve stalls above its tolerance.  All
CSV output is deterministic for a fixed config and seed; run metadata
(scheme, tolerances, versions, timing) goes to a separate JSON file so
the CSV bytes stay reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, count, load_config
from .conjugate import _TOL_SCALE, SaddleError
from .engine import execute_simple, simulate_sde
from .engine import indifference_cash, simulate_sde_terminal
from .field import FieldEvaluator
from .representative import (AllocationError, PrimalPoint,
                             representative_utility)
from .utilities import exponential, panel as make_panel
from .verify import SUITE_NAMES, run_suite

_CSV_VERSION = "v1"

# The engine keys each simulate mode reads; any other is rejected.
_MODE_KEYS = {
    "execute": {"mode", "lam0", "tol_scale", "want_v"},
    "sde": {"mode", "lam0", "u0", "eps_explode_scale"},
}


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return ""
    return format(float(x), ".17g")


_CELL = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}


def _write_table(path: Path, header_cols, columns):
    """Write equally long columns as a versioned CSV.

    Integer and boolean columns print with ``%d``, float columns with
    ``%.17g`` and string columns with ``%s``, through one format string
    per row; a ``None`` column and a non-finite float print as empty
    cells.
    """
    columns = [None if c is None else np.asarray(c) for c in columns]
    kinds = [None if c is None else _CELL[c.dtype.kind] for c in columns]
    data = [c for c in columns if c is not None]
    finite = np.ones(len(data[0]), dtype=bool)
    for c in data:
        if c.dtype.kind == "f":
            finite &= np.isfinite(c)
    fmt = ",".join(k or "" for k in kinds)
    lines = [f"# indiffmarket {_CSV_VERSION}", ",".join(header_cols)]
    for row, ok in zip(zip(*[c.tolist() for c in data]), finite.tolist()):
        if ok:
            lines.append(fmt % row)
            continue
        cells = iter(row)
        lines.append(",".join(
            "" if k is None else _fmt(next(cells)) if k == "%.17g"
            else k % next(cells) for k in kinds))
    path.write_text("\n".join(lines) + "\n")


def _write_metadata(out: Path, command: str, cfg_seed: int, scheme=None,
                    wall_time_s=None, extra=None):
    meta = {"command": command, "seed": cfg_seed}
    if scheme is not None:
        meta["scheme"] = scheme
    meta["versions"] = {"indiffmarket": __version__, "numpy": np.__version__}
    meta["wall_time_s"] = wall_time_s
    if extra:
        meta.update(extra)
    (out / "metadata.json").write_text(json.dumps(meta, indent=2) + "\n")


def _reject_blocks(cfg, command: str, blocks):
    """Config error for a nonempty block that ``command`` never reads."""
    for block in blocks:
        if getattr(cfg, block):
            raise ConfigError(f"block '{block}' is not read by {command}")


def _maker_weights(values, M: int, what: str) -> np.ndarray:
    """``values`` as M positive finite weights, or a config error."""
    try:
        v = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        v = None
    if v is None or v.shape != (M,) or not np.all(np.isfinite(v) & (v > 0)):
        raise ConfigError(f"{what} must be positive, one per maker "
                          f"({M} makers)")
    return v


def _simulate(args) -> int:
    cfg = load_config(args.config)
    _reject_blocks(cfg, "simulate", ("bachelier",))
    seed = args.seed if args.seed is not None else cfg.seed
    t0 = time.time()
    panel = cfg.build_panel()
    tree = cfg.build_tree(steps_override=count(args.steps, "--steps"))
    if tree.implicit is False:
        raise ConfigError("simulate needs tree kind 'tree'")
    strategy = cfg.build_strategy(tree)
    mode = cfg.engine.get("mode", "execute")
    if not isinstance(mode, str) or mode not in _MODE_KEYS:
        raise ConfigError(f"engine: unknown mode '{mode}'")
    unread = sorted(set(cfg.engine) - _MODE_KEYS[mode])
    if unread:
        raise ConfigError(
            f"engine: key '{unread[0]}' is not read in {mode} mode")
    ev = FieldEvaluator(panel, tree)
    M, J = panel.size, tree.n_assets
    sizes = [tree.n_nodes(k) for k in range(tree.steps + 1)]
    lam0 = cfg.engine.get("lam0")
    if lam0 is not None:
        lam0 = _maker_weights(lam0, M, "engine: lam0")

    if mode == "execute":
        tol_scale = float(cfg.engine.get("tol_scale", 1e-13))
        want_v = bool(cfg.engine.get("want_v", True))
        res = execute_simple(ev, strategy, lam0=lam0,
                             want_interior_V=want_v, tol_scale=tol_scale)
        exploded = np.zeros(sum(sizes), dtype=bool)
        tolerances = {"trade_saddle": tol_scale}
        if want_v:
            tolerances["interior_v_saddle"] = _TOL_SCALE
    else:
        eps_scale = float(cfg.engine.get("eps_explode_scale", 1e-10))
        lam0 = np.full(M, 1.0 / M) if lam0 is None else lam0 / np.sum(lam0)
        u0 = cfg.engine.get("u0")
        if u0 is None:
            u0 = ev.field(PrimalPoint(v=lam0, x=0.0, q=np.zeros(J))).dv
        q_levels = _positions_by_level(strategy, tree)
        res = simulate_sde(ev, q_levels, u0, eps_scale=eps_scale)
        exploded = np.concatenate(res.exploded)
        tolerances = {"saddle": _TOL_SCALE, "eps_explode_scale": eps_scale}

    out = Path(args.out or cfg.output.get("directory", "out"))
    out.mkdir(parents=True, exist_ok=True)
    cols = (["node_id", "t"] + [f"U_{m + 1}" for m in range(M)]
            + [f"W_{m + 1}" for m in range(M)] + ["X", "V"]
            + [f"Q_{j + 1}" for j in range(J)] + ["exploded"])

    def by_level(parts, width):
        """``width`` columns over all nodes from per-level blocks, or
        ``width`` None columns when the levels carry no blocks."""
        if parts[0] is None:
            return [None] * width
        return list(np.concatenate(parts).reshape(-1, width).T)

    columns = ([np.arange(sum(sizes)), np.repeat(tree.times, sizes)]
               + by_level(res.U, M) + by_level(res.W, M)
               + by_level(res.X, 1) + by_level(res.V, 1)
               + by_level(res.Q, J) + [exploded])
    _write_table(out / "paths.csv", cols, columns)
    _write_metadata(out, "simulate", seed,
                    scheme="exact" if mode == "execute" else "euler",
                    wall_time_s=time.time() - t0, extra={
                        "mode": mode, "steps": tree.steps,
                        "tolerances": tolerances})
    return 0


def _positions_by_level(strategy, tree):
    q_levels = []
    current = np.zeros(tree.n_assets)
    trades = dict(zip(strategy.levels,
                      range(len(strategy.levels))))
    for k in range(tree.steps):
        if k in trades:
            pos = np.asarray(strategy.positions[trades[k]], float)
            if pos.ndim > 1:
                raise ConfigError(
                    "sde mode needs deterministic strategy positions")
            current = np.broadcast_to(np.atleast_1d(pos),
                                      (tree.n_assets,)).copy()
        q_levels.append(current.copy())
    return q_levels


def _verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    probes = count(args.probes, "--probes")
    names = SUITE_NAMES if args.suite in (None, "all") else tuple(
        s.strip() for s in args.suite.split(","))
    results = []
    for name in names:
        try:
            results.append(run_suite(name, seed=seed, probes=probes))
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    for r in results:
        print(r.line())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_table(out / "verify.csv",
                     ["suite", "probes", "max_deviation", "threshold",
                      "verdict"],
                     [[r.name for r in results], [r.probes for r in results],
                      [r.max_deviation for r in results],
                      [r.threshold for r in results],
                      ["pass" if r.passed else "fail" for r in results]])
        _write_metadata(out, "verify", seed)
    return 0 if all(r.passed for r in results) else 1


def _bachelier_terminal(par, ev: FieldEvaluator, q: float, n_paths: int,
                        seed):
    """Terminal values of the Bachelier run, path by path: (V_T engine,
    V_T closed form, U_T engine, U_T closed form, exploded).

    The Euler paths start at N0(0) and are streamed block by block; the
    closed forms are evaluated on each block's own increments.
    """
    times = ev.tree.times
    blocks = []
    for u, v, exploded, db in simulate_sde_terminal(
            ev, q, float(par.N0(0.0)), n_paths, seed=seed):
        # copy the last columns: a view would keep each block's full
        # closed-form paths alive
        blocks.append((v, par.gain(q, db, times)[:, -1].copy(), u,
                       par.indirect_utility(q, db, times)[:, -1].copy(),
                       exploded))
    return tuple(np.concatenate(col) for col in zip(*blocks))


def _bachelier(args) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig(
        bachelier={"sigma": 0.2, "gamma": 1.0, "mu": 0.1, "s": 10.0,
                   "horizon": 1.0})
    _reject_blocks(cfg, "bachelier", ("panel", "tree", "strategy", "engine"))
    par = cfg.build_bachelier()
    seed = args.seed if args.seed is not None else cfg.seed
    b = cfg.bachelier
    steps = (count(b.get("steps", 512), "bachelier: steps")
             if args.steps is None else count(args.steps, "--steps"))
    n_paths = (count(b.get("paths", 10_000), "bachelier: paths")
               if args.paths is None else count(args.paths, "--paths"))
    q = float(cfg.bachelier.get("q", 1.0))
    t0 = time.time()
    ev = FieldEvaluator(par.panel(), par.lattice(steps))
    v_T, v_true, u_T, u_true, exploded = _bachelier_terminal(par, ev, q,
                                                             n_paths, seed)
    xi = indifference_cash(ev, q)
    xi_closed = float(par.indifference_price(q))

    out = Path(args.out or cfg.output.get("directory", "out"))
    out.mkdir(parents=True, exist_ok=True)
    err = np.abs(v_T - v_true)
    _write_table(out / "bachelier_paths.csv",
                 ["path_id", "V_T_engine", "V_T_closed", "abs_err",
                  "U_T_engine", "U_T_closed", "exploded"],
                 [np.arange(n_paths), v_T, v_true, err, u_T, u_true,
                  exploded])
    _write_table(out / "bachelier_summary.csv", ["metric", "value"], [
        ["mean_abs_vT_error", "max_abs_vT_error", "impact_scale",
         "xi_engine", "xi_closed", "xi_rel_error"],
        [err.mean(), err.max(), 0.5 * par.gamma * par.sigma ** 2 * par.horizon,
         xi, xi_closed, abs(xi / xi_closed - 1.0) if xi_closed else abs(xi)]])
    _write_metadata(out, "bachelier", seed, scheme="euler",
                    wall_time_s=time.time() - t0,
                    extra={"steps": steps, "paths": n_paths, "q": q})
    return 0


def _pareto(args) -> int:
    gammas = args.gammas.split(",")
    gammas = _maker_weights(gammas, len(gammas), "pareto: --gammas")
    panel = make_panel(*[exponential(g) for g in gammas.tolist()])
    v = (np.ones(panel.size) if args.weights is None
         else _maker_weights(args.weights.split(","), panel.size,
                             "pareto: --weights"))
    if args.u:
        try:
            u = np.asarray(args.u.split(","), dtype=float)
        except ValueError:
            u = None
        if u is None or u.shape != (panel.size,) or not np.all(u < 0):
            raise ConfigError("pareto: --u must be negative utilities, one "
                              "per maker")
    r, split, y = representative_utility(panel, v, float(args.total))
    print(f"r = {_fmt(r)}")
    print(f"y = {_fmt(y)}")
    print("split = " + ",".join(_fmt(s) for s in split))
    if args.u:
        pi = np.array([spec.inverse_value(u[m])
                       for m, spec in enumerate(panel.makers)])
        print(f"G = {_fmt(pi.sum())}")
    return 0


def _dump_tree(args) -> int:
    cfg = load_config(args.config)
    tree = cfg.build_tree(steps_override=count(args.steps, "--steps"))
    out = Path(args.out or cfg.output.get("directory", "out"))
    out.mkdir(parents=True, exist_ok=True)
    cols = tree.node_columns()
    _write_table(out / "tree.csv", list(cols), list(cols.values()))
    _write_metadata(out, "dump-tree", cfg.seed)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="indiffmarket",
        description="Trading at market indifference prices: simulation "
                    "and verification harness")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the configured engine")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out")
    sim.add_argument("--steps", type=int)
    sim.set_defaults(func=_simulate)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", help="suite name, comma list, or 'all'")
    ver.add_argument("--seed", type=int)
    ver.add_argument("--probes", type=int)
    ver.add_argument("--out")
    ver.set_defaults(func=_verify)

    bac = sub.add_parser("bachelier", help="engine vs closed-form "
                                           "comparison")
    bac.add_argument("--config")
    bac.add_argument("--seed", type=int)
    bac.add_argument("--paths", type=int)
    bac.add_argument("--steps", type=int)
    bac.add_argument("--out")
    bac.set_defaults(func=_bachelier)

    par = sub.add_parser("pareto", help="one-shot representative-agent "
                                        "evaluation")
    par.add_argument("--gammas", required=True,
                     help="comma list of exponential risk aversions")
    par.add_argument("--weights", help="comma list of Pareto weights")
    par.add_argument("--total", type=float, default=0.0)
    par.add_argument("--u", help="comma list of utility targets for G")
    par.set_defaults(func=_pareto)

    dmp = sub.add_parser("dump-tree", help="write the scenario tree as CSV")
    dmp.add_argument("--config", required=True)
    dmp.add_argument("--steps", type=int)
    dmp.add_argument("--out")
    dmp.set_defaults(func=_dump_tree)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AllocationError as exc:
        print(f"allocation error: {exc}", file=sys.stderr)
        return 3
    except SaddleError as exc:
        print(f"saddle error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command line harness: simulate, verify, bachelier, pareto, dump-tree.

Exit status: 0 on success, 1 when a verification suite fails, 2 on
configuration errors.  All CSV output is deterministic for a fixed
config and seed; run metadata (scheme, tolerances, versions, timing)
goes to a separate JSON file so the CSV bytes stay reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config
from .conjugate import _TOL_SCALE
from .engine import execute_simple, simulate_sde
from .engine import indifference_cash, simulate_sde_paths
from .field import FieldEvaluator
from .representative import PrimalPoint, representative_utility
from .utilities import exponential, panel as make_panel
from .verify import DEFAULT_PROBES, SUITE_NAMES, run_suite

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


def _write_csv(path: Path, header_cols, rows):
    lines = [f"# indiffmarket {_CSV_VERSION}", ",".join(header_cols)]
    for row in rows:
        lines.append(",".join(
            str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _write_table(path: Path, header_cols, columns):
    """Write equally long columns as the bytes ``_write_csv`` would.

    Integer columns print with ``%d``, float columns with ``%.17g``, and
    a ``None`` column as empty cells, through one format string per row.
    Rows holding a non-finite float fall back to ``_fmt`` cell by cell.
    """
    kinds = [None if c is None
             else "%d" if np.issubdtype(c.dtype, np.integer) else "%.17g"
             for c in columns]
    fmt = ",".join(k or "" for k in kinds)
    data = np.column_stack([np.asarray(c, dtype=float)
                            for c in columns if c is not None])
    lines = [f"# indiffmarket {_CSV_VERSION}", ",".join(header_cols)]
    for row, finite in zip(data.tolist(),
                           np.isfinite(data).all(axis=1).tolist()):
        if finite:
            lines.append(fmt % tuple(row))
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


def _simulate(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    t0 = time.time()
    panel = cfg.build_panel()
    tree = cfg.build_tree(steps_override=args.steps)
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

    if mode == "execute":
        tol_scale = float(cfg.engine.get("tol_scale", 1e-13))
        want_v = bool(cfg.engine.get("want_v", True))
        res = execute_simple(ev, strategy, lam0=cfg.engine.get("lam0"),
                             want_interior_V=want_v, tol_scale=tol_scale)
        U, W, X, V, Q = res.U, res.W, res.X, res.V, res.Q
        exploded = [np.zeros(tree.n_nodes(k), dtype=bool)
                    for k in range(tree.steps + 1)]
        tolerances = {"trade_saddle": tol_scale}
        if want_v:
            tolerances["interior_v_saddle"] = _TOL_SCALE
    else:
        eps_scale = float(cfg.engine.get("eps_explode_scale", 1e-10))
        lam0 = cfg.engine.get("lam0")
        lam0 = (np.full(M, 1.0 / M) if lam0 is None
                else np.asarray(lam0, float) / np.sum(lam0))
        u0 = cfg.engine.get("u0")
        if u0 is None:
            u0 = ev.field(PrimalPoint(v=lam0, x=0.0, q=np.zeros(J))).dv
        q_levels = _positions_by_level(strategy, tree)
        res = simulate_sde(ev, q_levels, u0, eps_scale=eps_scale)
        U, W, X, V = res.U, res.W, res.X, res.V
        # the last interval's position, expanded to the terminal nodes
        owner = tree.ancestor_index(tree.steps,
                                    np.arange(tree.n_nodes(tree.steps)),
                                    tree.steps - 1)
        q_last = np.atleast_2d(res.Q[-1])
        if q_last.shape[0] == tree.n_nodes(tree.steps - 1):
            q_last = q_last[owner]
        Q = res.Q + [q_last]
        exploded = res.exploded
        tolerances = {"saddle": _TOL_SCALE, "eps_explode_scale": eps_scale}

    out = Path(args.out or cfg.output.get("directory", "out"))
    out.mkdir(parents=True, exist_ok=True)
    cols = (["node_id", "t"] + [f"U_{m + 1}" for m in range(M)]
            + [f"W_{m + 1}" for m in range(M)] + ["X", "V"]
            + [f"Q_{j + 1}" for j in range(J)] + ["exploded"])
    sizes = [tree.n_nodes(k) for k in range(tree.steps + 1)]

    def by_level(parts, width):
        """``width`` columns over all nodes from per-level blocks: NaN on
        a level whose block is None, all None if every block is."""
        if all(p is None for p in parts):
            return [None] * width
        full = np.concatenate([
            np.full((n, width), np.nan) if p is None
            else np.broadcast_to(np.reshape(p, (-1, width)), (n, width))
            for p, n in zip(parts, sizes)])
        return list(full.T)

    q_parts = [Q[k] if k < len(Q) and Q[k] is not None else np.zeros((1, J))
               for k in range(tree.steps + 1)]
    columns = ([np.arange(sum(sizes)), np.repeat(tree.times, sizes)]
               + by_level(U, M) + by_level(W, M) + by_level(X, 1)
               + by_level(V, 1) + by_level(q_parts, J)
               + [np.concatenate(exploded).astype(int)])
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
    names = SUITE_NAMES if args.suite in (None, "all") else tuple(
        s.strip() for s in args.suite.split(","))
    results = []
    for name in names:
        try:
            results.append(run_suite(name, seed=seed, probes=args.probes))
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    for r in results:
        print(r.line())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "verify.csv",
                   ["suite", "probes", "max_deviation", "threshold",
                    "verdict"],
                   [[r.name, r.probes, r.max_deviation, r.threshold,
                     "pass" if r.passed else "fail"] for r in results])
        _write_metadata(out, "verify", seed)
    return 0 if all(r.passed for r in results) else 1


def _bachelier(args) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig(
        bachelier={"sigma": 0.2, "gamma": 1.0, "mu": 0.1, "s": 10.0,
                   "horizon": 1.0})
    par = cfg.build_bachelier()
    seed = args.seed if args.seed is not None else cfg.seed
    steps = args.steps or int(cfg.bachelier.get("steps", 512))
    n_paths = args.paths or int(cfg.bachelier.get("paths", 10_000))
    q = float(cfg.bachelier.get("q", 1.0))
    t0 = time.time()
    panel = par.panel()
    lat = par.lattice(steps)
    pb = simulate_sde_paths(panel, lat, q, float(par.N0(0.0)), n_paths,
                            seed=seed)
    v_true = par.gain(q, pb.db, pb.times)[:, -1]
    u_true = par.indirect_utility(q, pb.db, pb.times)[:, -1]
    xi = indifference_cash(panel, lat, q)
    xi_closed = float(par.indifference_price(q))

    out = Path(args.out or cfg.output.get("directory", "out"))
    out.mkdir(parents=True, exist_ok=True)
    err = np.abs(pb.V[:, -1] - v_true)
    _write_table(out / "bachelier_paths.csv",
                 ["path_id", "V_T_engine", "V_T_closed", "abs_err",
                  "U_T_engine", "U_T_closed", "exploded"],
                 [np.arange(n_paths), pb.V[:, -1], v_true, err, pb.U[:, -1],
                  u_true, np.asarray(pb.exploded).astype(int)])
    _write_csv(out / "bachelier_summary.csv",
               ["metric", "value"],
               [["mean_abs_vT_error", float(err.mean())],
                ["max_abs_vT_error", float(err.max())],
                ["impact_scale", 0.5 * par.gamma * par.sigma ** 2
                 * par.horizon],
                ["xi_engine", xi],
                ["xi_closed", xi_closed],
                ["xi_rel_error", abs(xi / xi_closed - 1.0)
                 if xi_closed else abs(xi)]])
    _write_metadata(out, "bachelier", seed, scheme="euler",
                    wall_time_s=time.time() - t0,
                    extra={"steps": steps, "paths": n_paths, "q": q})
    return 0


def _pareto(args) -> int:
    gammas = [float(g) for g in args.gammas.split(",")]
    panel = make_panel(*[exponential(g) for g in gammas])
    v = (np.ones(panel.size) if args.weights is None
         else np.asarray([float(w) for w in args.weights.split(",")]))
    if v.shape != (panel.size,) or np.any(v <= 0):
        raise ConfigError("pareto: weights must be positive, one per maker")
    r, split, y = representative_utility(panel, v, float(args.total))
    print(f"r = {_fmt(r)}")
    print(f"y = {_fmt(y)}")
    print("split = " + ",".join(_fmt(s) for s in split))
    if args.u:
        u = np.asarray([float(s) for s in args.u.split(",")])
        if u.shape != (panel.size,) or np.any(u >= 0):
            raise ConfigError("pareto: utilities must be negative, one "
                              "per maker")
        pi = np.array([spec.inverse_value(u[m])
                       for m, spec in enumerate(panel.makers)])
        print(f"G = {_fmt(pi.sum())}")
    return 0


def _dump_tree(args) -> int:
    cfg = load_config(args.config)
    tree = cfg.build_tree(steps_override=args.steps)
    out = Path(args.out or cfg.output.get("directory", "out"))
    out.mkdir(parents=True, exist_ok=True)
    d, J = tree.dim, tree.n_assets
    cols = (["node_id", "parent_id", "t", "prob"]
            + [f"dB_{i + 1}" for i in range(d)] + ["sigma0"]
            + [f"psi_{j + 1}" for j in range(J)])
    _write_csv(out / "tree.csv", cols, list(tree.node_rows()))
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


if __name__ == "__main__":
    sys.exit(main())

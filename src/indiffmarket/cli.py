"""Command line harness: simulate, verify, bachelier, pareto, dump-tree.

Config blocks are read and checked only in ``config``; this module
dispatches, runs and writes output.  Exit status: 0 on success, 1 when
a verification suite fails, 2 on a malformed config value or option, 3
when a solver fails (the optimal split cannot be computed, a utility
value cannot be inverted, or a saddle solve stalls above its
tolerance).  CSV output is deterministic for a fixed config and seed;
run metadata goes to a separate JSON file so the CSV bytes stay
reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, _number, count, load_config, per_maker,
                     seed_of)
from .conjugate import _TOL_SCALE, SaddleError
from .engine import execute_simple, indifference_cash, simulate_sde
from .field import FieldEvaluator
from .representative import (AllocationError, PrimalPoint,
                             representative_utility)
from .utilities import InverseValueError, exponential, panel as make_panel
from .verify import SUITE_NAMES, _bachelier_terminal, run_suite

_CSV_VERSION = "v1"
_BOOL_CELLS = np.array(["0", "1"], dtype=object)


def _cells(column, n: int) -> list:
    """The CSV cells of one column of ``n`` rows.

    A float column formats each distinct value once, keyed by its bits
    (so -0.0 and every NaN payload stay apart), with ``%.17g``, and a
    non-finite value as an empty cell; boolean columns print as "0" and
    "1", read from a two-entry table, integer columns as ``str`` of
    int64, string columns as they are, and a None column as empty cells.
    """
    if column is None:
        return [""] * n
    column = np.asarray(column)
    if column.dtype.kind == "b":
        return _BOOL_CELLS[column.view(np.uint8)].tolist()
    if column.dtype.kind in "iu":
        return list(map(str, column.astype(np.int64).tolist()))
    if column.dtype.kind != "f":
        return list(map(str, column.tolist()))
    bits, where = np.unique(np.asarray(column, dtype=float).view(np.int64),
                            return_inverse=True)
    text = ["%.17g" % v if math.isfinite(v) else ""
            for v in bits.view(float).tolist()]
    return np.array(text, dtype=object)[where].tolist()


def _write_table(path: Path, header_cols, columns):
    """Write equally long columns as a versioned CSV (cells: ``_cells``)."""
    n = len(next(c for c in columns if c is not None))
    rows = map(",".join, zip(*[_cells(c, n) for c in columns]))
    path.write_text("\n".join([f"# indiffmarket {_CSV_VERSION}",
                               ",".join(header_cols), *rows]) + "\n")


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
    cfg = load_config(args.config, "simulate")
    seed = seed_of(args.seed, cfg.seed)
    t0 = time.time()
    panel = cfg.build_panel()
    tree = cfg.build_tree(args.steps)
    if not tree.implicit:
        raise ConfigError("simulate needs tree kind 'tree'")
    strategy = cfg.build_strategy(tree)
    M, J = panel.size, tree.n_assets
    mode, lam0, tol_scale, want_v, u0, eps_scale = cfg.build_engine(M)
    ev = FieldEvaluator(panel, tree)
    sizes = [tree.n_nodes(k) for k in range(tree.steps + 1)]

    if mode == "execute":
        res = execute_simple(ev, strategy, lam0=lam0,
                             want_interior_V=want_v, tol_scale=tol_scale)
        exploded = np.zeros(sum(sizes), dtype=bool)
        tolerances = {"trade_saddle": tol_scale}
        if want_v:
            tolerances["interior_v_saddle"] = _TOL_SCALE
    else:
        lam0 = np.full(M, 1.0 / M) if lam0 is None else lam0 / np.sum(lam0)
        if u0 is None:
            u0 = ev.field(PrimalPoint(v=lam0, x=0.0, q=np.zeros(J))).dv
        res = simulate_sde(ev, strategy.held(tree), u0,
                           eps_scale=eps_scale)
        exploded = np.concatenate(res.exploded)
        tolerances = {"saddle": _TOL_SCALE, "eps_explode_scale": eps_scale}

    out = cfg.build_output(args.out)
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


def _verify(args) -> int:
    seed = seed_of(args.seed, 0)
    probes = count(args.probes, "--probes")
    names = SUITE_NAMES if args.suite in (None, "all") else tuple(
        s.strip() for s in args.suite.split(","))
    unknown = sorted(set(names) - set(SUITE_NAMES))
    if unknown:
        raise ConfigError(f"--suite: unknown suites {unknown} (have "
                          f"{', '.join(SUITE_NAMES)})")
    results = [run_suite(name, seed=seed, probes=probes) for name in names]
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


def _bachelier(args) -> int:
    cfg = load_config(args.config, "bachelier")
    par, q, steps, n_paths = cfg.build_bachelier(args.steps, args.paths)
    seed = seed_of(args.seed, cfg.seed)
    t0 = time.time()
    ev = FieldEvaluator(par.panel(), par.lattice(steps))
    v_T, v_true, u_T, u_true, exploded = _bachelier_terminal(par, ev, q,
                                                             n_paths, seed)
    xi = indifference_cash(ev, q)
    xi_closed = float(par.indifference_price(q))

    out = cfg.build_output(args.out)
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
    gammas = per_maker(gammas, len(gammas), 1, "pareto: --gammas")
    panel = make_panel(*[exponential(g) for g in gammas.tolist()])
    v = (np.ones(panel.size) if args.weights is None
         else per_maker(args.weights.split(","), panel.size, 1,
                        "pareto: --weights"))
    if args.u:
        u = per_maker(args.u.split(","), panel.size, -1, "pareto: --u")
    total = _number(args.total, "pareto: --total")
    r, split, y = representative_utility(panel, v, total)
    r, y, *split = _cells(np.hstack([r, y, split]), 2 + len(split))
    print(f"r = {r}")
    print(f"y = {y}")
    print("split = " + ",".join(split))
    if args.u:
        pi = np.array([spec.inverse_value(u[m])
                       for m, spec in enumerate(panel.makers)])
        print(f"G = {_cells([pi.sum()], 1)[0]}")
    return 0


def _dump_tree(args) -> int:
    cfg = load_config(args.config, "dump-tree")
    # the other blocks of an experiment config are optional here, but
    # those given are built as simulate builds them, so a malformed
    # value is the config error that simulate reports; the strategy is
    # not fitted to the tree, which --steps may resize
    present = cfg.blocks.keys()
    makers = cfg.build_panel().size if "panel" in present else None
    tree = cfg.build_tree(args.steps)
    if "strategy" in present:
        cfg.build_strategy()
    if "engine" in present:
        cfg.build_engine(makers)
    out = cfg.build_output(args.out)
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
    except InverseValueError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

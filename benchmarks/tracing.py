"""Outside-in tracing of the indiffmarket layers.

``install`` replaces each traced public function by a wrapper, under
every module attribute that refers to it, because the library's modules
import functions by name (``engine.saddle_batch`` is the same object as
``conjugate.saddle_batch``).  Methods are wrapped on their class.  The
library itself is not modified; ``install`` returns a function that puts
the originals back.

A wrapper records a span (id, name, start, end, parent id, op id) and
the span's self time, which is its duration minus the durations of the
spans it directly contains.  Counts are taken in the same wrappers, at
the call boundary.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from workloads import SUITES

SWEEP = "field.FieldEvaluator.sweep_leaf_states"
SWEEP_STATES = "field.FieldEvaluator.sweep_states"
SWEEP_POINT = "field.FieldEvaluator.sweep_point"
ALLOCATE = "representative.allocate"
CURVATURE = "representative.allocation_curvature"
SADDLE = "conjugate.saddle_batch"
ONE_ROW_CALLERS = ("conjugate.conjugate_G", "engine.state_from_U",
                   "engine.kernel_K")
TREE_BUILDERS = ("tree.binomial_tree", "tree.binomial_lattice")
OP = "cli.main"
RUN_SUITE = "verify.run_suite"
UTILITY_PREFIX = "utilities.UtilitySpec."
ORACLE_PREFIX = "bachelier.BachelierParams."


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.stats = {}          # span name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.op_id = -1
        self._next_id = 0
        self._origin = perf_counter()

    def reset(self):
        """Clear the aggregates; spans are kept for ``write``."""
        self.stats.clear()
        self.counts.clear()

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self.stack)

    def wrap(self, name, fn, after=None, before=None):
        """Wrapper recording a span around ``fn``.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(args, kwargs, result, state, duration, parent)``,
        which runs once the call has returned.
        """
        stack, spans, stats = self.stack, self.spans, self.stats

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            frame = [self._next_id, 0.0, name]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                spans.append((frame[0], name, start, end,
                              parent[0] if parent else -1, self.op_id))
            if after:
                after(args, kwargs, result, state, duration,
                      parent[2] if parent else None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def write(self, path):
        """Write every span as CSV, times in seconds from tracer start."""
        o = self._origin
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(f"{sid},{name},{start - o:.9f},{end - o:.9f},"
                         f"{parent},{op}\n")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def install(tracer: Tracer):
    """Wrap the traced names of every layer; returns the undo function."""
    import indiffmarket

    modules = [indiffmarket] + [
        importlib.import_module(f"indiffmarket.{m.name}")
        for m in pkgutil.iter_modules(indiffmarket.__path__)]
    c = tracer.counts
    undo = []

    def function(layer, name, after=None, before=None):
        original = getattr(importlib.import_module(f"indiffmarket.{layer}"),
                           name, None)
        if original is None:
            print(f"trace: indiffmarket.{layer}.{name} not found",
                  file=sys.stderr)
            return
        wrapper = tracer.wrap(f"{layer}.{name}", original, after, before)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def method(layer, cls_name, name, after=None, before=None):
        cls = getattr(importlib.import_module(f"indiffmarket.{layer}"),
                      cls_name)
        original = cls.__dict__.get(name)
        if original is None:
            print(f"trace: indiffmarket.{layer}.{cls_name}.{name} not found",
                  file=sys.stderr)
            return
        undo.append((cls, name, original))
        setattr(cls, name, tracer.wrap(f"{layer}.{cls_name}.{name}",
                                       original, after, before))

    # -- representative and utilities ----------------------------------
    def before_allocate(args, kwargs):
        return c["lma_calls"]

    def after_allocate(args, kwargs, result, lma0, duration, parent):
        panel = _arg(args, kwargs, 0, "panel")
        c["allocate.rows"] += int(np.shape(result[0])[0])
        c["newton_iters"] += (c["lma_calls"] - lma0) / panel.size

    function("representative", "allocate", after_allocate, before_allocate)
    function("representative", "allocation_curvature")
    function("representative", "representative_utility")

    def after_lma(args, kwargs, result, state, duration, parent):
        c["lma_calls"] += 1

    for name in ("value", "marginal", "marginal_and_aversion",
                 "second_derivative", "risk_aversion", "risk_tolerance",
                 "inverse_marginal", "inverse_value",
                 "inverse_marginal_slope"):
        method("utilities", "UtilitySpec", name)
    method("utilities", "UtilitySpec", "log_marginal_and_aversion",
           after_lma)

    # -- tree ------------------------------------------------------------
    def after_build(args, kwargs, result, state, duration, parent):
        c["leaves_built"] += result.n_leaves

    function("tree", "binomial_tree", after_build)
    function("tree", "binomial_lattice", after_build)

    # -- field -----------------------------------------------------------
    def after_sweep(args, kwargs, result, state, duration, parent):
        ev = args[0]
        tree = ev.tree
        order = _arg(args, kwargs, 4, "order", 1)
        rows = tree.n_leaves
        c["leaf_rows"] += rows
        if order >= 2:
            c["sweeps_order2"] += 1
        if parent not in (SWEEP_STATES, SWEEP_POINT):
            c["nodes_asked"] += rows
        if tracer.inside(SADDLE):
            c["saddle_newton" if order >= 2 else "saddle_linesearch"] += 1
        moved = 0
        for levels in result.comps.values():
            for k in range(tree.steps):
                per_row = levels[k].nbytes // max(levels[k].shape[0], 1)
                moved += (tree.child_idx[k].size * per_row + levels[k].nbytes
                          + tree.child_idx[k].nbytes + tree.edge_p[k].nbytes)
        c["pullback_bytes"] += moved

    def after_sweep_states(args, kwargs, result, state, duration, parent):
        c["nodes_asked"] += args[0].tree.n_nodes(_arg(args, kwargs, 1,
                                                      "level"))

    def after_sweep_point(args, kwargs, result, state, duration, parent):
        c["nodes_asked"] += 1

    method("field", "FieldEvaluator", "sweep_leaf_states", after_sweep)
    method("field", "FieldEvaluator", "sweep_states", after_sweep_states)
    method("field", "FieldEvaluator", "sweep_point", after_sweep_point)
    for name in ("field", "integrand", "marginal_price",
                 "martingale_deviation"):
        method("field", "FieldEvaluator", name)

    # -- conjugate ---------------------------------------------------------
    def after_saddle(args, kwargs, result, state, duration, parent):
        n = args[0].tree.n_nodes(_arg(args, kwargs, 1, "level"))
        c["saddle_nodes"] += n
        c["saddle_rows_used"] += 1 if parent in ONE_ROW_CALLERS else n

    function("conjugate", "saddle_batch", after_saddle)
    for name in ("conjugate_G", "dual_point", "state_identities",
                 "matrices_primal", "matrices_dual", "conjugacy_residuals"):
        function("conjugate", name)

    # -- engine ------------------------------------------------------------
    def after_execute(args, kwargs, result, state, duration, parent):
        c["rebalances"] += len(result.rebalances)

    def after_paths(args, kwargs, result, state, duration, parent):
        n_paths, n_cols = result.U.shape
        c["path_steps"] += n_paths * (n_cols - 1)

    function("engine", "execute_simple", after_execute)
    function("engine", "simulate_sde")
    function("engine", "simulate_sde_paths", after_paths)
    for name in ("indifference_cash", "no_arbitrage_gap", "kernel_K",
                 "state_from_U"):
        function("engine", name)

    # -- bachelier oracle --------------------------------------------------
    for name in ("kappa", "price", "N0", "N", "field_F", "dHdv", "kernel_K",
                 "indirect_utility", "gain", "indifference_price"):
        method("bachelier", "BachelierParams", name)

    # -- verify --------------------------------------------------------------
    def after_suite(args, kwargs, result, state, duration, parent):
        c[f"suite:{_arg(args, kwargs, 0, 'name')}"] += duration

    function("verify", "run_suite", after_suite)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# name -> (unit, better); the per-layer metrics of one traced pass.
# Times ending in self_s exclude the wrapped calls a span contains.
# us_per_row is allocate's inclusive time (its utility calls included)
# per row.  newton_iters is log_marginal_and_aversion calls over the
# panel size, since only allocate's Newton loop calls it.
# leaf_rows_per_node divides leaf rows swept by the nodes the callers
# asked about: the level's node count for sweep_states, one for
# sweep_point, the leaf count for a direct sweep_leaf_states call.
# pullback_bytes_computed is counted from array sizes, not measured: per
# component and level, the gathered children, the index and probability
# arrays, and the result.  rows_used_ratio is rows the caller keeps over
# rows solved: conjugate_G, state_from_U and kernel_K keep one row.
LAYER_METRICS = {
    "representative.allocate.calls": ("count", "lower"),
    "representative.allocate.rows": ("count", "lower"),
    "representative.allocate.self_s": ("s", "lower"),
    "representative.allocation_curvature.self_s": ("s", "lower"),
    "representative.newton_iters": ("count", "lower"),
    "representative.us_per_row": ("us", "lower"),
    "utilities.calls": ("count", "lower"),
    "utilities.self_s": ("s", "lower"),
    "field.sweeps": ("count", "lower"),
    "field.sweeps_order2": ("count", "lower"),
    "field.leaf_rows": ("count", "lower"),
    "field.leaf_rows_per_node": ("ratio", "lower"),
    "field.sweep.self_s": ("s", "lower"),
    "field.pullback_bytes_computed": ("bytes", "lower"),
    "conjugate.saddle.calls": ("count", "lower"),
    "conjugate.saddle.nodes": ("count", "lower"),
    "conjugate.saddle.self_s": ("s", "lower"),
    "conjugate.saddle.newton_iters": ("count", "lower"),
    "conjugate.saddle.linesearch_evals": ("count", "lower"),
    "conjugate.saddle.rows_used_ratio": ("ratio", "higher"),
    "engine.execute_simple.self_s": ("s", "lower"),
    "engine.simulate_sde.self_s": ("s", "lower"),
    "engine.rebalances": ("count", "lower"),
    "engine.simulate_sde_paths.self_s": ("s", "lower"),
    "engine.path_steps": ("count", "lower"),
    "engine.path_steps_per_s": ("1/s", "higher"),
    "tree.build_s": ("s", "lower"),
    "tree.leaves_built": ("count", "lower"),
    "bachelier.oracle_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    **{f"verify.{suite}.s": ("s", "lower") for suite in SUITES},
    "verify.harness.self_s": ("s", "lower"),
    "trace.pass_ops": ("count", "higher"),
    "trace.ops_per_s_untraced": ("1/s", "higher"),
    "trace.ops_per_s_traced": ("1/s", "higher"),
    "trace.overhead_ops_per_s": ("1/s", "lower"),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced pass (without ``trace.*``)."""
    stats, c = tracer.stats, tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    utility = [n for n in stats if n.startswith(UTILITY_PREFIX)]
    oracle = [n for n in stats if n.startswith(ORACLE_PREFIX)]
    paths_self = self_s("engine.simulate_sde_paths")
    m = {
        "representative.allocate.calls": calls(ALLOCATE),
        "representative.allocate.rows": c["allocate.rows"],
        "representative.allocate.self_s": self_s(ALLOCATE),
        "representative.allocation_curvature.self_s": self_s(CURVATURE),
        "representative.newton_iters": c["newton_iters"],
        "representative.us_per_row": 1e6 * ratio(total(ALLOCATE),
                                                 c["allocate.rows"]),
        "utilities.calls": sum(calls(n) for n in utility),
        "utilities.self_s": sum(self_s(n) for n in utility),
        "field.sweeps": calls(SWEEP),
        "field.sweeps_order2": c["sweeps_order2"],
        "field.leaf_rows": c["leaf_rows"],
        "field.leaf_rows_per_node": ratio(c["leaf_rows"], c["nodes_asked"]),
        "field.sweep.self_s": self_s(SWEEP),
        "field.pullback_bytes_computed": c["pullback_bytes"],
        "conjugate.saddle.calls": calls(SADDLE),
        "conjugate.saddle.nodes": c["saddle_nodes"],
        "conjugate.saddle.self_s": self_s(SADDLE),
        "conjugate.saddle.newton_iters": c["saddle_newton"],
        "conjugate.saddle.linesearch_evals": c["saddle_linesearch"],
        "conjugate.saddle.rows_used_ratio": ratio(c["saddle_rows_used"],
                                                  c["saddle_nodes"]),
        "engine.execute_simple.self_s": self_s("engine.execute_simple"),
        "engine.simulate_sde.self_s": self_s("engine.simulate_sde"),
        "engine.rebalances": c["rebalances"],
        "engine.simulate_sde_paths.self_s": paths_self,
        "engine.path_steps": c["path_steps"],
        "engine.path_steps_per_s": ratio(c["path_steps"], paths_self),
        "tree.build_s": sum(total(n) for n in TREE_BUILDERS),
        "tree.leaves_built": c["leaves_built"],
        "bachelier.oracle_s": sum(self_s(n) for n in oracle),
        "cli.main.self_s": self_s(OP),
        "cli.bytes_written": c["bytes_written"],
        "verify.harness.self_s": self_s(RUN_SUITE),
    }
    for suite in SUITES:
        m[f"verify.{suite}.s"] = c[f"suite:{suite}"]
    return m

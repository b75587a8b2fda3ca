"""Tests of the benchmark itself: seeded inputs, the per-operation gates
and their negative controls, and the tracer.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from indiffmarket import cli, conjugate, engine  # noqa: E402


def run(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(op.argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    def inputs(seed, where, index):
        op = workloads.WORKLOADS[name](seed, tmp_path / where).op(index)
        cfg = op.out / "config.yaml"
        argv = [a.replace(str(op.out), "OUT") for a in op.argv]
        return argv, cfg.read_bytes() if cfg.exists() else b""

    for index in range(4):
        assert inputs(5, "a", index) == inputs(5, "b", index)
        assert inputs(5, "a", index) != inputs(6, "c", index)


def tamper_csv(path, row, column, scale):
    lines = path.read_text().splitlines()
    col = lines[1].split(",").index(column)
    cells = lines[2 + row].split(",")
    cells[col] = repr(float(cells[col]) * scale)
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_tree_gate_rejects_a_tampered_U(tmp_path):
    wl = workloads.TreeSimulate(0, tmp_path)
    op = wl.op(3)                       # the 6-step d=2 configuration
    rc, stdout = run(op)
    assert wl.check(op, rc, stdout) is None
    tamper_csv(op.out / "paths.csv", 1 + 4 + 16, "U_1", 1.0 + 1e-9)
    assert "martingale gap" in wl.check(op, rc, stdout)


def test_tree_gate_rejects_a_missing_state(tmp_path):
    wl = workloads.TreeSimulate(0, tmp_path)
    op = wl.op(3)
    rc, stdout = run(op)
    path = op.out / "paths.csv"
    lines = path.read_text().splitlines()
    col = lines[1].split(",").index("V")
    cells = lines[7].split(",")
    cells[col] = ""
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert "non-finite" in wl.check(op, rc, stdout)
    assert wl.check(op, 1, stdout) == "exit status 1"


@pytest.fixture(scope="module")
def bachelier_output(tmp_path_factory):
    wl = workloads.LatticeMC(0, tmp_path_factory.mktemp("lattice"))
    op = wl.op(0)
    rc, stdout = run(op)
    return wl, op, rc, stdout, (op.out / "bachelier_summary.csv").read_text()


@pytest.mark.parametrize("metric,scale", [
    ("mean_abs_vT_error", 1.5),
    ("xi_engine", 1.02),
    ("xi_rel_error", 3.0),
    ("impact_scale", 0.5),
])
def test_bachelier_gate_rejects_a_tampered_summary(bachelier_output, metric,
                                                   scale):
    wl, op, rc, stdout, original = bachelier_output
    path = op.out / "bachelier_summary.csv"
    path.write_text(original)
    assert wl.check(op, rc, stdout) is None
    names = [line.split(",")[0] for line in original.splitlines()[2:]]
    tamper_csv(path, names.index(metric), "value", scale)
    assert wl.check(op, rc, stdout) is not None
    path.write_text(original)


def test_bachelier_gate_bounds_the_error(tmp_path):
    # a consistent summary and paths file whose error is over the bound
    out = tmp_path
    p = workloads.BACHELIER
    impact = 0.5 * p["gamma"] * p["sigma"] ** 2 * p["horizon"]
    err = 0.03 * impact
    xi_closed = -p["q"] * p["s"] + impact * p["q"] ** 2
    (out / "bachelier_paths.csv").write_text(
        f"# indiffmarket v1\npath_id,abs_err\n0,{err!r}\n")
    (out / "bachelier_summary.csv").write_text(
        "# indiffmarket v1\nmetric,value\n"
        f"mean_abs_vT_error,{err!r}\nimpact_scale,{impact!r}\n"
        f"xi_engine,{xi_closed!r}\nxi_closed,{xi_closed!r}\n"
        "xi_rel_error,0\n")
    assert "over bound" in workloads.check_bachelier(out)


def test_verify_gate_needs_every_suite_to_pass(tmp_path):
    wl = workloads.VerifySuites(0, tmp_path)
    op = wl.op(0)
    rc, stdout = run(op)
    assert wl.check(op, rc, stdout) is None
    assert wl.check(op, 1, stdout) == "exit status 1"
    failed = stdout.replace("PASS", "FAIL", 1)
    assert "suites without PASS" in wl.check(op, rc, failed)
    dropped = "\n".join(stdout.splitlines()[1:])
    assert "suites without PASS" in wl.check(op, rc, dropped)


def test_tracer_counts_layers_and_restores_the_library(capsys):
    saddle = conjugate.saddle_batch
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert engine.saddle_batch is conjugate.saddle_batch
        assert engine.saddle_batch is not saddle
        op_main = tracer.wrap(tracing.OP, cli.main)
        assert op_main(["verify", "--suite", "preservation,bachelier",
                        "--seed", "0", "--probes", "2"]) == 0
    finally:
        restore()
    assert engine.saddle_batch is saddle is conjugate.saddle_batch
    m = tracing.layer_metrics(tracer)
    for name in ("field.sweeps", "conjugate.saddle.calls",
                 "representative.allocate.calls", "utilities.calls",
                 "engine.rebalances", "engine.path_steps",
                 "verify.preservation.s", "verify.bachelier.s"):
        assert m[name] > 0, name
    assert (m["conjugate.saddle.newton_iters"]
            <= m["field.sweeps_order2"] <= m["field.sweeps"])
    assert m["conjugate.saddle.rows_used_ratio"] == 1.0
    assert m["verify.martingale.s"] == 0
    assert set(m) | {n for n in tracing.LAYER_METRICS
                     if n.startswith("trace.")} == set(tracing.LAYER_METRICS)
    # self times partition the op span
    calls, total, _ = tracer.stats[tracing.OP]
    self_sum = sum(st[2] for st in tracer.stats.values())
    assert calls == 1 and self_sum == pytest.approx(total, rel=1e-9)
    root = [s for s in tracer.spans if s[4] == -1]
    assert [s[1] for s in root] == [tracing.OP]

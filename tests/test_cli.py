import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from indiffmarket import conjugate
from indiffmarket.cli import main
from indiffmarket.config import _READS, _Choice

BASE_CONFIG = """\
seed: 7
panel:
  makers:
    - gamma: 1.0
    - weights: [1.0, 0.5]
      rates: [1.0, 2.0]
tree:
  kind: tree
  steps: 3
  horizon: 1.0
  sigma0: "0.3 + 0.2 * B"
  psi: ["1.0 + 0.5 * B"]
strategy:
  kind: simple
  levels: [0, 2]
  positions: [0.5, -0.2]
engine:
  mode: execute
  lam0: [0.5, 0.5]
"""

ZERO_CONFIG = BASE_CONFIG.replace(
    "positions: [0.5, -0.2]", "positions: [0.0, 0.0]")


def write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# indiffmarket v")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_simulate_zero_strategy_all_zero(tmp_path):
    cfg = write(tmp_path, ZERO_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "paths.csv")
    ix, iv = header.index("X"), header.index("V")
    for row in rows:
        assert abs(float(row[ix])) < 1e-10
        assert abs(float(row[iv])) < 1e-10
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["scheme"] == "exact"
    assert meta["seed"] == 7


def test_simulate_deterministic_bytes(tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "paths.csv").read_bytes() == (out2 / "paths.csv").read_bytes()


def test_simulate_sde_mode(tmp_path):
    cfg = write(tmp_path, BASE_CONFIG.replace("mode: execute", "mode: sde"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "paths.csv")
    assert "exploded" in header
    assert all(row[header.index("exploded")] == "0" for row in rows)


def test_config_errors_exit_two(tmp_path):
    missing = str(tmp_path / "missing.yaml")
    assert main(["simulate", "--config", missing]) == 2
    bad = write(tmp_path, BASE_CONFIG + "unknownblock:\n  a: 1\n", "bad.yaml")
    assert main(["simulate", "--config", bad]) == 2
    typo = write(tmp_path, BASE_CONFIG.replace("steps: 3", "stepz: 3"),
                 "typo.yaml")
    assert main(["simulate", "--config", typo]) == 2


def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "v"
    code = main(["verify", "--suite", "conjugacy,roundtrip", "--probes", "5",
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "conjugacy" in printed and "roundtrip" in printed
    header, rows = read_csv(out / "verify.csv")
    assert header == ["suite", "probes", "max_deviation", "threshold",
                      "verdict"]
    assert all(row[-1] == "pass" for row in rows)


def test_verify_unknown_suite(tmp_path):
    assert main(["verify", "--suite", "bogus"]) == 2


def test_pareto_subcommand(capsys):
    assert main(["pareto", "--gammas", "1.0,1.0", "--weights",
                 f"1.0,{np.e}", "--total", "0.0"]) == 0
    outp = capsys.readouterr().out
    vals = dict(line.split(" = ") for line in outp.splitlines()
                if " = " in line)
    assert float(vals["r"]) == pytest.approx(-2.0 * np.sqrt(np.e), rel=1e-12)
    split = [float(s) for s in vals["split"].split(",")]
    assert split == pytest.approx([-0.5, 0.5], abs=1e-12)


@pytest.mark.parametrize("total", ["-800"])
def test_pareto_out_of_range_total_exits_3(capsys, total):
    assert main(["pareto", "--gammas", "1", "--total", total]) == 3
    err = capsys.readouterr().err
    assert err.startswith("allocation error: marginal value out of range")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (["--gammas", "1,x"], "--gammas"),
    (["--gammas", "1,-2"], "--gammas"),
    (["--gammas", "1,1", "--weights", "abc,1"], "--weights"),
    (["--gammas", "1,1", "--u=-1,x"], "--u"),
    (["--gammas", "1", "--total", "nan"], "--total"),
    (["--gammas", "1", "--total", "inf"], "--total"),
], ids=["gammas-not-a-number", "gammas-negative", "weights", "u",
        "total-nan", "total-inf"])
def test_pareto_bad_numbers_are_config_errors(capsys, argv, option):
    assert main(["pareto", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: pareto: {option} ")
    assert captured.out == ""


def test_pareto_dual_readout(capsys):
    # G at terminal with u = (-1,) and gamma=1 is x = -ln(-u) = 0
    assert main(["pareto", "--gammas", "1.0", "--u", "-1.0"]) == 0
    outp = capsys.readouterr().out
    vals = dict(line.split(" = ") for line in outp.splitlines()
                if " = " in line)
    assert float(vals["G"]) == pytest.approx(0.0, abs=1e-12)


def test_dump_tree(tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    out = tmp_path / "t"
    assert main(["dump-tree", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "tree.csv")
    assert header[:4] == ["node_id", "parent_id", "t", "prob"]
    assert len(rows) == 15


@pytest.mark.parametrize("text", [
    "tree: {steps: 2}\n",
    "tree: {steps: 2}\nengine: {lam0: [0.2, 0.3, 0.5]}\n",
    "tree: {steps: 2}\nstrategy: {levels: [0, 2], positions: [0.5, 0.1]}\n",
], ids=["tree-only", "lam0-without-panel", "level-past-the-tree"])
def test_dump_tree_needs_no_other_block(tmp_path, text):
    # absent blocks are optional, lam0 has no panel to count makers
    # against, and the strategy is not fitted to the dumped tree
    out = tmp_path / "t"
    assert main(["dump-tree", "--config", write(tmp_path, text),
                 "--out", str(out)]) == 0
    assert len(read_csv(out / "tree.csv")[1]) == 7


def test_dump_tree_lattice_parent_is_down_move(tmp_path):
    # node 4 (level 2, B = 0) is reached up from node 1 and down from
    # node 2; the dump keeps the last edge, the down move from node 2
    cfg = write(tmp_path, BASE_CONFIG.replace("kind: tree", "kind: lattice"))
    out = tmp_path / "t"
    assert main(["dump-tree", "--config", cfg, "--steps", "2",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "tree.csv")
    assert [int(r[header.index("parent_id")]) for r in rows] == [
        -1, 0, 0, 1, 2, 2]
    s = np.sqrt(0.5)
    assert [float(r[header.index("dB_1")]) for r in rows] == pytest.approx(
        [0.0, -s, s, -s, -s, s], rel=0, abs=1e-15)
    assert [float(r[header.index("prob")]) for r in rows] == [
        1.0, 0.5, 0.5, 0.5, 0.5, 0.5]


def test_bachelier_subcommand(tmp_path):
    cfg = write(tmp_path, """\
bachelier:
  gamma: 1.0
  mu: 0.1
  sigma: 0.2
  s: 10.0
  horizon: 1.0
  q: 1.0
""", "bach.yaml")
    out = tmp_path / "b"
    assert main(["bachelier", "--config", cfg, "--steps", "64", "--paths",
                 "200", "--out", str(out)]) == 0
    header, rows = read_csv(out / "bachelier_summary.csv")
    metrics = {r[0]: float(r[1]) for r in rows}
    assert metrics["xi_rel_error"] < 0.05
    budget = metrics["impact_scale"]
    assert metrics["mean_abs_vT_error"] < 0.25 * budget


@pytest.mark.parametrize("key, text", [
    ("scheme", BASE_CONFIG.replace("engine:\n", "engine:\n  scheme: euler\n")),
    ("paths", BASE_CONFIG.replace("engine:\n", "engine:\n  paths: 100\n")),
    ("formats", BASE_CONFIG + "output:\n  formats: [csv]\n"),
], ids=["scheme", "paths", "formats"])
def test_unread_config_keys_rejected(tmp_path, capsys, key, text):
    cfg = write(tmp_path, text)
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


def test_verify_rejects_config_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", "x"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("argv, scheme", [
    (["simulate", "--config", "sde.yaml"], "euler"),
    (["bachelier", "--steps", "16", "--paths", "10"], "euler"),
    (["verify", "--suite", "conjugacy", "--probes", "1"], None),
    (["dump-tree", "--config", "cfg.yaml"], None),
], ids=["simulate-sde", "bachelier", "verify", "dump-tree"])
def test_metadata_scheme_per_command(tmp_path, argv, scheme):
    write(tmp_path, BASE_CONFIG)
    write(tmp_path, BASE_CONFIG.replace("mode: execute", "mode: sde"),
          "sde.yaml")
    argv = [str(tmp_path / a) if a.endswith(".yaml") else a for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta.get("scheme") == scheme


README_CONFIG = (BASE_CONFIG.replace("steps: 3", "steps: 8")
                 .replace("levels: [0, 2]", "levels: [0, 4]"))


@pytest.mark.parametrize("mode", ["execute", "sde"])
def test_trade_level_past_last_step_rejected(tmp_path, capsys, mode):
    cfg = write(tmp_path, README_CONFIG.replace("mode: execute",
                                                f"mode: {mode}"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--steps", "4",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "trade level 4" in err and "4-step" in err
    assert not (out / "paths.csv").exists()
    assert main(["simulate", "--config", cfg, "--steps", "5",
                 "--out", str(out)]) == 0


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return ""
    return format(float(x), ".17g")


def _write_csv(path, header_cols, rows):
    """The former row-wise writer of verify.csv, tree.csv and the
    Bachelier summary, kept as the reference for ``_write_table``."""
    lines = ["# indiffmarket v1", ",".join(header_cols)]
    for row in rows:
        lines.append(",".join(
            str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def test_write_table_matches_write_csv(tmp_path):
    from indiffmarket.cli import _write_table

    ids = np.array([0, 7, 2 ** 40, 2 ** 53, 3, 12])
    a = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308])
    b = np.array([0.1, -2.5e-17, 1.0 / 3.0, 7.0, -1e308, 2.0 ** -1074])
    flag = np.array([0, 1, 0, 1, 1, 0])
    name = ["conjugacy", "", "x y", "pass", "fail", "-1"]
    header = ["id", "name", "a", "empty", "b", "flag"]
    _write_table(tmp_path / "t.csv", header, [ids, name, a, None, b, flag])
    rows = [[int(i), n, x, None, y, int(f)]
            for i, n, x, y, f in zip(ids, name, a, b, flag)]
    _write_csv(tmp_path / "c.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[2:5] == ["0,conjugacy,,,0.10000000000000001,0",
                          "7,,,,-2.4999999999999999e-17,1",
                          "1099511627776,x y,,,0.33333333333333331,0"]
    assert lines[5] == "9007199254740992,pass,-0,,7,1"


@pytest.mark.parametrize("mode, key, value", [
    ("execute", "u0", "[-1.0, -1.0]"),
    ("execute", "eps_explode_scale", "0.5"),
    ("sde", "tol_scale", "0.001"),
    ("sde", "want_v", "false"),
])
def test_engine_key_unread_by_mode_rejected(tmp_path, capsys, mode, key,
                                            value):
    text = BASE_CONFIG.replace("mode: execute",
                               f"mode: {mode}\n  {key}: {value}")
    out = tmp_path / "o"
    assert main(["simulate", "--config", write(tmp_path, text),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and f"{mode} mode" in err
    assert not (out / "paths.csv").exists()


@pytest.mark.parametrize("mode, extra, tolerances", [
    ("execute", "", {"trade_saddle": 1e-13, "interior_v_saddle": 1e-10}),
    ("execute", "\n  tol_scale: 1.0e-12\n  want_v: false",
     {"trade_saddle": 1e-12}),
    ("sde", "", {"saddle": 1e-10, "eps_explode_scale": 1e-10}),
    ("sde", "\n  eps_explode_scale: 0.5",
     {"saddle": 1e-10, "eps_explode_scale": 0.5}),
], ids=["execute", "execute-no-v", "sde", "sde-eps"])
def test_metadata_records_tolerances_used(tmp_path, monkeypatch, mode,
                                          extra, tolerances):
    from indiffmarket import conjugate

    used = set()

    def recording_batch(*args, tol_scale=conjugate._TOL_SCALE, **kwargs):
        used.add(tol_scale)
        return conjugate.saddle_batch(*args, tol_scale=tol_scale, **kwargs)

    def recording_levels(*args, **kwargs):
        # every level is solved to the tolerance scale _TOL_SCALE
        used.add(conjugate._TOL_SCALE)
        return conjugate.saddle_levels(*args, **kwargs)

    monkeypatch.setattr("indiffmarket.engine.saddle_batch", recording_batch)
    monkeypatch.setattr("indiffmarket.engine.saddle_levels", recording_levels)
    text = BASE_CONFIG.replace("mode: execute", f"mode: {mode}{extra}")
    out = tmp_path / "o"
    assert main(["simulate", "--config", write(tmp_path, text),
                 "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["tolerances"] == tolerances
    recorded = {v for k, v in tolerances.items() if k.endswith("saddle")}
    assert used == recorded


BACHELIER_BLOCK = """\
bachelier:
  sigma: 0.2
  mu: 0.1
"""


@pytest.mark.parametrize("block, text", [
    ("engine", "engine:\n  mode: sde\n  tol_scale: 0.5\n"),
    ("tree", "tree:\n  steps: 3\n"),
    ("strategy", "strategy:\n  kind: bogus\n"),
    ("panel", "panel:\n  makers:\n    - gamma: 1.0\n"),
])
def test_bachelier_rejects_unread_blocks(tmp_path, capsys, block, text):
    cfg = write(tmp_path, BACHELIER_BLOCK + text, "bach.yaml")
    out = tmp_path / "o"
    assert main(["bachelier", "--config", cfg, "--steps", "8", "--paths",
                 "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"block '{block}'" in err and "bachelier" in err
    assert not out.exists()
    only = write(tmp_path, BACHELIER_BLOCK + "seed: 3\noutput:\n  directory: x\n",
                 "only.yaml")
    assert main(["bachelier", "--config", only, "--steps", "8", "--paths",
                 "5", "--out", str(out)]) == 0


def test_simulate_rejects_bachelier_block(tmp_path, capsys):
    cfg = write(tmp_path, BASE_CONFIG + "bachelier:\n  sigma: -1\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "block 'bachelier'" in err and "simulate" in err
    assert not out.exists()


CONSTANT_CONFIG = BASE_CONFIG.replace(
    "kind: simple\n  levels: [0, 2]\n  positions: [0.5, -0.2]",
    "kind: constant\n  position: 0.5")


@pytest.mark.parametrize("mode", ["execute", "sde"])
def test_constant_strategy_is_one_trade_at_level_0(tmp_path, mode):
    # kind: constant holds its position from the first level to maturity,
    # the same run as a simple strategy with one trade at level 0
    simple = CONSTANT_CONFIG.replace(
        "kind: constant\n  position: 0.5",
        "kind: simple\n  levels: [0]\n  positions: [0.5]")
    outs = []
    for name, text in (("constant", CONSTANT_CONFIG), ("simple", simple)):
        outs.append(tmp_path / name)
        text = text.replace("mode: execute", f"mode: {mode}")
        assert main(["simulate", "--config", write(tmp_path, text),
                     "--out", str(outs[-1])]) == 0
    header, rows = read_csv(outs[0] / "paths.csv")
    q = [float(r[header.index("Q_1")]) for r in rows]
    # execute rows hold the pre-trade position at level 0, sde rows the
    # position over the step starting there
    assert q[0] == (0.0 if mode == "execute" else 0.5)
    assert q[1:] == [0.5] * (len(rows) - 1)
    assert ((outs[0] / "paths.csv").read_bytes()
            == (outs[1] / "paths.csv").read_bytes())


@pytest.mark.parametrize("kind, key, value", [
    ("simple", "position", "9.0"),
    ("constant", "levels", "[3, 5]"),
    ("constant", "positions", "0.4"),
])
def test_strategy_key_unread_by_kind_rejected(tmp_path, capsys, kind, key,
                                              value):
    text = (BASE_CONFIG if kind == "simple" else CONSTANT_CONFIG).replace(
        f"kind: {kind}", f"kind: {kind}\n  {key}: {value}")
    out = tmp_path / "o"
    assert main(["simulate", "--config", write(tmp_path, text),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and f"kind '{kind}'" in err
    assert not (out / "paths.csv").exists()


@pytest.mark.parametrize("mode", ["execute", "sde"])
@pytest.mark.parametrize("old, new, name", [
    ("positions: [0.5, -0.2]", "positions: [[0.5, 0.1, 0.2], -0.2]",
     "strategy"),
    ("lam0: [0.5, 0.5]", "lam0: [0.5, 0.5, 0.3]", "lam0"),
    ("lam0: [0.5, 0.5]", "lam0: [0.5, -0.5]", "lam0"),
    ("lam0: [0.5, 0.5]", "lam0: [0.0, 1.0]", "lam0"),
], ids=["wide-position", "lam0-length", "lam0-negative", "lam0-zero"])
def test_bad_position_or_lam0_is_config_error(tmp_path, capsys, mode, old,
                                              new, name):
    # these used to end in a numpy traceback (exit 1) or a failed
    # allocation Newton (exit 3)
    text = README_CONFIG.replace(old, new).replace("mode: execute",
                                                   f"mode: {mode}")
    out = tmp_path / "o"
    assert main(["simulate", "--config", write(tmp_path, text),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and name in err
    assert not (out / "paths.csv").exists()


def test_per_node_position_table_still_runs(tmp_path, capsys):
    # a (n_level, J) table is a valid execute-mode position; one row too
    # many is a config error naming the strategy
    text = README_CONFIG.replace("levels: [0, 4]", "levels: [0, 1]")
    good = text.replace("[0.5, -0.2]", "[0.5, [[0.1], [0.2]]]")
    assert main(["simulate", "--config", write(tmp_path, good),
                 "--out", str(tmp_path / "good")]) == 0
    bad = text.replace("[0.5, -0.2]", "[0.5, [[0.1], [0.2], [0.3]]]")
    assert main(["simulate", "--config", write(tmp_path, bad),
                 "--out", str(tmp_path / "bad")]) == 2
    assert "strategy" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "sandwich", "--probes", "2", "--seed", "0"],
    ["simulate", "--config", "{cfg}"],
    ["simulate", "--config", "{sde}"],
], ids=["verify", "simulate-execute", "simulate-sde"])
def test_stalled_saddle_is_one_line_exit_three(tmp_path, capsys, monkeypatch,
                                               argv):
    monkeypatch.setattr(conjugate, "_MAX_ITER", 1)
    monkeypatch.setattr(conjugate, "_RESTARTS", 0)
    cfg = write(tmp_path, BASE_CONFIG)
    sde = write(tmp_path, BASE_CONFIG.replace("mode: execute", "mode: sde"),
                "sde.yaml")
    argv = [a.format(cfg=cfg, sde=sde) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("saddle error: saddle solve stalled at level ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("mode", ["execute", "sde"])
def test_solver_failure_is_one_line_exit_three(tmp_path, capsys, mode):
    # a gamma-20 maker beside the mixture of rates 0.001 and 50 on an
    # 8-step tree: the split stalls in execute mode, the inversion of a
    # utility value in the saddle start of sde mode
    text = (BASE_CONFIG.replace("gamma: 1.0", "gamma: 20.0")
            .replace("rates: [1.0, 2.0]", "rates: [0.001, 50.0]")
            .replace("weights: [1.0, 0.5]", "weights: [1.0, 1.0]")
            .replace("steps: 3", "steps: 8")
            .replace("mode: execute", f"mode: {mode}"))
    assert main(["simulate", "--config", write(tmp_path, text),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.endswith("did not converge: last step 2.000e+01\n"
                        if mode == "execute" else
                        "inverse_value: Newton did not converge\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, config, option", [
    (["simulate", "--steps", "0"], None, "--steps"),
    (["simulate", "--steps", "-2"], None, "--steps"),
    (["simulate"], ("steps: 3", "steps: 0"), "tree: steps"),
    (["simulate"], ("steps: 3", "steps: 3\n  dim: 0"), "tree: dim"),
    (["dump-tree", "--steps", "0"], None, "--steps"),
    (["bachelier", "--steps", "0"], None, "--steps"),
    (["bachelier", "--steps", "-2"], None, "--steps"),
    (["bachelier", "--paths", "0"], None, "--paths"),
    (["bachelier", "--paths", "-5"], None, "--paths"),
    (["bachelier"], "paths: 0", "bachelier: paths"),
    (["bachelier"], "steps: -1", "bachelier: steps"),
    (["verify", "--suite", "conjugacy", "--probes", "0"], None, "--probes"),
])
def test_count_below_one_is_config_error(tmp_path, capsys, argv, config,
                                         option):
    if argv[0] == "bachelier":
        if config is not None:
            argv = argv + ["--config", write(
                tmp_path, f"bachelier:\n  sigma: 0.2\n  {config}\n")]
    elif argv[0] != "verify":
        text = BASE_CONFIG if config is None else BASE_CONFIG.replace(*config)
        argv = argv + ["--config", write(tmp_path, text)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {option} must be at least 1")
    assert not (tmp_path / "o").exists()


def _engine(mode, key, value):
    return BASE_CONFIG.replace("mode: execute",
                               f"mode: {mode}\n  {key}: {value}")


def _bachelier(key, value):
    lines = [line for line in BACHELIER_BLOCK.splitlines()
             if not line.startswith(f"  {key}:")]
    return "\n".join(lines + [f"  {key}: {value}"]) + "\n"


def _readme(old, new):
    """The README's 8-step experiment with ``old`` replaced by ``new``."""
    text = BASE_CONFIG.replace("steps: 3", "steps: 8").replace(
        "levels: [0, 2]", "levels: [0, 4]")
    assert old in text
    return text.replace(old, new)


# (argv, config text or None, a word the error must name): malformed
# input from outside the program, each a one-line config error, exit 2
OUTSIDE_INPUTS = {
    "tree-horizon-0": (["simulate"], BASE_CONFIG.replace(
        "horizon: 1.0", "horizon: 0"), "tree"),
    "verify-seed": (["verify", "--suite", "conjugacy", "--probes", "1",
                     "--seed", "-1"], None, "--seed"),
    "bachelier-seed": (["bachelier", "--steps", "8", "--paths", "10",
                        "--seed", "-1"], None, "--seed"),
    "simulate-seed": (["simulate", "--seed", "-1"], BASE_CONFIG, "--seed"),
    "config-seed": (["simulate"], BASE_CONFIG.replace("seed: 7", "seed: abc"),
                    "seed"),
    "gamma-0": (["simulate"], BASE_CONFIG.replace("- gamma: 1.0",
                                                  "- gamma: 0"), "panel"),
    "maker-extra-key": (["simulate"], BASE_CONFIG.replace(
        "- gamma: 1.0", "- gamma: 1.0\n      rates: [9.0]"), "makers[0]"),
    "psi": (["simulate"], BASE_CONFIG.replace(
        'psi: ["1.0 + 0.5 * B"]', 'psi: ["1.0 + foo"]'), "tree"),
    "sigma-0": (["bachelier"], BACHELIER_BLOCK.replace("0.2", "0.0"),
                "bachelier"),
    "sigma-abc": (["bachelier"], BACHELIER_BLOCK.replace("0.2", "abc"),
                  "bachelier"),
    "q-abc": (["bachelier"], BACHELIER_BLOCK + "  q: abc\n", "bachelier"),
    "tol_scale-abc": (["simulate"], _engine("execute", "tol_scale", "abc"),
                      "engine"),
    "u0-abc": (["simulate"], _engine("sde", "u0", "abc"), "u0"),
    "eps-abc": (["simulate"], _engine("sde", "eps_explode_scale", "abc"),
                "engine"),
    "u0-positive": (["simulate"], _engine("sde", "u0", "[1.0, -1.0]"), "u0"),
    "lam0-and-u0": (["simulate"], _engine("sde", "u0", "[-1.0, -2.0]"),
                    "lam0 or u0"),
    "level-not-integer": (["simulate"], BASE_CONFIG.replace(
        "levels: [0, 2]", "levels: [0.7, 2.9]"), "strategy: trade levels"),
    "want_v-string": (["simulate"], _engine("execute", "want_v", '"false"'),
                      "want_v"),
    # a bool or a quoted number where a number is expected
    "level-bool": (["simulate"], BASE_CONFIG.replace(
        "levels: [0, 2]", "levels: [false, 2]"), "strategy: trade levels"),
    "positions-string": (["simulate"], BASE_CONFIG.replace(
        "positions: [0.5, -0.2]", 'positions: ["0.5", -0.2]'),
        "strategy: positions"),
    "positions-bool": (["simulate"], BASE_CONFIG.replace(
        "positions: [0.5, -0.2]", "positions: [true, -0.2]"),
        "strategy: positions"),
    "positions-table-string": (["simulate"], BASE_CONFIG.replace(
        "positions: [0.5, -0.2]", 'positions: [0.5, [[-0.2], ["0.1"], '
        '[0.0], [0.3]]]'), "strategy: positions"),
    "position-string": (["simulate"], CONSTANT_CONFIG.replace(
        "position: 0.5", 'position: "0.5"'), "strategy: position"),
    "lam0-string": (["simulate"], BASE_CONFIG.replace(
        "lam0: [0.5, 0.5]", 'lam0: ["0.5", "0.5"]'), "engine: lam0"),
    "u0-string": (["simulate"], BASE_CONFIG.replace(
        "mode: execute\n  lam0: [0.5, 0.5]",
        'mode: sde\n  u0: ["-1.0", -2.0]'), "engine: u0"),
    "gamma-string": (["simulate"], BASE_CONFIG.replace(
        "- gamma: 1.0", '- gamma: "1.0"'), "panel.makers[0]: gamma"),
    "weights-bool": (["simulate"], BASE_CONFIG.replace(
        "weights: [1.0, 0.5]", "weights: [true, 0.5]"),
        "panel.makers[1]: weights"),
    "rates-string": (["simulate"], BASE_CONFIG.replace(
        "rates: [1.0, 2.0]", 'rates: ["1.0", 2.0]'),
        "panel.makers[1]: rates"),
    "horizon-string": (["simulate"], BASE_CONFIG.replace(
        "horizon: 1.0", 'horizon: "1.0"'), "tree: horizon"),
    "tol_scale-bool": (["simulate"], _engine("execute", "tol_scale", "true"),
                       "engine: tol_scale"),
    "eps-string": (["simulate"], _engine("sde", "eps_explode_scale",
                                         '"1e-10"'),
                   "engine: eps_explode_scale"),
    **{f"bachelier-{key}-{kind}": (["bachelier"], _bachelier(key, text),
                                   f"bachelier: {key}")
       for key, kind, text in (
           ("gamma", "bool", "true"), ("b", "string", '"0.5"'),
           ("mu", "string", '"0.1"'), ("sigma", "string", '"0.2"'),
           ("s", "bool", "true"), ("horizon", "string", '"1.0"'),
           ("q", "bool", "true"))},
    "dump-tree-strategy": (["dump-tree"], CONSTANT_CONFIG.replace(
        "kind: constant\n  position: 0.5", "kind: bogus"), "strategy"),
    "dump-tree-engine": (["dump-tree"], BASE_CONFIG.replace(
        "mode: execute\n  lam0: [0.5, 0.5]", "mode: sde\n  tol_scale: 1"),
        "tol_scale"),
    "dump-tree-bachelier": (["dump-tree"], BASE_CONFIG + BACHELIER_BLOCK,
                            "bachelier"),
    # dump-tree builds the experiment blocks it is given, as simulate does
    "dump-tree-gamma": (["dump-tree"], BASE_CONFIG.replace(
        "- gamma: 1.0", "- gamma: abc"), "panel.makers[0]: gamma"),
    "dump-tree-positions": (["dump-tree"], BASE_CONFIG.replace(
        "positions: [0.5, -0.2]", "positions: [xyz]"), "strategy: positions"),
    "dump-tree-lam0": (["dump-tree"], BASE_CONFIG.replace(
        "lam0: [0.5, 0.5]", "lam0: abc"), "engine: lam0"),
    "dump-tree-lam0-makers": (["dump-tree"], BASE_CONFIG.replace(
        "lam0: [0.5, 0.5]", "lam0: [0.2, 0.3, 0.5]"), "engine: lam0"),
    "dump-tree-lam0-no-panel": (["dump-tree"], "tree: {steps: 2}\n"
                                "engine: {lam0: [0.5, -0.5]}\n",
                                "engine: lam0"),
    # a NaN or infinite number is refused as the config is read, before
    # any solver runs
    "positions-nan": (["simulate"], _readme(
        "positions: [0.5, -0.2]", "positions: [.nan, -0.2]"),
        "strategy: positions"),
    "horizon-inf": (["simulate"], _readme("horizon: 1.0", "horizon: .inf"),
                    "tree: horizon"),
    "horizon-nan": (["simulate"], _readme("horizon: 1.0", "horizon: .nan"),
                    "tree: horizon"),
    "gamma-inf": (["simulate"], _readme("- gamma: 1.0", "- gamma: .inf"),
                  "panel.makers[0]: gamma"),
    "rates-inf": (["simulate"], _readme(
        "rates: [1.0, 2.0]", "rates: [1.0, .inf]"), "panel.makers[1]: rates"),
    "sigma0-nan": (["simulate"], _readme(
        'sigma0: "0.3 + 0.2 * B"', "sigma0: .nan"), "tree: sigma0"),
    "psi-overflow": (["simulate"], _readme(
        'psi: ["1.0 + 0.5 * B"]', 'psi: ["1e400 * B"]'), "tree: psi"),
    "bachelier-sigma-inf": (["bachelier"], _bachelier("sigma", ".inf"),
                            "bachelier: sigma"),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_INPUTS))
def test_malformed_outside_input_is_config_error(tmp_path, capsys, case):
    argv, text, word = OUTSIDE_INPUTS[case]
    if text is not None:
        argv = argv + ["--config", write(tmp_path, text)]
    if argv[0] == "bachelier" and "--steps" not in argv:
        argv = argv + ["--steps", "8", "--paths", "10"]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and word in err
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("o/*.csv"))


# a config each command runs, and the arguments it is run with
COMMAND_RUNS = {
    "simulate": (BASE_CONFIG, []),
    "dump-tree": (BASE_CONFIG, []),
    "bachelier": (BACHELIER_BLOCK, ["--steps", "8", "--paths", "5"]),
}
ALL_BLOCKS = sorted({block for reads in _READS.values() for block in reads})


def _run_with(tmp_path, command, edit):
    """Exit status of ``command`` on its config after ``edit(config)``."""
    text, extra = COMMAND_RUNS[command]
    cfg = yaml.safe_load(text)
    edit(cfg)
    path = write(tmp_path, yaml.safe_dump(cfg))
    return main([command, "--config", path, *extra,
                 "--out", str(tmp_path / "o")])


def _some_keys(keys):
    """A nonempty block whose keys a command reading ``keys`` accepts."""
    if isinstance(keys, _Choice):
        return {keys.key: keys.default}
    return {sorted(keys)[0]: 1}


@pytest.mark.parametrize("command, block", [
    (command, block) for command in sorted(_READS) for block in ALL_BLOCKS
    if block not in _READS[command]])
def test_every_block_a_command_does_not_read_is_rejected(tmp_path, capsys,
                                                         command, block):
    reader = next(r for r in _READS.values() if block in r)
    assert _run_with(tmp_path, command, lambda cfg: cfg.update(
        {block: _some_keys(reader[block])})) == 2
    err = capsys.readouterr().err
    assert f"block '{block}' is not read by {command}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, block, choice, key", [
    (command, block, choice, key)
    for command in sorted(_READS)
    for block, keys in sorted(_READS[command].items())
    if isinstance(keys, _Choice)
    for choice in sorted(keys.keys)
    for key in sorted(set().union(*keys.keys.values()) - keys.keys[choice])])
def test_key_of_another_kind_or_mode_is_rejected(tmp_path, capsys, command,
                                                 block, choice, key):
    selector = _READS[command][block].key
    assert _run_with(tmp_path, command, lambda cfg: cfg.update(
        {block: {selector: choice, key: 1}})) == 2
    err = capsys.readouterr().err
    assert f"{block}: key '{key}' is not read" in err
    assert not (tmp_path / "o").exists()


def test_cli_import_leaves_yaml_unloaded():
    # only load_config reads YAML, so commands run without a config file
    # (bachelier, verify) do not import it at start-up
    import indiffmarket

    src = str(Path(indiffmarket.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, indiffmarket.cli; print('yaml' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"

"""Pinned bytes of every CSV the CLI writes, from small runs.

The sha256 of each output file (and of the ``verify`` stdout) is fixed
here, so a change to the writers, the per-level layout of ``paths.csv``
or the tree dump that moves a single byte fails this test.  The runs
cover both simulate modes, a run whose nodes explode (empty cells), an
execute run without V (an empty column), a two-dimensional tree, a
9-step execute run of three trades and an 8-step sde run (whose V
columns come from saddle solves at every level of a deeper tree), the
Bachelier tables (small, and at the full 512 steps x 10k paths, which
run as one path block: a block's 8 MiB up-move mask holds 16,384 paths
at 512 steps; ``tests/test_engine.py::test_sde_path_blocks_give_the_same_bits``
pins the bits of runs over several blocks), the verify table of two
suites and of all nine, and ``dump-tree`` on a tree, a d=2 tree and a
lattice.
"""

import hashlib

import pytest

from indiffmarket.cli import main

README_CONFIG = """\
seed: 7
panel:
  makers:
    - gamma: 1.0
    - weights: [1.0, 0.5]
      rates: [1.0, 2.0]
tree:
  kind: tree
  steps: 5
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

D2_CONFIG = """\
seed: 3
panel:
  makers:
    - gamma: 1.0
    - weights: [1.0, 0.5]
      rates: [1.0, 2.0]
tree:
  kind: tree
  steps: 4
  dim: 2
  horizon: 1.0
  sigma0: "0.3 + 0.2 * B1 - 0.1 * B2"
  psi: ["1.0 + 0.5 * B1", "0.8 + 0.4 * B2"]
strategy:
  kind: simple
  levels: [0, 2]
  positions: [[0.3, -0.2], [0.1, 0.4]]
engine:
  mode: execute
  lam0: [0.5, 0.5]
"""

CONFIGS = {
    "execute": README_CONFIG,
    "execute-no-v": README_CONFIG.replace(
        "lam0: [0.5, 0.5]", "lam0: [0.3, 0.7]\n  want_v: false").replace(
        "steps: 5", "steps: 4"),
    "sde": README_CONFIG.replace("mode: execute", "mode: sde"),
    "sde-explode": README_CONFIG.replace("steps: 5", "steps: 6")
    .replace("levels: [0, 2]", "levels: [0]")
    .replace("positions: [0.5, -0.2]", "positions: [2.0]")
    .replace("mode: execute", "mode: sde\n  eps_explode_scale: 0.5"),
    "d2-execute": D2_CONFIG,
    "d2-sde": D2_CONFIG.replace("mode: execute", "mode: sde"),
    "lattice": README_CONFIG.replace("kind: tree", "kind: lattice"),
    "execute-9": README_CONFIG.replace("steps: 5", "steps: 9")
    .replace("levels: [0, 2]", "levels: [0, 3, 6]")
    .replace("positions: [0.5, -0.2]", "positions: [0.5, -0.2, 0.8]")
    .replace("lam0: [0.5, 0.5]", "lam0: [0.5, 0.5]\n  want_v: true"),
    "sde-8": README_CONFIG.replace("steps: 5", "steps: 8")
    .replace("mode: execute", "mode: sde"),
}

# run: (command, config or None, extra arguments)
RUNS = {
    "simulate-execute": ("simulate", "execute", []),
    "simulate-execute-no-v": ("simulate", "execute-no-v", []),
    "simulate-sde": ("simulate", "sde", []),
    "simulate-sde-explode": ("simulate", "sde-explode", []),
    "simulate-d2-execute": ("simulate", "d2-execute", []),
    "simulate-d2-sde": ("simulate", "d2-sde", []),
    "simulate-execute-9": ("simulate", "execute-9", []),
    "simulate-sde-8": ("simulate", "sde-8", []),
    "bachelier": ("bachelier", None, ["--steps", "16", "--paths", "10"]),
    "bachelier-512x10k": ("bachelier", None, ["--steps", "512", "--paths",
                                              "10000", "--seed", "3"]),
    "verify": ("verify", None,
               ["--suite", "conjugacy,bachelier", "--probes", "2"]),
    "verify-all": ("verify", None,
                   ["--suite", "all", "--probes", "2", "--seed", "0"]),
    "dump-tree": ("dump-tree", "execute", []),
    "dump-tree-d2": ("dump-tree", "d2-execute", []),
    "dump-tree-lattice": ("dump-tree", "lattice", []),
}

# (run, output file): sha256 of its bytes; "stdout" is the printed text
SHA256 = {
    ("simulate-execute", "paths.csv"):
        "9eba3d7f09cec332c7e0eec73ca6d44fb737d7d03df12d351edf71eb33fbe4ff",
    ("simulate-execute-no-v", "paths.csv"):
        "26c70d8ccc3ce4edc4fea4013893d14125b79115eea89a4d07a13e534b5e81fe",
    ("simulate-sde", "paths.csv"):
        "82cf3847c949b97ea6752578a6cfef14d65040f1f12d5c8b296296869dbc2539",
    ("simulate-sde-explode", "paths.csv"):
        "75dda5c0b4b695019e146ae5ecbbbc097ac460bdcbc6b33ed3da088b10282d53",
    ("simulate-d2-execute", "paths.csv"):
        "4cfaec4f3c31285b56a6a18358cafdd03696c78cb2f092cd2e91ef2bd3de01bf",
    ("simulate-d2-sde", "paths.csv"):
        "19ed4347a6b920ae175b521d5ec2ff71f12b6fc12fac3a230167cf47594342e9",
    ("simulate-execute-9", "paths.csv"):
        "6dab4bda24a739cf6fa05e55c3e25c790170fc01e976716bdd9da43b27e92010",
    ("simulate-sde-8", "paths.csv"):
        "3f586aed16f55afdba5e29ee465c35d254ae47dbbf7425838ac230e489c37c9d",
    ("bachelier", "bachelier_paths.csv"):
        "b003421eec40cc87c9111f89fae7a69ca52fe75810a677ab64278e2433f44f67",
    ("bachelier", "bachelier_summary.csv"):
        "e51ce950f6aef047e47990cd529466e347154e25a14788e786b8d5a2c080d59d",
    ("bachelier-512x10k", "bachelier_paths.csv"):
        "d7e00b37f594633f45c517907ee6520d8188f5d164cde3e820e943dc410ba4e6",
    ("bachelier-512x10k", "bachelier_summary.csv"):
        "da3c270302ad133e85e563de6d0a2a1747de884430f0f02ac09ea76df3e1d868",
    ("verify", "verify.csv"):
        "a13db23ccd1addc05a1b3b5f8a507f08f48da1d17274579031dc4c545340f033",
    ("verify", "stdout"):
        "1b7ae7bc4ea106d7e2a4b5881cc46e06d8f50a22e2660ce3b2c4053108c7ab94",
    ("verify-all", "verify.csv"):
        "80e107f9413c37108ab0d496cd8efde081159acfdc2f8bce576871a9ed942c38",
    ("verify-all", "stdout"):
        "57db77cda25816c8544485d4f8b55eadaaf158d7aaaeeaf36c894acce7557a77",
    ("dump-tree", "tree.csv"):
        "c538c27926f2fde496bafc4cda2cce66f917b32c9c323a6349b99ea354997b50",
    ("dump-tree-d2", "tree.csv"):
        "526259d82ab8f873648d0ab6ca0293c76edfc150424dab810196611d84c60ee3",
    ("dump-tree-lattice", "tree.csv"):
        "20af9d6ca60b8cea62f0b969122ab097aaeb75caa71b54b6ac4f844fb62ebc05",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_csv_bytes_pinned(tmp_path, capsys, run):
    command, config, extra = RUNS[run]
    files = {name: sha for (r, name), sha in SHA256.items() if r == run}
    argv = [command, *extra, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "cfg.yaml"
        path.write_text(CONFIGS[config])
        argv += ["--config", str(path)]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    got = {name: _sha(stdout.encode() if name == "stdout"
                      else (tmp_path / "out" / name).read_bytes())
           for name in files}
    assert got == files

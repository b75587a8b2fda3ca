"""Experiment configuration: YAML blocks mapped onto library objects.

A config file holds named blocks (panel, tree, strategy, engine,
bachelier, output) plus a top-level seed.  Unknown keys are rejected so
typos fail loudly, and every error message carries the block and key it
came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .bachelier import BachelierParams
from .engine import SimpleStrategy
from .tree import ScenarioTree, binomial_lattice, binomial_tree
from .utilities import MakerPanel, UtilitySpec, exponential

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid or missing configuration."""


_KNOWN_BLOCKS = {"panel", "tree", "strategy", "engine", "bachelier",
                 "output", "seed"}
_KNOWN_KEYS = {
    "panel": {"makers"},
    "tree": {"steps", "horizon", "dim", "kind", "sigma0", "psi"},
    "strategy": {"kind", "levels", "positions", "position"},
    "engine": {"mode", "eps_explode_scale", "tol_scale", "lam0", "u0",
               "want_v"},
    "bachelier": {"gamma", "b", "mu", "sigma", "s", "horizon", "q", "steps",
                  "paths"},
    "output": {"directory"},
}
# the strategy keys each kind reads; any other is rejected
_STRATEGY_KEYS = {
    "simple": {"kind", "levels", "positions"},
    "constant": {"kind", "position"},
}


def _check_keys(block: str, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"block '{block}' must be a mapping")
    unknown = set(data) - _KNOWN_KEYS[block]
    if unknown:
        raise ConfigError(f"block '{block}': unknown keys {sorted(unknown)}")


@dataclass
class ExperimentConfig:
    panel: dict = field(default_factory=dict)
    tree: dict = field(default_factory=dict)
    strategy: dict = field(default_factory=dict)
    engine: dict = field(default_factory=dict)
    bachelier: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    seed: int = 0

    def build_panel(self) -> MakerPanel:
        makers = self.panel.get("makers")
        if not makers:
            raise ConfigError("panel: 'makers' must be a nonempty list")
        specs = []
        for i, mk in enumerate(makers):
            if not isinstance(mk, dict):
                raise ConfigError(f"panel.makers[{i}] must be a mapping")
            if "gamma" in mk:
                specs.append(exponential(float(mk["gamma"])))
            elif "weights" in mk and "rates" in mk:
                specs.append(UtilitySpec(
                    weights=tuple(float(w) for w in mk["weights"]),
                    rates=tuple(float(g) for g in mk["rates"])))
            else:
                raise ConfigError(
                    f"panel.makers[{i}]: give 'gamma' or 'weights'+'rates'")
        return MakerPanel(makers=tuple(specs))

    def build_tree(self, steps_override=None) -> ScenarioTree:
        t = self.tree
        if not t:
            raise ConfigError("missing 'tree' block")
        try:
            steps = int(steps_override or t["steps"])
            horizon = float(t.get("horizon", 1.0))
            sigma0 = t.get("sigma0", 0.0)
            psi = t.get("psi", ["B"])
        except KeyError as exc:
            raise ConfigError(f"tree: missing key {exc}") from None
        if isinstance(psi, (str, int, float)):
            psi = [psi]
        kind = t.get("kind", "tree")
        if kind == "lattice":
            if int(t.get("dim", 1)) != 1:
                raise ConfigError("tree: lattices are one-dimensional")
            return binomial_lattice(steps, horizon, sigma0=sigma0,
                                    psi=tuple(psi))
        if kind == "tree":
            return binomial_tree(steps, horizon, dim=int(t.get("dim", 1)),
                                 sigma0=sigma0, psi=tuple(psi))
        raise ConfigError(f"tree: unknown kind '{kind}'")

    def build_strategy(self, tree: ScenarioTree) -> SimpleStrategy:
        s = self.strategy
        if not s:
            raise ConfigError("missing 'strategy' block")
        kind = s.get("kind", "simple")
        if not isinstance(kind, str) or kind not in _STRATEGY_KEYS:
            raise ConfigError(f"strategy: unknown kind '{kind}'")
        unread = sorted(set(s) - _STRATEGY_KEYS[kind])
        if unread:
            raise ConfigError(
                f"strategy: key '{unread[0]}' is not read by kind '{kind}'")
        if kind == "constant":
            return SimpleStrategy(levels=(0,),
                                  positions=(s.get("position", 0.0),))
        try:
            strategy = SimpleStrategy(levels=tuple(s["levels"]),
                                      positions=tuple(s["positions"]))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"strategy: {exc}") from None
        if strategy.levels[-1] >= tree.steps:
            raise ConfigError(
                f"strategy: trade level {strategy.levels[-1]} is not before "
                f"the last step of a {tree.steps}-step tree")
        return strategy

    def build_bachelier(self) -> BachelierParams:
        b = self.bachelier
        if not b:
            raise ConfigError("missing 'bachelier' block")
        try:
            return BachelierParams(
                gamma=float(b.get("gamma", 1.0)), b=float(b.get("b", 0.0)),
                mu=float(b.get("mu", 0.0)), sigma=float(b["sigma"]),
                s=float(b.get("s", 0.0)), horizon=float(b.get("horizon", 1.0)))
        except KeyError as exc:
            raise ConfigError(f"bachelier: missing key {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    unknown = set(raw) - _KNOWN_BLOCKS
    if unknown:
        raise ConfigError(f"unknown top-level blocks {sorted(unknown)}")
    cfg = ExperimentConfig()
    for block in ("panel", "tree", "strategy", "engine", "bachelier",
                  "output"):
        data = raw.get(block, {})
        if data:
            _check_keys(block, data)
        setattr(cfg, block, data or {})
    cfg.seed = int(raw.get("seed", 0))
    return cfg

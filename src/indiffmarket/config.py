"""Experiment configuration: YAML blocks mapped onto library objects.

A config file holds named blocks (panel, tree, strategy, engine,
bachelier, output) plus a top-level seed.  ``_READS`` records the blocks
and keys each command reads, and ``load_config`` rejects any other, so
typos fail loudly.  The ``build_*`` methods turn the blocks into typed
values; every error message carries the block and key it came from.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .bachelier import BachelierParams
from .engine import SimpleStrategy
from .tree import ScenarioTree, binomial_lattice, binomial_tree
from .utilities import MakerPanel, UtilitySpec, exponential

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "count",
           "seed_of", "per_maker"]


class ConfigError(ValueError):
    """Invalid or missing configuration."""


def count(value, what: str):
    """``value`` as an int of at least 1, or a config error naming
    ``what``; None passes through as None."""
    return None if value is None else _integer(value, what, 1)


def seed_of(option, default: int) -> int:
    """``--seed`` (``option``) as an int of at least 0, else ``default``."""
    return default if option is None else _integer(option, "--seed", 0)


def _integer(value, what: str, least: int) -> int:
    """``value`` as an int of at least ``least`` (a float, bool or string
    is rejected, not rounded), or a config error naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(
            f"{what} must be at least {least} (an integer), got {value!r}")
    return value


def _number(value, what: str):
    """``value``, a number or a (nested) list of numbers, unchanged, or a
    config error naming ``what`` when any entry is a bool or a string:
    YAML reads ``true`` and ``"0.5"`` as such, and float() would take
    them for 1.0 and 0.5."""
    many = isinstance(value, (list, tuple))
    for item in value if many else [value]:
        if isinstance(item, (list, tuple)):
            _number(item, what)
        elif isinstance(item, (bool, str)):
            raise ConfigError(f"{what} must be "
                              f"{'numbers' if many else 'a number'}, "
                              f"got {value!r}")
    return value


def per_maker(values, M: int, sign: int, what: str) -> np.ndarray:
    """``values`` as M finite numbers of the given sign, or a config
    error naming ``what``; None passes through as None."""
    if values is None:
        return None
    try:
        v = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        v = None
    if (v is None or v.shape != (M,)
            or not np.all(np.isfinite(v) & (sign * v > 0))):
        word = "positive" if sign > 0 else "negative"
        raise ConfigError(f"{what} must be {word}, one per maker "
                          f"({M} makers)")
    return v


class _Choice(NamedTuple):
    """A block whose keys depend on its selecting ``key``: ``keys`` maps
    each choice to the keys it reads; ``phrase`` names one in errors."""

    key: str
    default: str
    phrase: str
    keys: dict


_ENGINE = _Choice("mode", "execute", "in {} mode", {
    "execute": {"lam0", "tol_scale", "want_v"},
    "sde": {"lam0", "u0", "eps_explode_scale"}})
# The blocks and keys each command reads, besides the top-level seed.
# dump-tree reads only the tree and output, but it is given experiment
# configs, so it takes simulate's block and key names.
_READS = {
    "simulate": {
        "panel": {"makers"},
        "tree": {"steps", "horizon", "dim", "kind", "sigma0", "psi"},
        "strategy": _Choice("kind", "simple", "by kind '{}'", {
            "simple": {"levels", "positions"}, "constant": {"position"}}),
        "engine": _ENGINE,
        "output": {"directory"},
    },
    "bachelier": {
        "bachelier": {"gamma", "b", "mu", "sigma", "s", "horizon", "q",
                      "steps", "paths"},
        "output": {"directory"},
    },
}
_READS["dump-tree"] = _READS["simulate"]
# the run of `bachelier` without --config
_DEFAULT_BACHELIER = {"sigma": 0.2, "gamma": 1.0, "mu": 0.1, "s": 10.0,
                      "horizon": 1.0}


def _check_reads(command: str, blocks: dict):
    """Config error for a block or key that ``command`` does not read."""
    for block, data in blocks.items():
        if block not in _READS[command]:
            raise ConfigError(f"block '{block}' is not read by {command}")
        if not isinstance(data, dict):
            raise ConfigError(f"block '{block}' must be a mapping")
        keys, where = _READS[command][block], f"by {command}"
        if isinstance(keys, _Choice):
            choice = data.get(keys.key, keys.default)
            if not isinstance(choice, str) or choice not in keys.keys:
                raise ConfigError(f"{block}: unknown {keys.key} '{choice}'")
            keys, where = ({keys.key} | keys.keys[choice],
                           keys.phrase.format(choice))
        unread = sorted(set(data) - keys, key=str)
        if unread:
            raise ConfigError(
                f"{block}: key '{unread[0]}' is not read {where}")


def _builds(block: str):
    """Decorator of the builder of ``block``: the builder is handed the
    block's mapping after ``self``, and its KeyError, TypeError or
    ValueError becomes a config error naming the block."""
    def wrap(build):
        @functools.wraps(build)
        def checked(self, *args):
            try:
                return build(self, self.blocks.get(block, {}), *args)
            except ConfigError:
                raise
            except KeyError as exc:
                raise ConfigError(f"{block}: missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{block}: {exc}") from None
        return checked
    return wrap


@dataclass
class ExperimentConfig:
    """A checked config: its blocks by name, and its seed."""

    blocks: dict = field(default_factory=dict)
    seed: int = 0

    @_builds("output")
    def build_output(self, o, option) -> Path:
        """``--out`` when given, else the config's output directory."""
        return Path(option or o.get("directory", "out"))

    @_builds("panel")
    def build_panel(self, p) -> MakerPanel:
        makers = p.get("makers")
        if not makers:
            raise ConfigError("panel: 'makers' must be a nonempty list")
        specs = []
        for i, mk in enumerate(makers):
            if not isinstance(mk, dict):
                raise ConfigError(f"panel.makers[{i}] must be a mapping")
            where = f"panel.makers[{i}]"
            if set(mk) == {"gamma"}:
                specs.append(exponential(float(
                    _number(mk["gamma"], f"{where}: gamma"))))
            elif set(mk) == {"weights", "rates"}:
                specs.append(UtilitySpec(
                    weights=tuple(float(w) for w in _number(
                        mk["weights"], f"{where}: weights")),
                    rates=tuple(float(g) for g in _number(
                        mk["rates"], f"{where}: rates"))))
            else:
                raise ConfigError(
                    f"panel.makers[{i}]: give 'gamma' or 'weights'+'rates'")
        return MakerPanel(makers=tuple(specs))

    @_builds("tree")
    def build_tree(self, t, steps) -> ScenarioTree:
        """The tree, with ``--steps`` (``steps``) overriding the block's."""
        if not t:
            raise ConfigError("missing 'tree' block")
        steps = (count(t["steps"], "tree: steps") if steps is None
                 else count(steps, "--steps"))
        horizon = float(_number(t.get("horizon", 1.0), "tree: horizon"))
        sigma0 = t.get("sigma0", 0.0)
        psi = t.get("psi", ["B"])
        if isinstance(psi, (str, int, float)):
            psi = [psi]
        kind = t.get("kind", "tree")
        dim = count(t.get("dim", 1), "tree: dim")
        if kind == "lattice":
            if dim != 1:
                raise ConfigError("tree: lattices are one-dimensional")
            return binomial_lattice(steps, horizon, sigma0=sigma0,
                                    psi=tuple(psi))
        if kind == "tree":
            return binomial_tree(steps, horizon, dim=dim,
                                 sigma0=sigma0, psi=tuple(psi))
        raise ConfigError(f"tree: unknown kind '{kind}'")

    @_builds("strategy")
    def build_strategy(self, s, tree: ScenarioTree) -> SimpleStrategy:
        if s.get("kind") == "constant":
            strategy = SimpleStrategy(levels=(0,), positions=(_number(
                s.get("position", 0.0), "strategy: position"),))
        else:
            strategy = SimpleStrategy(levels=tuple(s["levels"]),
                                      positions=tuple(_number(
                                          s["positions"],
                                          "strategy: positions")))
            if strategy.levels[-1] >= tree.steps:
                raise ConfigError(
                    f"strategy: trade level {strategy.levels[-1]} is not "
                    f"before the last step of a {tree.steps}-step tree")
        J = tree.n_assets
        for n, lev in enumerate(strategy.levels):
            try:
                strategy.position_at(n, tree)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"strategy: position {strategy.positions[n]!r} at level "
                    f"{lev} does not fit a {J}-asset tree: give a scalar, "
                    f"{J} value(s) or a ({tree.n_nodes(lev)}, {J}) per-node "
                    f"table") from None
        sde = self.blocks.get("engine", {}).get("mode") == "sde"
        if sde and any(np.ndim(p) > 1 for p in strategy.positions):
            raise ConfigError("strategy: sde mode needs deterministic "
                              "positions")
        return strategy

    @_builds("engine")
    def build_engine(self, e, M: int):
        """(mode, lam0, tol_scale, want_v, u0, eps_explode_scale) of a run
        with ``M`` makers; lam0 and u0 are None when not given."""
        want_v = e.get("want_v", True)
        if not isinstance(want_v, bool):
            raise ConfigError(
                f"engine: want_v must be true or false, got {want_v!r}")
        tol_scale = float(_number(e.get("tol_scale", 1e-13),
                                 "engine: tol_scale"))
        eps_scale = float(_number(e.get("eps_explode_scale", 1e-10),
                                 "engine: eps_explode_scale"))
        if not (0 < tol_scale < np.inf and 0 < eps_scale < np.inf):
            raise ConfigError("engine: tol_scale and eps_explode_scale must "
                              "be positive numbers")
        lam0 = per_maker(_number(e.get("lam0"), "engine: lam0"), M, 1,
                         "engine: lam0")
        u0 = per_maker(_number(e.get("u0"), "engine: u0"), M, -1, "engine: u0")
        if lam0 is not None and u0 is not None:
            raise ConfigError("engine: give lam0 or u0 in sde mode, not both "
                              "(lam0 only sets the default u0)")
        return (e.get("mode", _ENGINE.default), lam0, tol_scale, want_v, u0,
                eps_scale)

    @_builds("bachelier")
    def build_bachelier(self, b, steps, paths):
        """(params, q, steps, paths) of the run, with ``--steps`` and
        ``--paths`` (``steps``, ``paths``) overriding the block's."""
        def real(key, default=None):
            value = b[key] if default is None else b.get(key, default)
            return float(_number(value, f"bachelier: {key}"))

        par = BachelierParams(
            gamma=real("gamma", 1.0), b=real("b", 0.0), mu=real("mu", 0.0),
            sigma=real("sigma"), s=real("s", 0.0),
            horizon=real("horizon", 1.0))
        steps = (count(b.get("steps", 512), "bachelier: steps")
                 if steps is None else count(steps, "--steps"))
        paths = (count(b.get("paths", 10_000), "bachelier: paths")
                 if paths is None else count(paths, "--paths"))
        return par, real("q", 1.0), steps, paths


def load_config(path, command: str) -> ExperimentConfig:
    """The config at ``path`` (None: the default Bachelier run), checked
    against what ``command`` reads."""
    raw = {"bachelier": _DEFAULT_BACHELIER}
    if path is not None:
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(
                f"config parse error in {path}: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    blocks = {b: d or {} for b, d in raw.items() if b != "seed"}
    _check_reads(command, blocks)
    return ExperimentConfig(blocks, _integer(raw.get("seed", 0), "seed", 0))

"""Market maker utility functions.

Supported families are the exponential utility u(x) = -exp(-g*x)/g and
finite mixtures u(x) = -sum_i w_i exp(-g_i*x)/g_i with positive weights
and rates.  Both are strictly increasing, strictly concave, negative,
vanish at +infinity, and have absolute risk aversion bounded between the
smallest and largest rate, which is what the rest of the library relies
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UtilitySpec",
    "MakerPanel",
    "exponential",
    "sum_of_exponentials",
]


@dataclass(frozen=True)
class UtilitySpec:
    """One market maker's utility, given by mixture weights and rates.

    A single exponential with risk aversion ``g`` is the special case
    ``weights=(1.0,), rates=(g,)``.
    """

    weights: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        g = np.asarray(self.rates, dtype=float)
        if w.ndim != 1 or w.shape != g.shape or w.size == 0:
            raise ValueError("weights and rates must be 1d and of equal length")
        if np.any(w <= 0) or np.any(g <= 0):
            raise ValueError("weights and rates must be positive")

    @property
    def is_exponential(self) -> bool:
        return len(self.rates) == 1

    @property
    def gamma(self) -> float:
        """Risk aversion of a pure exponential spec."""
        if not self.is_exponential:
            raise ValueError("not a single-exponential utility")
        return self.rates[0]

    @property
    def bound_constant(self) -> float:
        """Constant c with 1/c <= a(x) <= c, symmetrized to c >= 1."""
        g = np.asarray(self.rates)
        return max(g.max(), 1.0 / g.min(), 1.0)

    def _wge(self, x):
        """Terms w_i * exp(-g_i x), shaped (*x.shape, n_terms)."""
        x = np.asarray(x, dtype=float)
        g = np.asarray(self.rates)
        w = np.asarray(self.weights)
        return w * np.exp(-np.multiply.outer(x, g))

    def value(self, x):
        """u(x), always negative."""
        t = self._wge(x) / np.asarray(self.rates)
        return -t.sum(axis=-1)

    def marginal(self, x):
        """u'(x) > 0."""
        return self._wge(x).sum(axis=-1)

    def marginal_and_aversion(self, x):
        """(u'(x), a(x)) from a single evaluation of the mixture terms."""
        t = self._wge(x)
        up = t.sum(axis=-1)
        return up, (t * np.asarray(self.rates)).sum(axis=-1) / up

    def log_marginal_and_aversion(self, x):
        """(log u'(x), a(x)) with exponent shifting, stable for any x."""
        x = np.asarray(x, dtype=float)
        g = np.asarray(self.rates)
        e = np.log(np.asarray(self.weights)) - np.multiply.outer(x, g)
        m = e.max(axis=-1, keepdims=True)
        t = np.exp(e - m)
        s = t.sum(axis=-1)
        return m[..., 0] + np.log(s), (t * g).sum(axis=-1) / s

    def second_derivative(self, x):
        """u''(x) < 0."""
        return -(self._wge(x) * np.asarray(self.rates)).sum(axis=-1)

    def risk_aversion(self, x):
        """a(x) = -u''(x)/u'(x)."""
        t = self._wge(x)
        return (t * np.asarray(self.rates)).sum(axis=-1) / t.sum(axis=-1)

    def risk_tolerance(self, x):
        """1/a(x)."""
        return 1.0 / self.risk_aversion(x)

    def inverse_marginal(self, y, x0=None):
        """Solve u'(x) = y for x; y must be positive.

        Closed form for a single exponential; otherwise a guarded Newton
        iteration on log u'(x) - log y, which is convex and decreasing
        with slope in [-g_max, -g_min], so the iteration is global.  An
        optional warm start ``x0`` cuts the iteration count when called
        repeatedly with slowly moving targets.
        """
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0) or not np.all(np.isfinite(y)):
            raise ValueError("inverse_marginal requires y > 0")
        if self.is_exponential:
            # u'(x) = w * exp(-g x)
            return (np.log(self.weights[0]) - np.log(y)) / self.rates[0]
        gmin = min(self.rates)
        if x0 is None:
            x = np.asarray((np.log(self.marginal(0.0)) - np.log(y)) / gmin,
                           dtype=float)
        else:
            x = np.asarray(x0, dtype=float).copy()
        for _ in range(100):
            f = np.log(self.marginal(x)) - np.log(y)
            step = f / self.risk_aversion(x)
            x = x + step
            if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(x))):
                break
        return x if x.ndim else float(x)

    def inverse_value(self, c):
        """Solve u(x) = c for x; c must be negative.

        Closed form for a single exponential; Newton on x otherwise
        (u is increasing and concave, so starting from the exponential
        bound below the root converges monotonically).
        """
        c = np.asarray(c, dtype=float)
        if np.any(c >= 0) or not np.all(np.isfinite(c)):
            raise ValueError("inverse_value requires c < 0")
        if self.is_exponential:
            g, w = self.rates[0], self.weights[0]
            return -np.log(-g * c / w) / g
        gmax = max(self.rates)
        # u(x) >= -sum_i (w_i/g_i) exp(-gmax x) for x <= 0 and the same
        # bound with gmin for x >= 0; either way this start is below the
        # root, where Newton on an increasing concave map ascends to it.
        scale = sum(w / g for w, g in zip(self.weights, self.rates))
        x = np.minimum(-np.log(-c / scale) / gmax,
                       -np.log(-c / scale) / min(self.rates))
        for _ in range(200):
            step = (c - self.value(x)) / self.marginal(x)
            x = x + step
            if np.max(np.abs(step)) < 1e-15 * (1.0 + np.max(np.abs(x))):
                break
        return x if np.ndim(x) else float(x)


def exponential(gamma: float) -> UtilitySpec:
    """u(x) = -exp(-gamma*x)/gamma."""
    return UtilitySpec(weights=(1.0,), rates=(float(gamma),))


def sum_of_exponentials(weights, rates) -> UtilitySpec:
    return UtilitySpec(weights=tuple(float(w) for w in weights),
                       rates=tuple(float(g) for g in rates))


@dataclass(frozen=True)
class MakerPanel:
    """Ordered collection of market makers sharing one risk-aversion bound."""

    makers: tuple[UtilitySpec, ...]
    bound_constant: float = field(default=0.0)

    def __post_init__(self):
        if len(self.makers) < 1:
            raise ValueError("panel needs at least one maker")
        c = max(m.bound_constant for m in self.makers)
        c = max(c, 1.0 / c, float(self.bound_constant))
        object.__setattr__(self, "bound_constant", c)

    @property
    def size(self) -> int:
        return len(self.makers)

    @property
    def all_exponential(self) -> bool:
        return all(m.is_exponential for m in self.makers)

    @property
    def gammas(self) -> np.ndarray:
        """Risk aversions of an all-exponential panel."""
        return np.array([m.gamma for m in self.makers])


def panel(*specs: UtilitySpec) -> MakerPanel:
    return MakerPanel(makers=tuple(specs))

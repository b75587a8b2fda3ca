"""Market maker utility functions.

Supported families are the exponential utility u(x) = -exp(-g*x)/g and
finite mixtures u(x) = -sum_i w_i exp(-g_i*x)/g_i with positive weights
and rates.  Both are strictly increasing, strictly concave, negative,
vanish at +infinity, and have absolute risk aversion bounded between the
smallest and largest rate, which is what the rest of the library relies
on.

The mixture kernels evaluate term by term: each of the one to three
terms w_i exp(-g_i x) is an array of x's own shape, and the sums over
terms run left to right, ((t_1 + t_2) + t_3).  No kernel reduces over a
short trailing terms axis, which costs numpy a loop setup per output
element.  The results are bit for bit those of the trailing-axis
formulas (``w * exp(-outer(x, g))`` summed over the last axis): every
term is the same elementwise operation, and numpy sums axes shorter
than eight left to right, so the additions happen in the same order.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UtilitySpec",
    "MakerPanel",
    "InverseValueError",
    "exponential",
    "sum_of_exponentials",
]


def _total(arrays):
    """Left-to-right sum ((a_1 + a_2) + a_3) + ... of equally shaped arrays."""
    return functools.reduce(operator.add, arrays)


class InverseValueError(RuntimeError):
    """Newton on u(x) = c did not converge (``UtilitySpec.inverse_value``)."""


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

    def _terms(self, x):
        """Mixture terms (w_i exp(-g_i x), g_i), each of x's shape."""
        x = np.asarray(x, dtype=float)
        return [(w * np.exp(-(x * g)), g)
                for w, g in zip(self.weights, self.rates)]

    def value(self, x):
        """u(x), always negative."""
        return -_total(t / g for t, g in self._terms(x))

    def marginal(self, x):
        """u'(x) > 0."""
        return _total(t for t, _ in self._terms(x))

    @functools.cached_property
    def _log_weights(self) -> np.ndarray:
        """log w_i, computed once per spec."""
        return np.log(self.weights)

    def log_marginal_and_aversion(self, x):
        """(log u'(x), a(x)) with exponent shifting, stable for any x."""
        x = np.asarray(x, dtype=float)
        logw = self._log_weights
        if self.is_exponential:
            # the shifted sum is exp(0) = 1, so log u' = log w - g x
            return logw[0] - x * self.rates[0], np.full(x.shape,
                                                         self.rates[0])
        e = [lw - x * g for lw, g in zip(logw, self.rates)]
        m = functools.reduce(np.maximum, e)
        t = [np.exp(ei - m) for ei in e]
        s = _total(t)
        return m + np.log(s), _total(
            ti * g for ti, g in zip(t, self.rates)) / s

    def second_derivative(self, x):
        """u''(x) < 0."""
        return -_total(t * g for t, g in self._terms(x))

    def risk_aversion(self, x):
        """a(x) = -u''(x)/u'(x): the sum of t_i g_i over that of t_i."""
        terms = self._terms(x)
        return (_total(t * g for t, g in terms)
                / _total(t for t, _ in terms))

    def inverse_marginal(self, y):
        """Solve u'(x) = y for x; y must be positive.

        Closed form for a single exponential; otherwise a guarded Newton
        iteration on log u'(x) - log y, which is convex and decreasing
        with slope in [-g_max, -g_min], so the iteration is global.
        """
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0) or not np.all(np.isfinite(y)):
            raise ValueError("inverse_marginal requires y > 0")
        if self.is_exponential:
            # u'(x) = w * exp(-g x)
            return (np.log(self.weights[0]) - np.log(y)) / self.rates[0]
        logy = np.log(y)
        x = np.asarray((np.log(self.marginal(0.0)) - logy)
                       / min(self.rates), dtype=float)
        for _ in range(100):
            # log u' and a with exponent shifting: an iterate far below
            # the root must not overflow u'(x)
            logup, aversion = self.log_marginal_and_aversion(x)
            step = (logup - logy) / aversion
            x = x + step
            if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(x))):
                break
        return x if x.ndim else float(x)

    def inverse_value(self, c):
        """Solve u(x) = c for x; c must be negative.

        Closed form for a single exponential; Newton on x otherwise
        (u is increasing and concave, so starting from a bound below the
        root converges monotonically).  Raises ValueError unless c < 0,
        and ``InverseValueError`` if neither start converges.
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
        # Far below zero that start can overflow u, or lie so far below
        # the root that Newton, which climbs about 1/g_max per step while
        # u(x) << c, runs out of steps.  Then it starts again from the
        # largest of the per-term bounds -log(-c g_i/w_i)/g_i, also below
        # the root, where every term of u is at most -c.
        for attempt in range(2):
            if attempt:
                x = functools.reduce(np.maximum, (
                    -np.log(-c * g / w) / g
                    for w, g in zip(self.weights, self.rates)))
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(200):
                    step = (c - self.value(x)) / self.marginal(x)
                    x = x + step
                    size = np.max(np.abs(step))
                    if size < 1e-15 * (1.0 + np.max(np.abs(x))):
                        return x if np.ndim(x) else float(x)
                    if not np.isfinite(size):
                        break
        raise InverseValueError("inverse_value: Newton did not converge")


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

    def __post_init__(self):
        if len(self.makers) < 1:
            raise ValueError("panel needs at least one maker")

    @functools.cached_property
    def bound_constant(self) -> float:
        """Constant c >= 1 with 1/c <= a_m(x) <= c for every maker m:
        the largest of the makers' own (symmetrized) constants."""
        return max(m.bound_constant for m in self.makers)

    @property
    def size(self) -> int:
        return len(self.makers)

    @functools.cached_property
    def all_exponential(self) -> bool:
        return all(m.is_exponential for m in self.makers)

    @property
    def gammas(self) -> np.ndarray:
        """Risk aversions of an all-exponential panel."""
        return np.array([m.gamma for m in self.makers])

    @functools.cached_property
    def exponential_split(self):
        """Row-independent inputs of the closed-form split of an
        all-exponential panel, computed once: (g, log w, sum 1/g)."""
        g = self.gammas
        return (g, np.log([m.weights[0] for m in self.makers]),
                float(np.sum(1.0 / g)))

    @functools.cached_property
    def newton_start(self):
        """Row-independent inputs of the allocation Newton iteration,
        computed once per panel: (log u'_m(0), min_i g_m,i), each as an
        (M, 1) column."""
        return (np.log([m.marginal(0.0) for m in self.makers])[:, None],
                np.array([min(m.rates) for m in self.makers])[:, None])


def panel(*specs: UtilitySpec) -> MakerPanel:
    return MakerPanel(makers=tuple(specs))

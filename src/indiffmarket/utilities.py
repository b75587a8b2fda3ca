"""Market maker utility functions.

Supported families are the exponential utility u(x) = -exp(-g*x)/g and
finite mixtures u(x) = -sum_i w_i exp(-g_i*x)/g_i with positive weights
and rates.  Both are strictly increasing, strictly concave, negative,
vanish at +infinity, and have absolute risk aversion bounded between the
smallest and largest rate, which is what the rest of the library relies
on.

The mixture kernels evaluate the T terms w_i exp(-g_i x) of all of x's
entries as one (T, x.size) block, a row per term (``_terms``), so an
elementwise step costs one numpy call whatever T is, and the sums over
terms add the rows left to right, ((t_1 + t_2) + t_3).  No kernel
reduces over a short trailing terms axis, which costs numpy a loop
setup per output element.  Every entry sees the same elementwise
operations, in the same order, as in the term-by-term formulas, so the
results keep their bits.

``log_marginal_and_aversion`` and ``value`` write into rows the caller
passes, so a Newton loop or a leaf fill allocates nothing per maker
beyond the terms block, and ``value`` gives the risk tolerance 1/a(x)
from the same evaluation of the terms as u(x).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UtilitySpec",
    "MakerPanel",
    "InverseValueError",
    "exponential",
    "sum_of_exponentials",
]


def _total(rows):
    """Left-to-right sum ((r_1 + r_2) + r_3) + ... of the rows of an
    array, by index: iterating over the rows costs more than adding
    them."""
    total = rows[0] if len(rows) == 1 else rows[0] + rows[1]
    for i in range(2, len(rows)):
        total += rows[i]
    return total


def _shaped(flat, x):
    """A kernel result over x's raveled entries in x's shape: a numpy
    scalar for a scalar x."""
    return flat.reshape(np.shape(x))[()]


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

    @functools.cached_property
    def _columns(self):
        """(w_i, g_i, log w_i), each a (T, 1) column, computed once per
        spec."""
        w = np.array(self.weights)[:, None]
        return w, np.array(self.rates)[:, None], np.log(w)

    def _terms(self, x):
        """Mixture terms w_i exp(-g_i x) of x's entries, raveled: one
        (T, x.size) block, a row per term."""
        w, g, _ = self._columns
        t = g * np.asarray(x, dtype=float).reshape(-1)
        np.negative(t, out=t)
        np.exp(t, out=t)
        t *= w
        return t

    def value(self, x, out=None, tolerance=None):
        """u(x), always negative; written into ``out`` when given.

        With ``tolerance``, the risk tolerance 1/a(x) goes into it as
        well, from the same evaluation of the terms, with the bits of
        1.0 / ``risk_aversion``.  ``out`` and ``tolerance`` are 1-d, of
        x's length.
        """
        t = self._terms(x)
        g = self._columns[1]
        if tolerance is not None:
            np.divide(_total(t * g), _total(t), out=tolerance)
            np.divide(1.0, tolerance, out=tolerance)
        t /= g
        if out is None:
            return _shaped(-_total(t), x)
        return np.negative(_total(t), out=out)

    def marginal(self, x):
        """u'(x) > 0."""
        return _shaped(_total(self._terms(x)), x)

    def log_marginal_and_aversion(self, x, out=None):
        """(log u'(x), a(x)) with exponent shifting, stable for any x.

        ``out``, a pair of 1-d arrays of x's length, receives the two
        results in place; without it they are new arrays of x's shape.
        """
        x = np.asarray(x, dtype=float)
        if out is None:
            logup, av = np.empty(x.size), np.empty(x.size)
        else:
            logup, av = out
        if self.is_exponential:
            # the shifted sum is exp(0) = 1, so log u' = log w - g x
            np.multiply(x.reshape(-1), self.rates[0], out=logup)
            np.subtract(self._columns[2][0, 0], logup, out=logup)
            av.fill(self.rates[0])
        else:
            _, g, logw = self._columns
            e = g * x.reshape(-1)
            np.subtract(logw, e, out=e)
            top = np.maximum.reduce(e, axis=0)
            e -= top
            np.exp(e, out=e)
            s = _total(e)
            np.log(s, out=logup)
            logup += top
            e *= g
            np.divide(_total(e), s, out=av)
        if out is None:
            return logup.reshape(x.shape), av.reshape(x.shape)
        return out

    def risk_aversion(self, x):
        """a(x) = -u''(x)/u'(x): the sum of t_i g_i over that of t_i."""
        t = self._terms(x)
        return _shaped(_total(t * self._columns[1]) / _total(t), x)

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

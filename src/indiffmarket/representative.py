"""Representative-agent utility and Pareto allocations.

The representative utility r(v, x) is the weighted sup-convolution of the
panel's utilities: the best split of total wealth x across makers under
weights v.  The first-order condition reduces the M-dimensional
maximization to a single monotone scalar equation in the common marginal
value y = dr/dx, which is what ``allocate`` solves (closed form for
all-exponential panels, guarded Newton otherwise).

The Newton iteration runs maker-major: it holds the split and the
per-maker residuals as (M, n) arrays, evaluates each maker's mixture on
one contiguous row, and sums over makers by adding rows left to right.
That gives the same bits as summing the trailing axis of (n, M) arrays,
since numpy sums axes shorter than eight left to right too, while
avoiding a reduction setup per row.  The result comes back as the usual
(n, M) split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .utilities import MakerPanel

__all__ = [
    "PrimalPoint",
    "allocate",
    "representative_utility",
    "representative_gradient",
    "weights_from_allocation",
]

_MAX_NEWTON = 200
_REL_TOL = 1e-14
_LOG_MAX = float(np.log(np.finfo(float).max))


class AllocationError(RuntimeError):
    """Scalar root-find for the representative utility failed."""


@dataclass(frozen=True)
class PrimalPoint:
    """Point a = (v, x, q): weights, cash, stock position."""

    v: np.ndarray
    x: float
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        if np.any(self.v <= 0):
            raise ValueError("weights must be strictly positive")


def allocate(panel: MakerPanel, v, total):
    """Solve the first-order condition of the optimal split.

    Parameters are broadcast: ``v`` has shape (M,) or (n, M) and
    ``total`` is scalar or (n,).  Returns ``(y, pi)`` with the common
    marginal value y (shape (n,)) and the per-maker split pi (n, M) such
    that v^m u_m'(pi^m) = y and pi sums to ``total`` row-wise.  Raises
    AllocationError when y overflows (see ``_marginal_value``).
    """
    M = panel.size
    total = np.atleast_1d(np.asarray(total, dtype=float))
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = np.broadcast_to(v, (total.shape[0], M))
    logv = np.log(v)

    if panel.all_exponential:
        g = panel.gammas
        logw = np.log([m.weights[0] for m in panel.makers])
        tau = float(np.sum(1.0 / g))
        lny = ((logv + logw) / g).sum(axis=1) / tau - total / tau
        pi = (logv + logw - lny[:, None]) / g
        return _marginal_value(lny), pi

    # Joint Newton on (pi, ln y) for the system v^m u'_m(pi^m) = y,
    # sum_m pi^m = total.  The block structure reduces each step to one
    # scalar update of ln y plus per-maker corrections with the local
    # risk aversions a_m, all from a single mixture evaluation per maker.
    # Maker-major (see the module docstring): one row per maker.
    logv = np.ascontiguousarray(logv.T)
    logup0 = np.log([m.marginal(0.0) for m in panel.makers])[:, None]
    gmin = np.array([min(m.rates) for m in panel.makers])[:, None]
    lny = (logv + logup0).sum(axis=0) / M - total / M
    pi = (logv + logup0 - lny) / gmin
    logup = np.empty_like(pi)
    av = np.empty_like(pi)
    for it in range(_MAX_NEWTON):
        for m, spec in enumerate(panel.makers):
            logup[m], av[m] = spec.log_marginal_and_aversion(pi[m])
        f = logv + logup - lny
        g = total - pi.sum(axis=0)
        tsum = (1.0 / av).sum(axis=0)
        dlny = ((f / av).sum(axis=0) - g) / tsum
        dpi = (f - dlny) / av
        np.clip(dpi, -20.0, 20.0, out=dpi)
        pi += dpi
        lny += dlny
        if max(np.max(np.abs(dpi)), np.max(np.abs(dlny))) < _REL_TOL * (
                1.0 + np.max(np.abs(pi))):
            break
    else:
        raise AllocationError(
            f"allocation Newton did not converge: last step "
            f"{np.max(np.abs(dpi)):.3e}")
    return _marginal_value(lny), np.ascontiguousarray(pi.T)


def _marginal_value(lny):
    """y = exp(lny), checked: a log y that is not finite, or large
    enough to overflow y, raises AllocationError naming the worst row."""
    bad = ~np.isfinite(lny) | (lny > _LOG_MAX)
    if bad.any():
        rows = np.flatnonzero(bad)
        worst = int(rows[np.argmax(np.abs(lny[rows]))])  # NaN ranks first
        raise AllocationError(
            f"marginal value out of range at row {worst}: "
            f"log y = {lny[worst]:.6g} (limit {_LOG_MAX:.6g})")
    return np.exp(lny)


def representative_utility(panel: MakerPanel, v, x):
    """r(v, x) with its maximizing split and marginal value.

    Returns ``(r, split, y)`` where ``split`` attains the supremum of
    sum_m v^m u_m(x^m) over splits of x and y = dr/dx.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    y, pi = allocate(panel, v, x)
    vals = np.stack(
        [spec.value(pi[:, m]) for m, spec in enumerate(panel.makers)], axis=1
    )
    r = (v * vals).sum(axis=-1)
    if np.ndim(x) == 0:
        return float(r[0]), pi[0], float(y[0])
    return r, pi, y


def representative_gradient(panel: MakerPanel, v, x):
    """(dr/dv, dr/dx) by the envelope identity dr/dv^m = u_m(split^m)."""
    _, split, y = representative_utility(panel, v, x)
    if np.ndim(x) == 0:
        dv = np.array([spec.value(split[m]) for m, spec in enumerate(panel.makers)])
        return dv, y
    dv = np.stack(
        [spec.value(split[:, m]) for m, spec in enumerate(panel.makers)], axis=1
    )
    return dv, y


def weights_from_allocation(panel: MakerPanel, alpha) -> np.ndarray:
    """Simplex weights making ``alpha`` Pareto: lambda^m proportional to
    the reciprocal marginal utility at alpha^m."""
    alpha = np.asarray(alpha, dtype=float)
    inv = np.array(
        [1.0 / spec.marginal(alpha[m]) for m, spec in enumerate(panel.makers)]
    )
    return inv / inv.sum()


def allocation_curvature(panel: MakerPanel, v, total):
    """Second-derivative ingredients of r at the optimal split.

    Returns ``(y, pi, t, tsum)`` with per-maker risk tolerances t (n, M)
    evaluated at the split and their row sum.  The second derivatives of
    r follow as

        d2r/dx2        = -y / tsum
        d2r/dv^m dx    =  y t^m / (v^m tsum)
        d2r/dv^l dv^m  =  y t^m/(v^l v^m) (delta_lm - t^l/tsum)
    """
    total = np.atleast_1d(np.asarray(total, dtype=float))
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = np.broadcast_to(v, (total.shape[0], panel.size))
    y, pi = allocate(panel, v, total)
    t = np.stack(
        [spec.risk_tolerance(pi[:, m]) for m, spec in enumerate(panel.makers)], axis=1
    )
    return y, pi, t, t.sum(axis=1)

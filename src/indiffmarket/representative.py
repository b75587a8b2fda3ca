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

On small batches the fixed cost of a call dominates, so nothing that
does not depend on the rows is recomputed per call or per iteration:
the start values log u'_m(0) and min_i g_m,i and the closed-form
inputs of an all-exponential panel are cached on the panel
(``MakerPanel.newton_start``, ``MakerPanel.exponential_split``), log
w_i on each spec, and the loop clips with in-place ``np.maximum`` and
``np.minimum`` and sums with plain row additions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .utilities import MakerPanel, _total

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
        g, logw, tau = panel.exponential_split
        lny = ((logv + logw) / g).sum(axis=1) / tau - total / tau
        pi = (logv + logw - lny[:, None]) / g
        return _marginal_value(lny), pi

    # Joint Newton on (pi, ln y) for the system v^m u'_m(pi^m) = y,
    # sum_m pi^m = total.  The block structure reduces each step to one
    # scalar update of ln y plus per-maker corrections with the local
    # risk aversions a_m, all from a single mixture evaluation per maker.
    # Maker-major (see the module docstring): one row per maker.
    logv = np.ascontiguousarray(logv.T)
    logup0, gmin = panel.newton_start
    lny = _total(logv + logup0) / M - total / M
    pi = (logv + logup0 - lny) / gmin
    logup = np.empty_like(pi)
    av = np.empty_like(pi)
    for it in range(_MAX_NEWTON):
        for m, spec in enumerate(panel.makers):
            logup[m], av[m] = spec.log_marginal_and_aversion(pi[m])
        f = logv + logup
        f -= lny
        g = total - _total(pi)
        dlny = (_total(f / av) - g) / _total(1.0 / av)
        dpi = f - dlny
        dpi /= av
        np.maximum(dpi, -20.0, out=dpi)
        np.minimum(dpi, 20.0, out=dpi)
        pi += dpi
        lny += dlny
        if max(np.abs(dpi).max(), np.abs(dlny).max()) < _REL_TOL * (
                1.0 + np.abs(pi).max()):
            break
    else:
        raise AllocationError(
            f"allocation Newton did not converge: last step "
            f"{np.abs(dpi).max():.3e}")
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


def split_tolerances(panel: MakerPanel, pi):
    """Risk tolerances t (n, M) of each maker at the split ``pi`` (n, M),
    and their row sum tsum.  With the marginal value y of the split
    (``allocate``), the second derivatives of r follow as

        d2r/dx2        = -y / tsum
        d2r/dv^m dx    =  y t^m / (v^m tsum)
        d2r/dv^l dv^m  =  y t^m/(v^l v^m) (delta_lm - t^l/tsum)
    """
    t = np.stack([1.0 / spec.risk_aversion(pi[:, m])
                  for m, spec in enumerate(panel.makers)], axis=1)
    return t, t.sum(axis=1)

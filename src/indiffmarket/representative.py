"""Representative-agent utility and Pareto allocations.

The representative utility r(v, x) is the weighted sup-convolution of the
panel's utilities: the best split of total wealth x across makers under
weights v.  The first-order condition reduces the M-dimensional
maximization to a single monotone scalar equation in the common marginal
value y = dr/dx, which is what ``allocate`` solves (closed form for
all-exponential panels, guarded Newton otherwise).

The Newton iteration runs maker-major, on rows allocated once per call:
one block holds the step (dpi; dln y), the iterate (pi; ln y), f/a, 1/a
and f as layers of M + 1 rows, a row per maker and one for ln y.  Each
iteration evaluates every maker once, writing log u'_m and a_m into its
own rows (``UtilitySpec.log_marginal_and_aversion`` with ``out``), and
then runs a fixed list of in-place numpy calls: M - 1 additions of
(pi, f/a, 1/a) row triples give their sums over makers, left to right
(``add.accumulate`` over the maker axis would run one inner loop per
row entry, which is slow on the thousands of leaves of a deep tree),
one addition moves the whole iterate, and two ``maximum.reduceat``
calls give max|step| and max|pi| of each row group (see below) for the
stopping test.
Every entry sees the operations of the column-wise iteration in the
same order, so the bits are those of the tests' oracle, which sums
(n, M) arrays over their trailing axis.  The result comes back as the
usual (n, M) split.

On small batches the fixed cost of a call dominates, so nothing that
does not depend on the rows is recomputed per call or per iteration:
the start values log u'_m(0) and min_i g_m,i and the closed-form
inputs of an all-exponential panel are cached on the panel
(``MakerPanel.newton_start``, ``MakerPanel.exponential_split``), and
the term columns on each spec.  ``_marginal_value`` checks the result
with two reductions and builds its error mask only on failure.

The stopping test, max |step| < 1e-14 (1 + max |pi|), runs over all
the rows of a call, so a row's last bits depend on the rows allocated
with it.  Several batches share one call as row groups: each group has
its own test, and once it passes its rows are left out of every later
move of the iterate (an addition with ``where``; adding a zero step
would turn a -0.0 into +0.0), so each group gets the bits of a call of
its own.
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
        check_finite(self.v, "weights", 1)
        check_finite(self.x, "cash")
        check_finite(self.q, "positions")


def check_finite(values, what: str, sign: int = 0):
    """ValueError naming ``what`` unless every entry of ``values`` is
    finite and, with ``sign`` 1 or -1, strictly positive or negative."""
    a = np.asarray(values, dtype=float)
    ok = np.isfinite(a)
    if sign:
        ok &= sign * a > 0
    if not ok.all():
        kind = {0: "", 1: " and strictly positive", -1: " and negative"}
        raise ValueError(f"{what} must be finite{kind[sign]}")


def allocate(panel: MakerPanel, v, total, groups=None):
    """Solve the first-order condition of the optimal split.

    Parameters are broadcast: ``v`` has shape (M,) or (n, M) and
    ``total`` is scalar or (n,).  Returns ``(y, pi)`` with the common
    marginal value y (shape (n,)) and the per-maker split pi (n, M) such
    that v^m u_m'(pi^m) = y and pi sums to ``total`` row-wise.  Raises
    AllocationError when y overflows (see ``_marginal_value``).

    ``groups``, the row counts of consecutive row groups summing to n,
    gives each group its own stopping test: a group's rows stop moving
    once the group passes, so each group gets the bits of a separate
    call on its rows.  By default the n rows are one group.  The call
    fails when any group fails.
    """
    M = panel.size
    total = np.atleast_1d(np.asarray(total, dtype=float))
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = np.broadcast_to(v, (total.shape[0], M))
    logv = np.log(v)
    n = total.shape[0]
    starts = _group_starts(groups, n)

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
    # Layers of M + 1 rows: the step (dpi; dln y), the iterate (pi; ln y),
    # f/a, 1/a and f, the last three with a spare row.  One addition
    # moves the iterate, M - 1 additions sum pi, f/a and 1/a over the
    # makers left to right, and two reduceats take max|step| and max|pi|
    # of each row group for the stopping test.  Nothing else of size n
    # is made per iteration but the makers' terms: on thousands of
    # leaves, fresh memory costs page faults.
    blk = np.empty((5, M + 1, n))
    step, z = blk[0], blk[1]
    dpi, dlny, pi, lny = step[:M], step[M], z[:M], z[M]
    fa, ia, f = blk[2, :M], blk[3, :M], blk[4, :M]
    start = logv + logup0
    lny[:] = _total(start) / M - total / M
    np.subtract(start, lny, out=pi)
    pi /= gmin
    # row m of pi, f/a and 1/a at once, to sum over makers left to right
    rows = [blk[1:4, m] for m in range(M)]
    sums = rows[0] if M == 1 else np.empty((3, n))
    pisum, fasum, iasum = sums
    moved = blk[:2].reshape(2 * (M + 1), n)
    # |step| and |iterate| go to the f/a and 1/a layers, which are spent
    # by then and refilled at the next iteration
    size = blk[2:4].reshape(2 * (M + 1), n)
    parts = np.array([0, M + 1, 2 * M + 1])  # rows of step, pi, ln y
    logup = np.empty((M, n))
    av = np.empty((M, n))
    evals = [(spec.log_marginal_and_aversion, pi[m], (logup[m], av[m]))
             for m, spec in enumerate(panel.makers)]
    # the groups that have not passed, and the max |step| and |iterate|
    # of each row of the step and iterate layers over each group's rows;
    # the rows of a group that passed stay out of every later move of
    # the iterate
    counts = np.diff(starts, append=n)
    per = np.empty((2 * (M + 1), len(starts)))
    waiting = list(range(len(starts)))
    live = True
    for it in range(_MAX_NEWTON):
        for evaluate, x, out in evals:
            evaluate(x, out=out)
        np.add(logv, logup, out=f)
        f -= lny
        np.divide(f, av, out=fa)
        np.divide(1.0, av, out=ia)
        if M > 1:
            np.add(rows[0], rows[1], out=sums)
            for row in rows[2:]:
                sums += row
        # dln y = (sum f/a - (total - sum pi)) / sum 1/a
        np.subtract(total, pisum, out=dlny)
        np.subtract(fasum, dlny, out=dlny)
        dlny /= iasum
        np.subtract(f, dlny, out=dpi)
        dpi /= av
        np.maximum(dpi, -20.0, out=dpi)
        np.minimum(dpi, 20.0, out=dpi)
        # where=, not a zeroed step: adding +0.0 would turn a -0.0 of a
        # passed group into +0.0
        np.add(z, step, out=z, where=live)
        np.abs(moved, out=size)
        np.maximum.reduceat(size, starts, axis=1, out=per)
        # max |step| and max |pi| of each group, as floats: a test on a
        # few groups costs less in Python than in numpy calls
        big, top, _ = np.maximum.reduceat(per, parts, axis=0).tolist()
        # not (<), so that a NaN step keeps its group waiting
        left = [g for g in waiting if not big[g] < _REL_TOL * (1.0 + top[g])]
        if len(left) < len(waiting):
            waiting = left
            if not waiting:
                break
            live = np.zeros(len(starts), dtype=bool)
            live[waiting] = True
            live = np.repeat(live, counts)
    else:
        raise AllocationError(
            f"allocation Newton did not converge: last step "
            f"{np.abs(dpi).max():.3e}")
    return _marginal_value(lny), np.ascontiguousarray(pi.T)


def _group_starts(groups, n: int):
    """First rows of the row groups of ``allocate``."""
    if groups is None:
        return np.zeros(1, dtype=np.intp)
    counts = np.asarray(groups, dtype=np.intp)
    if not counts.size or counts.min() < 1 or counts.sum() != n:
        raise ValueError(f"row groups must be positive and sum to {n}, "
                         f"got {counts.tolist()}")
    return np.concatenate([[0], np.cumsum(counts[:-1])])


def _marginal_value(lny):
    """y = exp(lny), checked: a log y that is not finite, or large
    enough to overflow y, raises AllocationError naming the worst row."""
    # NaN propagates through both reductions and fails either test
    if not (np.minimum.reduce(lny, initial=np.inf) > -np.inf
            and np.maximum.reduce(lny, initial=-np.inf) <= _LOG_MAX):
        bad = ~np.isfinite(lny) | (lny > _LOG_MAX)
        rows = np.flatnonzero(bad)
        worst = int(rows[np.argmax(np.abs(lny[rows]))])  # NaN ranks first
        raise AllocationError(
            f"marginal value out of range at row {worst}: "
            f"log y = {lny[worst]:.6g} (limit {_LOG_MAX:.6g})")
    return np.exp(lny)


def representative_utility(panel: MakerPanel, v, x):
    """r(v, x) with its maximizing split and marginal value.

    Returns ``(r, split, y)`` where ``split`` attains the supremum of
    sum_m v^m u_m(x^m) over splits of x and y = dr/dx.  The weights
    must be finite and strictly positive and the total finite, or it is
    a ValueError.
    """
    check_finite(v, "weights", 1)
    check_finite(x, "total")
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


def split_tolerances(panel: MakerPanel, pi, values=None):
    """Risk tolerances t (n, M) of each maker at the split ``pi`` (n, M),
    and their row sum tsum.  With the marginal value y of the split
    (``allocate``), the second derivatives of r follow as

        d2r/dx2        = -y / tsum
        d2r/dv^m dx    =  y t^m / (v^m tsum)
        d2r/dv^l dv^m  =  y t^m/(v^l v^m) (delta_lm - t^l/tsum)

    With ``values``, an (n, M) array, column m receives u_m at the split
    as well, from the same evaluation of the maker's terms
    (``UtilitySpec.value``).
    """
    t = np.empty(pi.shape)
    for m, spec in enumerate(panel.makers):
        spec.value(pi[:, m], None if values is None else values[:, m],
                   tolerance=t[:, m])
    return t, t.sum(axis=1)

"""Closed forms for the single-maker exponential model with Gaussian payoffs.

One exponential maker with risk aversion gamma, endowment b +
(mu/(gamma*sigma)) B_T, and a single traded payoff s + mu*T + sigma*B_T.
Everything of interest is explicit: the field factors as F(v, x, q, t) =
v exp(-gamma x) N_t(q) with a log-normal martingale N, the SDE kernel is
linear, and the quoted stock price is the Bachelier price s + mu t +
sigma B_t.  This module is the oracle the engines are tested against; it
never calls the tree machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import ScenarioTree, binomial_lattice, binomial_tree
from .utilities import MakerPanel, exponential, panel as make_panel

__all__ = ["BachelierParams"]


class _StepSum:
    """Sum over the steps of one per-step increment formula ``inc``
    (``BachelierParams._gain_steps``, ``_growth_steps``), fed one step
    of a path block at a time.

    Within a block the steps add one row at a time in step order, so
    ``total`` has the bits of ``cumsum(axis=1)``'s last column; a
    pairwise ``sum(axis=0)`` does not, for one path or F-ordered
    increments.  The scratch row is as wide as the block being fed.
    """

    def __init__(self, inc, n_paths: int):
        self._inc = inc
        self.total = np.empty(n_paths)
        self._row = None

    def add(self, cols, k: int, db):
        """Add the increments of step k of the paths ``cols`` (a slice),
        from their Brownian increments ``db``; a block's steps come in
        order from 0."""
        total = self.total[cols]
        if k == 0:
            self._inc(k, db, total)
            self._row = np.empty_like(total)
        else:
            self._inc(k, db, self._row)
            total += self._row


@dataclass(frozen=True)
class BachelierParams:
    gamma: float
    b: float
    mu: float
    sigma: float
    s: float
    horizon: float

    def __post_init__(self):
        if self.gamma <= 0 or self.sigma <= 0 or self.horizon <= 0:
            raise ValueError("gamma, sigma and horizon must be positive")

    # -- model ingredients -------------------------------------------------

    def panel(self) -> MakerPanel:
        return make_panel(exponential(self.gamma))

    def kappa(self, q):
        """Volatility loading of N(q) and of the indirect utility."""
        return self.mu / self.sigma + self.gamma * self.sigma * np.asarray(q, float)

    def price(self, t, b_t):
        """Quoted stock price s + mu t + sigma B_t."""
        return self.s + self.mu * np.asarray(t, float) + self.sigma * np.asarray(
            b_t, float)

    def N0(self, q):
        """Initial value of the martingale N(q), pinned by matching
        F(v, x, q, 0) to the expected representative utility."""
        q = np.asarray(q, float)
        kap = self.kappa(q)
        T = self.horizon
        expo = (-self.gamma * (self.b + q * (self.s + self.mu * T))
                + 0.5 * kap ** 2 * T)
        return -np.exp(expo) / self.gamma

    def N(self, q, t, b_t):
        return self.N0(q) * np.exp(-self.kappa(q) * np.asarray(b_t, float)
                                   - 0.5 * self.kappa(q) ** 2 * np.asarray(t, float))

    def field_F(self, v, x, q, t=0.0, b_t=0.0):
        return np.asarray(v, float) * np.exp(
            -self.gamma * np.asarray(x, float)) * self.N(q, t, b_t)

    def kernel_K(self, u, q):
        """K(u, q) = -kappa(q) u; the indirect utility SDE is linear."""
        return -self.kappa(q) * np.asarray(u, float)

    def terminal_forms(self, q_levels, times, n_paths: int, u0=None):
        """Gain V_T and indirect utility U_T of the investor at maturity,
        fed the Brownian increments one step at a time: returns (add,
        result).

        V_t = int (-Q) dS - (gamma sigma^2 / 2) int Q^2 dt, and U solves
        dU = -kappa(Q) U dB from U_0 = ``u0`` (by default N0(0)).  Both
        are exact for Q piecewise constant over the steps of ``times``,
        ``q_levels`` holding the position over each step (scalar or
        (N,)): the stochastic exponential, not an Euler scheme.

        ``add(cols, k, db)`` takes the increments (b,) of step k of the
        paths ``cols`` (a slice), steps in order from 0 within each
        block of paths: it is the ``on_step`` of
        ``engine.simulate_sde_terminal``.  ``result()`` then gives
        (V_T, U_T), (n_paths,) each.
        """
        v_sum = _StepSum(self._gain_steps(q_levels, times), n_paths)
        log_u = _StepSum(self._growth_steps(q_levels, times), n_paths)
        u0 = float(self.N0(0.0)) if u0 is None else u0

        def add(cols, k, db):
            v_sum.add(cols, k, db)
            log_u.add(cols, k, db)

        def result():
            return v_sum.total, np.exp(log_u.total) * u0

        return add, result

    # The per-step increments of V and of log(U / u0), as functions
    # inc(k, db, out) of the Brownian increments db (b,) of step k,
    # written into the row ``out``.  Each product and sum takes the
    # operands of the formulas in ``terminal_forms``, at most swapped,
    # which leaves IEEE results unchanged; the tests pin the bits of
    # the terminal forms against ``cumsum(axis=1)`` forms.

    def _gain_steps(self, q_levels, times):
        dt = np.diff(np.asarray(times, float))
        q = np.broadcast_to(np.asarray(q_levels, float), dt.shape)
        drift = self.mu * dt
        neg_q = -q
        cost = 0.5 * self.gamma * self.sigma ** 2 * q ** 2 * dt

        def inc(k, db, out):
            np.multiply(db, self.sigma, out=out)
            out += drift[k]
            out *= neg_q[k]
            out -= cost[k]

        return inc

    def _growth_steps(self, q_levels, times):
        dt = np.diff(np.asarray(times, float))
        kap = self.kappa(np.broadcast_to(np.asarray(q_levels, float),
                                         dt.shape))
        neg_kap = -kap
        comp = 0.5 * kap ** 2 * dt

        def inc(k, db, out):
            np.multiply(db, neg_kap[k], out=out)
            out -= comp[k]

        return inc

    def indifference_price(self, q):
        """Cash leaving the maker indifferent to taking position q at
        time zero: -q s + (gamma sigma^2 / 2) q^2 T.

        Equals (1/gamma) log(N0(q)/N0(0)).  The quadratic markup over
        the frictionless Bachelier value q s is the price impact paid by
        the investor; the sum over q and -q is strictly positive.
        """
        q = np.asarray(q, float)
        return -q * self.s + 0.5 * self.gamma * self.sigma ** 2 * q ** 2 \
            * self.horizon

    # -- matched trees -----------------------------------------------------

    def _payoffs(self):
        T = self.horizon
        sigma0 = f"{self.b!r} + {self.mu / (self.gamma * self.sigma)!r} * B"
        psi = f"{self.s + self.mu * T!r} + {self.sigma!r} * B"
        return sigma0, psi

    def lattice(self, steps: int) -> ScenarioTree:
        sigma0, psi = self._payoffs()
        return binomial_lattice(steps, self.horizon, sigma0=sigma0, psi=(psi,))

    def tree(self, steps: int) -> ScenarioTree:
        sigma0, psi = self._payoffs()
        return binomial_tree(steps, self.horizon, dim=1, sigma0=sigma0,
                             psi=(psi,))

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

from .tree import (ScenarioTree, accumulate_rows, binomial_lattice,
                   binomial_tree)
from .utilities import MakerPanel, exponential, panel as make_panel

__all__ = ["BachelierParams"]


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

    def dHdv(self, x, q, t=0.0, b_t=0.0):
        return -self.kappa(q) * np.exp(
            -self.gamma * np.asarray(x, float)) * self.N(q, t, b_t)

    def kernel_K(self, u, q):
        """K(u, q) = -kappa(q) u; the indirect utility SDE is linear."""
        return -self.kappa(q) * np.asarray(u, float)

    def indirect_utility(self, q_levels, db, times, u0=None):
        """Exact solution of dU = -kappa(Q) U dB along discrete paths.

        ``q_levels`` holds the position over each step (scalar or (N,)),
        ``db`` the Brownian increments (n_paths, N).  Piecewise constant
        Q makes the stochastic exponential exact, not an Euler scheme.
        Returns (n_paths, N+1), a view of step-major storage.
        """
        dbs, dt = self._step_major(db, times)
        kap = self.kappa(np.broadcast_to(np.asarray(q_levels, float),
                                         (len(dt),)))[:, None]
        if u0 is None:
            u0 = float(self.N0(0.0) * np.exp(self.gamma * 0.0))
        out = np.empty((dbs.shape[0] + 1, dbs.shape[1]))
        out[0] = u0
        growth = out[1:]
        np.multiply(dbs, -kap, out=growth)
        growth -= 0.5 * kap ** 2 * dt
        accumulate_rows(growth)
        np.exp(growth, out=growth)
        np.multiply(growth, u0, out=growth)
        return out.T

    def gain(self, q_levels, db, times):
        """Cumulative gain V of the investor along discrete paths.

        V_t = int (-Q) dS - (gamma sigma^2 / 2) int Q^2 dt; exact for
        piecewise constant Q.  Returns (n_paths, N+1), a view of
        step-major storage.
        """
        dbs, dt = self._step_major(db, times)
        q = np.broadcast_to(np.asarray(q_levels, float), (len(dt),))[:, None]
        out = np.zeros((dbs.shape[0] + 1, dbs.shape[1]))
        inc = out[1:]
        np.multiply(dbs, self.sigma, out=inc)
        inc += self.mu * dt
        inc *= -q
        inc -= 0.5 * self.gamma * self.sigma ** 2 * q ** 2 * dt
        accumulate_rows(inc)
        return out.T

    # ``gain`` and ``indirect_utility`` build their increments in place
    # on (N, n_paths) rows.  Each product and sum takes the operands of
    # the formula in the docstring, at most swapped, which leaves IEEE
    # results unchanged, and ``accumulate_rows`` adds in cumsum's order;
    # the tests pin these bits against ``cumsum(axis=1)`` forms.

    @staticmethod
    def _step_major(db, times):
        """Increments as (N, n_paths) rows and step lengths as (N, 1)."""
        db = np.atleast_2d(np.asarray(db, float)).T
        dt = np.diff(np.asarray(times, float))[:, None]
        return db, dt

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

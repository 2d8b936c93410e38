"""Resolvents of the two halves of the splitting.

The decoupled half resolves into N independent proximal subproblems (one
per agent) plus identity on the central blocks; the coupling half has a
closed form built from one scalar rescaling per multiplier block and a
single positive-orthant projection.  Step sizes enter through a diagonal
preconditioner: per-agent weights gamma_i on the decision and link
blocks, and alpha, beta, delta on the aggregate and multiplier blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidStepSizes
from .game import GameSpec
from .operators import ExtendedPoint
from .projections import fista_minimize

DEFAULT_PROX_TOL = 1e-10


@dataclass(frozen=True)
class StepSizes:
    """Raw preconditioner entries and the equivalent central parameters.

    The raw entries (gamma_i, alpha, beta, delta) are canonical; the two
    central parameters are the bijective reparameterizations

        delta_c = delta / (delta * gamma_hat + 1/N)     in (0, 1/gamma_hat)
        beta_c  = beta / (1 + beta * (alpha + gamma_hat/N))
                                                        in (0, 1/(alpha + gamma_hat/N))
    """

    gamma: np.ndarray
    alpha: float
    beta: float
    delta: float

    def __post_init__(self):
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=np.float64))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "delta", float(self.delta))
        raw = np.append(gamma, [self.alpha, self.beta, self.delta])
        if not np.all((raw > 0) & (raw < np.inf)):
            raise InvalidStepSizes("all raw step sizes must be positive and finite")

    @property
    def N(self) -> int:
        return self.gamma.shape[0]

    @cached_property
    def gamma_hat(self) -> float:
        return float(self.gamma.mean())

    @cached_property
    def delta_c(self) -> float:
        return self.delta / (self.delta * self.gamma_hat + 1.0 / self.N)

    @cached_property
    def beta_c(self) -> float:
        return self.beta / (1.0 + self.beta * (self.alpha + self.gamma_hat / self.N))

    @classmethod
    def from_central(cls, gamma, alpha: float, delta_c: float, beta_c: float) -> "StepSizes":
        """Invert the central parameterization; open intervals are enforced."""
        gamma = np.atleast_1d(np.asarray(gamma, dtype=np.float64))
        if np.any(gamma <= 0) or alpha <= 0:
            raise InvalidStepSizes("gamma and alpha must be positive")
        N = gamma.shape[0]
        gamma_hat = float(gamma.mean())
        if not 0.0 < delta_c < 1.0 / gamma_hat:
            raise InvalidStepSizes(
                f"delta_c must lie in (0, {1.0 / gamma_hat:.6g}), got {delta_c:.6g}"
            )
        beta_bound = 1.0 / (alpha + gamma_hat / N)
        if not 0.0 < beta_c < beta_bound:
            raise InvalidStepSizes(f"beta_c must lie in (0, {beta_bound:.6g}), got {beta_c:.6g}")
        delta = delta_c / (N * (1.0 - delta_c * gamma_hat))
        beta = beta_c / (1.0 - beta_c * (alpha + gamma_hat / N))
        return cls(gamma=gamma, alpha=alpha, beta=beta, delta=delta)

    def gamma_inv_inner(self, u: ExtendedPoint, v: ExtendedPoint) -> float:
        """Inner product weighted by the inverse preconditioner."""
        gamma = self.gamma[:, None]
        return (
            float(np.vdot(u.x / gamma, v.x))
            + float(np.vdot(u.y / gamma, v.y))
            + float(u.sigma @ v.sigma) / self.alpha
            + float(u.mu @ v.mu) / self.beta
            + float(u.lam @ v.lam) / self.delta
        )

    def gamma_inv_norm(self, u: ExtendedPoint) -> float:
        return float(np.sqrt(max(self.gamma_inv_inner(u, u), 0.0)))


def local_prox(
    game: GameSpec,
    sigma: np.ndarray,
    linear: np.ndarray,
    center: np.ndarray,
    gamma: np.ndarray,
    tol: float = DEFAULT_PROX_TOL,
) -> np.ndarray:
    """The subproblems of :func:`decoupled_prox`, in the metric read from
    ``game``, as (N, n) rows; every gamma_i must be positive.

    The ``closed`` rows (a quadratic cost and a diagonal metric) take the
    closed form of :func:`batched_quadratic_prox`.  All other rows are solved
    together by one lock-step accelerated projected-gradient solve, each
    stopping at the requested natural-residual tolerance; every row equals
    its own one-row solve bit for bit.
    """
    if not np.all(gamma > 0):
        raise InvalidStepSizes("prox step sizes gamma_i must be positive")
    diag = game.unit_diag / gamma[:, None]
    X = np.empty(center.shape)
    rows = np.flatnonzero(game.closed)
    if rows.size:
        X[rows] = batched_quadratic_prox(game.take(rows), sigma, linear[rows], center[rows], diag[rows])
    rows = np.flatnonzero(~game.closed)
    if not rows.size:
        return X
    part, linear, center, diag = game.take(rows), linear[rows], center[rows], diag[rows]
    lo, hi = diag.min(axis=1), diag.max(axis=1)
    dense = np.searchsorted(rows, game.dense_rows)  # every dense row is iterative
    metric = game.unit_dense / gamma[game.dense_rows, None, None]
    if dense.size:
        ends = np.linalg.eigvalsh(0.5 * (metric + np.swapaxes(metric, 1, 2)))
        lo[dense], hi[dense] = ends[:, 0], ends[:, -1]

    def grad(Z: np.ndarray) -> np.ndarray:
        D = Z - center
        metric_D = diag * D
        if dense.size:
            metric_D[dense] = (metric @ D[dense, :, None])[..., 0]
        return part.grad(Z, sigma) + linear + metric_D

    X[rows] = fista_minimize(
        grad,
        part.project_each,
        center,
        lipschitz=part.curvature + hi,
        strong_convexity=part.strong_convexity + lo,
        tol=tol,
    )
    return X


def batched_quadratic_prox(
    game: GameSpec,
    sigma: np.ndarray,
    linear: np.ndarray,
    center: np.ndarray,
    metric_diag: np.ndarray,
) -> np.ndarray:
    """The closed-form prox of every row of a quadratic ``game`` in a diagonal
    metric: one weighted projection of the unconstrained minimizer, warm-started
    from ``center``."""
    a = game.a[:, None]
    weights = a + metric_diag
    V = (a * game.xtilde + metric_diag * center - game.Q @ sigma - linear) / weights
    return game.project_each(V, weights, guess=center)


def decoupled_prox(
    game: GameSpec,
    sigma: np.ndarray,
    linear: np.ndarray,
    center: np.ndarray,
    gamma: np.ndarray,
    tol: float = DEFAULT_PROX_TOL,
) -> np.ndarray:
    """The proximal subproblems of the decoupled half, row i for agent i of ``game``.

    Row i minimizes over agent i's local set
        f_i(z, sigma) + linear_i' z
        + ||z - center_i||^2 in the metric (I + A_i' A_i) / (2 gamma_i).
    A closed-form set of agents takes :func:`batched_quadratic_prox` on
    every row; any other takes one :func:`local_prox` call.
    """
    if game.closed_form:
        return batched_quadratic_prox(game, sigma, linear, center, game.unit_diag / gamma[:, None])
    return local_prox(game, sigma, linear, center, gamma, tol)


def resolvent_A(
    game: GameSpec, steps: StepSizes, w: ExtendedPoint, tol: float = DEFAULT_PROX_TOL
) -> ExtendedPoint:
    """Resolvent of the decoupled half under the preconditioner.

    Per agent:
        x_i+ = argmin over the local set of
               f_i(v, sigma) + ||v - x_i||^2 / (2 gamma_i)
                             + ||A_i v - b_i - y_i||^2 / (2 gamma_i)
        y_i+ = A_i x_i+ - b_i
    The aggregate and multiplier blocks pass through unchanged.
    """
    w.check_dims(game.dims)
    linear = game.adjoint(game.link_values(w.x) - w.y) / steps.gamma[:, None]
    X_new = decoupled_prox(game, w.sigma, linear, w.x, steps.gamma, tol)
    return ExtendedPoint(
        x=X_new,
        y=game.link_values(X_new),
        sigma=w.sigma.copy(),
        mu=w.mu.copy(),
        lam=w.lam.copy(),
    )


def resolvent_B(dims, steps: StepSizes, w: ExtendedPoint) -> ExtendedPoint:
    """Closed-form resolvent of the coupling half under the preconditioner.

    The multiplier rescalings are scalar because the stacked sum map P
    satisfies P P' = N I; the positive-orthant projection is applied after
    the rescaling.
    """
    w.check_dims(dims)
    N = dims.N
    gamma = steps.gamma[:, None]
    gamma_hat = steps.gamma_hat
    avg_x = w.x.mean(axis=0)
    sum_y = w.y.sum(axis=0)

    mu_scale = N / ((1.0 + steps.beta * steps.alpha) * N + steps.beta * gamma_hat)
    mu_new = mu_scale * (w.mu + steps.beta * (w.sigma - avg_x))
    lam_new = np.maximum(
        (w.lam + steps.delta * sum_y) / (1.0 + steps.delta * N * gamma_hat), 0.0
    )
    return ExtendedPoint(
        x=w.x + gamma * (mu_new / N),
        y=w.y - gamma * lam_new,
        sigma=w.sigma - steps.alpha * mu_new,
        mu=mu_new,
        lam=lam_new,
    )


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
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidStepSizes
from .game import AgentSpec, BoxSimplex, GameSpec, LocalSet, QuadraticAgg
from .operators import ExtendedPoint
from .projections import fista_minimize, project_box_simplex_batch

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
        if np.any(gamma <= 0) or self.alpha <= 0 or self.beta <= 0 or self.delta <= 0:
            raise InvalidStepSizes("all raw step sizes must be positive")

    @property
    def N(self) -> int:
        return self.gamma.shape[0]

    @property
    def gamma_hat(self) -> float:
        return float(self.gamma.mean())

    @property
    def delta_c(self) -> float:
        return self.delta / (self.delta * self.gamma_hat + 1.0 / self.N)

    @property
    def beta_c(self) -> float:
        return self.beta / (1.0 + self.beta * (self.alpha + self.gamma_hat / self.N))

    @classmethod
    def from_raw(cls, gamma, alpha: float, beta: float, delta: float) -> "StepSizes":
        return cls(gamma=np.asarray(gamma, dtype=np.float64), alpha=alpha, beta=beta, delta=delta)

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
        n = u.sigma.shape[0]
        m = u.lam.shape[0]
        gx = np.repeat(self.gamma, n)
        gy = np.repeat(self.gamma, m)
        return (
            float((u.x / gx) @ v.x)
            + float((u.y / gy) @ v.y)
            + float(u.sigma @ v.sigma) / self.alpha
            + float(u.mu @ v.mu) / self.beta
            + float(u.lam @ v.lam) / self.delta
        )

    def gamma_inv_norm(self, u: ExtendedPoint) -> float:
        return float(np.sqrt(max(self.gamma_inv_inner(u, u), 0.0)))


@dataclass
class ProxProblem:
    """B agents' proximal subproblems, one per row.

    Row r minimizes over its agent's local set
        f(z, sigma) + linear_r' z + 0.5 (z - center_r)' metric_r (z - center_r)

    ``linear`` and ``center`` are (B, n) and ``sigma`` is shared.  ``metric``
    holds the B row metrics: a (B, n) array of diagonals, a (B, n, n) array
    of dense SPD matrices, or a length-B sequence mixing 1-D diagonals and
    2-D matrices.
    """

    sigma: np.ndarray
    linear: np.ndarray
    center: np.ndarray
    metric: np.ndarray | Sequence[np.ndarray]
    tolerance: float = DEFAULT_PROX_TOL

    @property
    def metric_is_diagonal(self) -> np.ndarray:
        """(B,) flags: which rows carry a diagonal metric."""
        if isinstance(self.metric, np.ndarray):
            return np.full(self.metric.shape[0], self.metric.ndim == 2)
        return np.array([np.ndim(m) == 1 for m in self.metric])

    def metric_rows(self, rows: np.ndarray) -> np.ndarray:
        """The metrics of ``rows`` (all diagonal or all dense), stacked."""
        if isinstance(self.metric, np.ndarray):
            return self.metric[rows]
        return np.stack([self.metric[r] for r in rows])

    def metric_range(self) -> tuple[np.ndarray, np.ndarray]:
        """(B,) smallest and largest eigenvalue of every row's metric."""
        diag = self.metric_is_diagonal
        lo, hi = np.empty(diag.shape), np.empty(diag.shape)
        for rows in (np.flatnonzero(diag), np.flatnonzero(~diag)):
            if rows.size:
                M = self.metric_rows(rows)
                ends = M if M.ndim == 2 else np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, 1, 2)))
                lo[rows], hi[rows] = ends.min(axis=1), ends.max(axis=1)
        return lo, hi


def _row_projector(sets: Sequence[LocalSet]) -> Callable[..., np.ndarray]:
    """Projector of (B, n) rows, row r onto ``sets[r]`` in the diagonal metric
    of row r of ``weights`` (Euclidean when omitted): one batched kernel call
    when every set is a box-simplex, else one oracle call per row."""
    if all(isinstance(omega, BoxSimplex) for omega in sets):
        upper = np.stack([omega.upper for omega in sets])
        total = np.array([omega.total for omega in sets])
        return lambda V, weights=None: project_box_simplex_batch(V, upper, total, weights)

    def project(V: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        W = [None] * len(sets) if weights is None else weights
        return np.stack([omega.project(v, w) for omega, v, w in zip(sets, V, W)])

    return project


def local_prox(agents: Sequence[AgentSpec], p: ProxProblem) -> np.ndarray:
    """Solve the proximal subproblems of ``p``, row r for ``agents[r]``, as (B, n) rows.

    A row with a quadratic cost and a diagonal metric reduces to one
    weighted box-simplex projection.  All other rows are solved together
    by one lock-step accelerated projected-gradient solve, each stopping at
    the requested natural-residual tolerance; every row equals its own
    one-row solve bit for bit.
    """
    lo, hi = p.metric_range()
    if np.any(lo <= 0):
        raise InvalidStepSizes("prox metric must be positive definite in every row")
    closed = p.metric_is_diagonal & np.array([isinstance(a.cost, QuadraticAgg) for a in agents])
    X = np.empty(p.center.shape)
    rows = np.flatnonzero(closed)
    if rows.size:
        costs = [agents[r].cost for r in rows]
        a = np.array([cost.a for cost in costs])[:, None]
        xtilde = np.stack([cost.xtilde for cost in costs])
        Q = np.stack([cost.Q for cost in costs])
        d = p.metric_rows(rows)
        weights = a + d
        V = (a * xtilde + d * p.center[rows] - Q @ p.sigma - p.linear[rows]) / weights
        X[rows] = _row_projector([agents[r].omega for r in rows])(V, weights)
    rows = np.flatnonzero(~closed)
    if rows.size:
        X[rows] = _lockstep_prox(agents, p, rows, lo[rows], hi[rows])
    return X


def _lockstep_prox(
    agents: Sequence[AgentSpec], p: ProxProblem, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """The iterative rows of :func:`local_prox`: one lock-step ``fista_minimize``."""
    costs = [agents[r].cost for r in rows]
    linear, center = p.linear[rows], p.center[rows]
    is_diag = p.metric_is_diagonal[rows]
    diag = np.zeros(center.shape)  # zero on dense rows, whose products are overwritten
    if is_diag.any():
        diag[is_diag] = p.metric_rows(rows[is_diag])
    dense = np.flatnonzero(~is_diag)
    M = p.metric_rows(rows[dense]) if dense.size else None

    def grad(Z: np.ndarray) -> np.ndarray:
        D = Z - center
        metric_D = diag * D
        if dense.size:
            metric_D[dense] = (M @ D[dense, :, None])[..., 0]
        oracle = np.stack([cost.grad(z, p.sigma) for cost, z in zip(costs, Z)])
        return oracle + linear + metric_D

    curvature = np.array([getattr(cost, "curvature", 1.0) for cost in costs], dtype=np.float64)
    strong = np.array([getattr(cost, "strong_convexity", 0.0) for cost in costs], dtype=np.float64)
    return fista_minimize(
        grad,
        _row_projector([agents[r].omega for r in rows]),
        center,
        lipschitz=curvature + hi,
        strong_convexity=strong + lo,
        tol=p.tolerance,
    )


def batch_prox_eligible(game: GameSpec) -> bool:
    """True when every agent admits the vectorized projection fast path."""
    return game.all_quadratic and game.all_box_simplex and game.stacks.unit_metrics is not None


def batched_quadratic_prox(
    game: GameSpec,
    sigma: np.ndarray,
    linear: np.ndarray,
    center: np.ndarray,
    metric_diag: np.ndarray,
) -> np.ndarray:
    """All agents' fast-path prox solves at once; bit-identical to :func:`local_prox` per row."""
    st = game.stacks
    a = st.a[:, None]
    weights = a + metric_diag
    v = (a * st.xtilde + metric_diag * center - st.Q @ sigma - linear) / weights
    return project_box_simplex_batch(v, st.upper, st.total, weights)


def decoupled_prox(
    game: GameSpec,
    sigma: np.ndarray,
    linear: np.ndarray,
    center: np.ndarray,
    gamma: np.ndarray,
    tol: float = DEFAULT_PROX_TOL,
) -> np.ndarray:
    """All agents' proximal subproblems of the decoupled half, as (N, n) rows.

    Row i minimizes over agent i's local set
        f_i(z, sigma) + linear_i' z
        + ||z - center_i||^2 in the metric (I + A_i' A_i) / (2 gamma_i).
    Games that admit the fast path for every agent take one batched closed
    form; otherwise one :func:`local_prox` call solves all N rows, each in
    its agent's own diagonal or dense metric.
    """
    unit = game.stacks.unit_metrics
    if batch_prox_eligible(game):
        return batched_quadratic_prox(game, sigma, linear, center, unit / gamma[:, None])
    if unit is None:  # some A_i' A_i is dense
        metric = [agent.unit_metric / g for agent, g in zip(game.agents, gamma)]
    else:
        metric = unit / gamma[:, None]
    return local_prox(game.agents, ProxProblem(sigma, linear, center, metric, tol))


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
    dims = game.dims
    w.check_dims(dims)
    X = w.x_blocks(dims.n)
    Y = w.y_blocks(dims.m)
    gamma = steps.gamma[:, None]
    linear = np.einsum("imn,im->in", game.A_stack, game.link_values(X) - Y) / gamma
    X_new = decoupled_prox(game, w.sigma, linear, X, steps.gamma, tol)
    return ExtendedPoint(
        x=X_new.ravel(),
        y=game.link_values(X_new).ravel(),
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
    X = w.x_blocks(dims.n)
    Y = w.y_blocks(dims.m)
    avg_x = X.mean(axis=0)
    sum_y = Y.sum(axis=0)

    mu_scale = N / ((1.0 + steps.beta * steps.alpha) * N + steps.beta * gamma_hat)
    mu_new = mu_scale * (w.mu + steps.beta * (w.sigma - avg_x))
    lam_new = np.maximum(
        (w.lam + steps.delta * sum_y) / (1.0 + steps.delta * N * gamma_hat), 0.0
    )
    X_new = X + gamma * (mu_new / N)
    Y_new = Y - gamma * lam_new
    sigma_new = w.sigma - steps.alpha * mu_new
    return ExtendedPoint(
        x=X_new.ravel(), y=Y_new.ravel(), sigma=sigma_new, mu=mu_new, lam=lam_new
    )


def reflect(J: Callable[[ExtendedPoint], ExtendedPoint], w: ExtendedPoint) -> ExtendedPoint:
    """Reflected resolvent 2 J(w) - w."""
    return 2.0 * J(w) - w

"""Solver engine: semi-decentralized rounds, the raw splitting oracle, baseline.

The solver runs communication rounds between agents and a central
coordinator.  Per round each agent solves one proximal subproblem
against the last broadcast, the agents' updates reach the coordinator
only as two averages (an n-vector and an m-vector), and the coordinator
answers with the updated multipliers and its aggregate estimate.  At any
constant relaxation these rounds are algebraically identical to the relaxed
reflected-resolvent iteration on the extended space, kept only to verify them.

Derived state correspondence used throughout (established analytically
and enforced by the trajectory-equivalence verification suite): the
round-based iterate x^k equals the raw iteration's first-resolvent
output from round k-1, its central variables equal the raw full-step
values, and both start from the rounds' initial point
(x^0, y^0, sigma^0, 0, 0), since lam^0 = 0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, Infeasible, InvalidStepSizes, MaxItersExceeded
from .game import GameSpec, coupling_violation, validate_game
from .operators import ExtendedPoint, KktResidual, kkt_residual
from .resolvents import (
    DEFAULT_PROX_TOL,
    StepSizes,
    decoupled_prox,
    resolvent_A,
    resolvent_B,
)

GATE_FACTOR = 10.0  # terminal optimality residuals must be within this factor of stop_tol
GATE_RECHECK = 25  # rounds between gate re-evaluations after a failed gate; also the stall window


# -- message and state types -----------------------------------------------------------


@dataclass
class AgentState:
    """One agent's local iterate; the link block always satisfies y = A x - b."""

    x: np.ndarray
    y: np.ndarray


@dataclass
class CoordinatorState:
    """Coordinator iterate, the lagged aggregates of the extrapolation, the relaxation offsets."""

    sigma: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    prev_xhat: np.ndarray
    prev_yhat: np.ndarray
    relaxation: float = 1.0
    s: np.ndarray | float = 0.0  # the offsets start at zero, and stay there at relaxation 1
    c_x: np.ndarray | float = 0.0
    c_y: np.ndarray | float = 0.0


@dataclass(frozen=True)
class AggregateMessage:
    """Uplink payload: exactly n + m numbers of agent-originated data."""

    xhat: np.ndarray
    yhat: np.ndarray


@dataclass(frozen=True)
class BroadcastMessage:
    """Downlink payload: multipliers and the coordinator's aggregate estimate."""

    lam: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray


@dataclass
class RunConfig:
    """Solver run parameters.

    ``stop_tol`` applies to the stopping metric
    max(step norm in the inverse-preconditioner geometry, consensus gap,
    coupling violation); on top of it the terminal optimality residuals
    are required to be within ``GATE_FACTOR * stop_tol``.  A run whose
    stopping metric stalls above ``stop_tol`` while that gate passes ends
    with ``stop_reason="stalled"``; one stalled above the gate as well
    ends unconverged with ``stop_reason="floor"``, or ``"diverged"`` when its
    optimality residual there is no lower than at round 0 or when a round's
    stopping metric or optimality residual is not finite.  ``stop_tol`` must
    be a positive finite number, so that every run can meet its gate.
    """

    steps: StepSizes
    relaxation: float = 1.0
    max_iters: int = 100_000
    stop_tol: float = 1e-8
    record_every: int = 1
    prox_tol: float = DEFAULT_PROX_TOL

    def __post_init__(self):
        if not 0.0 < self.relaxation < 2.0:
            raise InvalidStepSizes("relaxation must lie in (0, 2)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0.0 < self.stop_tol < np.inf:
            raise ValueError("stop_tol must be a positive finite number")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if not 0.0 < self.prox_tol < np.inf:
            raise ValueError("prox_tol must be a positive finite number")


@dataclass
class TraceRow:
    iter: int
    kkt: KktResidual
    step_norm: float
    wall_nanos: int


CSV_HEADER = "iter,stationarity,primal,complementarity,consensus,link,step_norm,wall_nanos"


def _fmt(v: float) -> str:
    return f"{v:.17g}"


@dataclass
class RunTrace:
    """Recorded metrics of one solver run plus the terminal state."""

    method: str
    rows: list[TraceRow] = field(default_factory=list)
    final_point: ExtendedPoint | None = None
    final_kkt: KktResidual | None = None
    converged: bool = False
    iterations: int = 0
    stop_reason: str = ""

    def to_csv(self, include_wall: bool = True) -> str:
        header = CSV_HEADER if include_wall else CSV_HEADER.rsplit(",", 1)[0]
        lines = [header]
        for r in self.rows:
            cells = [
                str(r.iter),
                _fmt(r.kkt.stationarity),
                _fmt(r.kkt.primal),
                _fmt(r.kkt.complementarity),
                _fmt(r.kkt.consensus),
                _fmt(r.kkt.link),
                _fmt(r.step_norm),
            ]
            if include_wall:
                cells.append(str(r.wall_nanos))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "converged": self.converged,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "final_kkt": None if self.final_kkt is None else self.final_kkt.to_dict(),
        }


# -- initialization and the two update operations --------------------------------------


def dr_init(game: GameSpec, config: RunConfig) -> tuple[np.ndarray, np.ndarray, CoordinatorState]:
    """The initial (N, n) decisions, their (N, m) links and the coordinator state.

    Each agent starts at the projection of the origin onto its local set,
    links are recomputed, the coordinator seeds its aggregate estimate with
    the initial average and both multipliers at zero.  The decisions are a
    fresh writable array.
    """
    dims = game.dims
    if config.steps.N != dims.N:
        raise InvalidStepSizes("per-agent step-size count differs from N")
    X = game.default_points.copy()
    Y = game.link_values(X)
    coord = CoordinatorState(
        sigma=X.mean(axis=0),
        mu=np.zeros(dims.n),
        lam=np.zeros(dims.m),
        prev_xhat=X.mean(axis=0),
        prev_yhat=Y.mean(axis=0),
        relaxation=config.relaxation,
    )
    return X, Y, coord


def agent_update(
    game: GameSpec,
    i: int,
    state: AgentState,
    bcast: BroadcastMessage,
    gamma_i: float,
    tol: float = DEFAULT_PROX_TOL,
) -> AgentState:
    """Agent ``i``'s row of a unit-relaxation round's decoupled-half prox.

    minimize over the local set:
        f_i(z, sigma) + (A_i' lam - mu / N)' z
        + ||z - x_i||^2 in the metric (I + A_i' A_i) / (2 gamma_i)
    then recompute the link block.  :meth:`DrEngine.step` solves all rows
    at once through :func:`decoupled_prox`; this is the message-passing
    view of one of them, the same call on the one-row game ``game.take([i])``.
    """
    if np.any(bcast.lam < 0):
        raise ValueError("broadcast coupling multiplier must be nonnegative")
    if not gamma_i > 0:
        raise InvalidStepSizes("gamma_i must be positive")
    one, gamma = game.take(np.array([i])), np.array([gamma_i], dtype=np.float64)
    linear = one.adjoint(bcast.lam) - bcast.mu / game.dims.N
    X_new = decoupled_prox(one, bcast.sigma, linear, state.x[None], gamma, tol)
    return AgentState(x=X_new[0], y=one.link_values(X_new)[0])


def coordinator_update(
    coord: CoordinatorState, agg: AggregateMessage, steps: StepSizes
) -> tuple[CoordinatorState, BroadcastMessage]:
    """Central multiplier and aggregate-estimate updates from averages only.

        lam+   = proj_{>=0}(lam + delta_c (2 yhat_new - yhat_old + c_y))
        mu+    = mu - beta_c (2 xhat_new - xhat_old - sigma + alpha mu - c_x)
        sigma+ = (sigma + s) - alpha mu+
    then the relaxation offsets move by k = 1 - relaxation, and sigma+ + s+ is broadcast:
        s+   = k alpha mu+
        c_x+ = k (xhat_new - sigma+ + alpha mu+)
        c_y+ = k (c_y + yhat_new - yhat_old + (lam - lam+) / delta_c)
    """
    if agg.xhat.shape != coord.sigma.shape or agg.yhat.shape != coord.lam.shape:
        raise DimensionMismatch("aggregate message has the wrong block sizes")
    k, delta_c, alpha = 1.0 - coord.relaxation, steps.delta_c, steps.alpha
    lam_new = np.maximum(coord.lam + delta_c * (2.0 * agg.yhat - coord.prev_yhat + coord.c_y), 0.0)
    mu_new = coord.mu - steps.beta_c * (
        2.0 * agg.xhat - coord.prev_xhat - coord.sigma + alpha * coord.mu - coord.c_x
    )
    sigma_new = (coord.sigma + coord.s) - alpha * mu_new
    new_coord = CoordinatorState(
        sigma=sigma_new,
        mu=mu_new,
        lam=lam_new,
        prev_xhat=agg.xhat.copy(),
        prev_yhat=agg.yhat.copy(),
        relaxation=coord.relaxation,
    )
    if k != 0.0:  # the offsets stay exact zeros at unit relaxation; skip their arithmetic there
        new_coord.s = k * alpha * mu_new
        new_coord.c_x = k * (agg.xhat - sigma_new + alpha * mu_new)
        new_coord.c_y = k * (coord.c_y + agg.yhat - coord.prev_yhat + (coord.lam - lam_new) / delta_c)
    return new_coord, BroadcastMessage(lam=lam_new, mu=mu_new, sigma=sigma_new + new_coord.s)


# -- engine (round-based, any constant relaxation) --------------------------------------


class DrEngine:
    """Round-based engine: parallel agent proxes, aggregation, central update.

    The coordinator code path receives nothing but an
    :class:`AggregateMessage`; per-agent data never crosses that boundary.
    Agent i relaxes through the offsets D_i = x~_i - x_i - gamma_i mu / N and
    F_i = y_i - gamma_i lam - y~_i of the raw iterate w~ from the round's image.
    """

    def __init__(self, game: GameSpec, config: RunConfig):
        self.game = game
        self.config = config
        self.X, self.Y, self.coord = dr_init(game, config)
        self.D, self.F = np.zeros_like(self.X), np.zeros_like(self.Y)
        self.bcast = BroadcastMessage(lam=self.coord.lam, mu=self.coord.mu, sigma=self.coord.sigma)

    def point(self) -> ExtendedPoint:
        return ExtendedPoint(
            x=self.X.copy(),
            y=self.Y.copy(),
            sigma=self.coord.sigma.copy(),
            mu=self.coord.mu.copy(),
            lam=self.coord.lam.copy(),
        )

    def step(self) -> None:
        game, steps, bcast, coord = self.game, self.config.steps, self.bcast, self.coord
        N, k = game.dims.N, 1.0 - self.config.relaxation
        gamma = steps.gamma[:, None]
        linear = game.adjoint(bcast.lam) - bcast.mu / N
        # the offsets are exact zeros at unit relaxation; skip their (N, .) arithmetic there
        if k != 0.0:
            linear += (game.adjoint(self.F) - self.D) / gamma
        X_new = decoupled_prox(game, bcast.sigma, linear, self.X, steps.gamma, self.config.prox_tol)
        Y_new = game.link_values(X_new)
        agg = AggregateMessage(xhat=X_new.mean(axis=0), yhat=Y_new.mean(axis=0))
        self.coord, self.bcast = coordinator_update(coord, agg, steps)
        if k != 0.0:
            self.D = k * (self.D + self.X - X_new + gamma * (coord.mu - self.coord.mu) / N)
            self.F = k * (self.F + Y_new - self.Y + gamma * (coord.lam - self.coord.lam))
        self.X, self.Y = X_new, Y_new


# -- raw reflected-resolvent iteration (the verification oracle) -------------------------


class RawStep(NamedTuple):
    half: ExtendedPoint
    full: ExtendedPoint
    tilde: ExtendedPoint


def raw_dr_step(
    w_tilde: ExtendedPoint,
    game: GameSpec,
    steps: StepSizes,
    relaxation: float = 1.0,
    prox_tol: float = DEFAULT_PROX_TOL,
) -> RawStep:
    """One raw iteration, the verification oracle of the rounds: resolve, reflect, resolve, relax.

        half  = J_A(w~)
        full  = J_B(2 half - w~)
        w~+   = w~ + relaxation * (full - half)
    """
    half = resolvent_A(game, steps, w_tilde, tol=prox_tol)
    full = resolvent_B(game.dims, steps, 2.0 * half - w_tilde)
    tilde = w_tilde + relaxation * (full - half)
    return RawStep(half=half, full=full, tilde=tilde)


# -- shared run loop ---------------------------------------------------------------------


def _require_valid(game: GameSpec) -> None:
    """Raise :class:`Infeasible` unless the game passes :func:`validate_game`."""
    report = validate_game(game)
    if not report.ok:
        raise Infeasible("game failed validation before the run:\n" + report.summary())


def _run_loop(engine, config: RunConfig, method: str) -> RunTrace:
    """Step ``engine`` until the stopping metric and the optimality gate pass.

    A run whose stopping metric has set no new low for ``GATE_RECHECK``
    rounds has reached its numerical floor; it ends ``"stalled"`` if the
    optimality gate passes there, and otherwise looks again after another
    such window; a failed look whose KKT residual is no lower than at the
    previous failed look ends the run unconverged: ``"diverged"`` when that
    residual is no lower than at round 0, else ``"floor"``.  A round whose
    stopping-metric terms, or whose KKT residual where the round computed
    one, are not finite ends the run ``"diverged"`` at once.  Otherwise the
    run ends at its round budget, ``"max_iters"``.
    """
    game, steps = engine.game, config.steps
    t0 = time.perf_counter_ns()
    trace = RunTrace(method=method)
    point = engine.point()

    def record(k: int, step_norm: float, kkt: KktResidual) -> None:
        trace.rows.append(
            TraceRow(
                iter=k,
                kkt=kkt,
                step_norm=step_norm,
                wall_nanos=time.perf_counter_ns() - t0,
            )
        )

    record(0, 0.0, kkt_residual(game, point))

    reason = "max_iters"
    gate_block_until = 0
    best_cheap, window_start, floor_kkt = np.inf, 0, np.inf
    k = 0
    step_plain = 0.0
    for k in range(1, config.max_iters + 1):
        prev = point
        engine.step()
        point = engine.point()
        diff = point - prev
        step_gamma = steps.gamma_inv_norm(diff)
        step_plain = diff.norm()
        kkt = None

        consensus = float(np.max(np.abs(point.sigma - point.x.mean(axis=0))))
        primal = float(np.max(coupling_violation(game, point.x), initial=0.0))
        if not all(map(math.isfinite, (step_gamma, consensus, primal))):
            reason = "diverged"
            break
        cheap = max(step_gamma, consensus, primal)

        if cheap <= config.stop_tol and k >= gate_block_until:
            kkt = kkt_residual(game, point)
            if kkt.max_value() <= GATE_FACTOR * config.stop_tol:
                reason = "stop_tol"
                break
            gate_block_until = k + GATE_RECHECK
        if cheap < best_cheap:
            best_cheap, window_start = cheap, k
        elif k - window_start >= GATE_RECHECK:
            if kkt is None:
                kkt = kkt_residual(game, point)
            if kkt.max_value() <= GATE_FACTOR * config.stop_tol:
                reason = "stalled"
                break
            if kkt.max_value() >= floor_kkt:
                reason = "diverged" if kkt.max_value() >= trace.rows[0].kkt.max_value() else "floor"
                break
            floor_kkt, window_start = kkt.max_value(), k
        if k % config.record_every == 0:
            if kkt is None:
                kkt = kkt_residual(game, point)
            record(k, step_plain, kkt)
        if kkt is not None and not math.isfinite(kkt.max_value()):
            reason = "diverged"
            break

    if trace.rows[-1].iter != k:  # each stop breaks before its row; a budget stop may have recorded it
        record(k, step_plain, kkt_residual(game, point) if kkt is None else kkt)

    trace.final_point = point
    trace.final_kkt = trace.rows[-1].kkt
    trace.converged = reason in ("stop_tol", "stalled")  # the others raise
    trace.iterations = k
    trace.stop_reason = reason
    if not trace.converged:
        raise MaxItersExceeded(trace)
    return trace


def run_dr(
    game: GameSpec,
    config: RunConfig,
    validate: bool = True,
) -> RunTrace:
    """Run the splitting to convergence and return the full trace.

    Every constant relaxation runs the rounds of :class:`DrEngine`, whose
    coordinator sees only the two averages of the uplink.
    """
    if validate:
        _require_valid(game)
    return _run_loop(DrEngine(game, config), config, "dr")


# -- projected pseudo-gradient baseline --------------------------------------------------


def pfb_step_sizes(game: GameSpec) -> tuple[np.ndarray, float]:
    """Documented diagonal-dominance step-size rule for the baseline.

    tau_lam = 0.4 / ||A||^2 and per agent tau_i = 0.4 / L_i with
    L_i = curvature_i + ||Q_i|| / N + ||A_i||^2, the last term a margin
    for the coupling through the multiplier.
    """
    N = game.dims.N
    tau_lam = 0.4 / max(game.coupling_norm**2, 1e-12)
    coupling = np.zeros(N)
    coupling[game.quadratic] = game.Q_norms / N
    # float_power calls C pow, as a Python float's ** does; ** on an array squares,
    # which can round differently in the last bit
    L = game.curvature + coupling + np.float_power(game.A_norms, 2)
    return 0.4 / L, tau_lam


class PfbEngine:
    """The baseline's decisions and multiplier behind ``step`` and ``point``, as in :class:`DrEngine`."""

    def __init__(self, game: GameSpec, config: RunConfig):
        self.game = game
        self.X, _, coord = dr_init(game, config)
        self.lam = coord.lam.copy()
        self.tau, self.tau_lam = pfb_step_sizes(game)

    def point(self) -> ExtendedPoint:
        return ExtendedPoint(
            x=self.X.copy(),
            y=self.game.link_values(self.X),
            sigma=self.X.mean(axis=0),
            mu=np.zeros(self.game.dims.n),
            lam=self.lam.copy(),
        )

    def step(self) -> None:
        game, X, lam = self.game, self.X, self.lam
        grad = game.grad(X, X.mean(axis=0)) + game.adjoint(lam)
        self.X = game.project_each(X - self.tau[:, None] * grad, guess=X)
        resid = game.coupling_value(2.0 * self.X - X) - game.b_total
        self.lam = np.maximum(lam + self.tau_lam * resid, 0.0)


def run_pfb(
    game: GameSpec,
    config: RunConfig,
    validate: bool = True,
) -> RunTrace:
    """Projected pseudo-gradient baseline with an extrapolated dual update.

        x_i+ = proj(x_i - tau_i (grad_i(x_i, xhat) + A_i' lam))
        lam+ = proj_{>=0}(lam + tau_lam (A (2 x+ - x) - b))
    """
    if config.relaxation != 1.0:
        raise InvalidStepSizes("the pfb baseline runs unrelaxed; relaxation must be 1")
    if validate:
        _require_valid(game)
    return _run_loop(PfbEngine(game, config), config, "pfb")

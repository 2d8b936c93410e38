"""Solver engine: semi-decentralized rounds, raw splitting iteration, baseline.

The default mode runs communication rounds between agents and a central
coordinator.  Per round each agent solves one proximal subproblem
against the last broadcast, the agents' updates reach the coordinator
only as two averages (an n-vector and an m-vector), and the coordinator
answers with the updated multipliers and its aggregate estimate.  With
unit relaxation these rounds are algebraically identical to the
reflected-resolvent iteration on the extended space; for other constant
relaxations the engine runs that raw iteration directly.

Derived state correspondence used throughout (established analytically
and enforced by the trajectory-equivalence verification suite): the
round-based iterate x^k equals the raw iteration's first-resolvent
output from round k-1, its central variables equal the raw full-step
values, and the raw iteration starts from
(x^0, y^0 - gamma_i * lam^0 per block, sigma^0, 0, lam^0).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, Infeasible, InvalidStepSizes, MaxItersExceeded
from .game import AgentStacks, GameSpec, validate_game
from .operators import ExtendedPoint, KktResidual, extended_subdifferential, kkt_residual
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
    """Coordinator iterate plus the lagged aggregates needed by the extrapolation."""

    sigma: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    prev_xhat: np.ndarray
    prev_yhat: np.ndarray


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
    ends unconverged with ``stop_reason="floor"``.
    ``ref_stop``, when set together with a reference point, stops the run
    once ||x - ref|| / ||x0 - ref|| drops below it (comparison runs).
    """

    steps: StepSizes
    relaxation: float = 1.0
    max_iters: int = 100_000
    stop_tol: float = 1e-8
    record_every: int = 1
    prox_tol: float = DEFAULT_PROX_TOL
    ref_stop: float | None = None
    lam0: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.relaxation < 2.0:
            raise InvalidStepSizes("relaxation must lie in (0, 2)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass
class TraceRow:
    iter: int
    dist_to_ref: float | None
    kkt: KktResidual
    step_norm: float
    wall_nanos: int


CSV_HEADER = "iter,dist_to_ref,stationarity,primal,complementarity,consensus,link,step_norm,wall_nanos"


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
    dist_curve: np.ndarray | None = None

    def to_csv(self, include_wall: bool = True) -> str:
        header = CSV_HEADER if include_wall else CSV_HEADER.rsplit(",", 1)[0]
        lines = [header]
        for r in self.rows:
            cells = [
                str(r.iter),
                "" if r.dist_to_ref is None else _fmt(r.dist_to_ref),
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


def dr_init(
    game: GameSpec, config: RunConfig, x0: np.ndarray | None = None
) -> tuple[list[AgentState], CoordinatorState]:
    """Build the initial agent and coordinator states.

    Defaults: each agent starts at the projection of the origin onto its
    local set, links are recomputed, the coordinator seeds its aggregate
    estimate with the initial average and both multipliers at zero (a
    nonnegative lam0 may be supplied through the config).
    """
    dims = game.dims
    steps = config.steps
    if steps.N != dims.N:
        raise InvalidStepSizes("per-agent step-size count differs from N")
    # forces the central parameters back through their admissible intervals
    StepSizes.from_central(steps.gamma, steps.alpha, steps.delta_c, steps.beta_c)

    if x0 is None:
        X = game.default_points()
    else:
        X = np.asarray(x0, dtype=np.float64)
        if X.shape != (dims.N * dims.n,):
            raise DimensionMismatch("x0 must be a stacked vector of length N * n")
        X = X.reshape(dims.N, dims.n)
        fixed = game.project_each(X)
        if not np.allclose(fixed, X, atol=1e-12):
            warnings.warn("x0 was outside the local sets and has been projected")
        X = fixed
    Y = game.link_values(X)

    lam0 = np.zeros(dims.m) if config.lam0 is None else np.asarray(config.lam0, dtype=np.float64)
    if lam0.shape != (dims.m,):
        raise DimensionMismatch("lam0 must have length m")
    if np.any(lam0 < 0):
        raise ValueError("lam0 must be componentwise nonnegative")

    agents = [AgentState(x=X[i].copy(), y=Y[i].copy()) for i in range(dims.N)]
    coord = CoordinatorState(
        sigma=X.mean(axis=0),
        mu=np.zeros(dims.n),
        lam=lam0,
        prev_xhat=X.mean(axis=0),
        prev_yhat=Y.mean(axis=0),
    )
    return agents, coord


def agent_update(
    agent,
    state: AgentState,
    bcast: BroadcastMessage,
    gamma_i: float,
    n_agents: int,
    tol: float = DEFAULT_PROX_TOL,
) -> AgentState:
    """One agent's round: its row of the round's decoupled-half prox.

    minimize over the local set:
        f_i(z, sigma) + (A_i' lam - mu / N)' z
        + ||z - x_i||^2 in the metric (I + A_i' A_i) / (2 gamma_i)
    then recompute the link block.  :meth:`DrEngine.step` solves all rows
    at once through :func:`decoupled_prox`; this is the message-passing
    view of one of them.
    """
    if np.any(bcast.lam < 0):
        raise ValueError("broadcast coupling multiplier must be nonnegative")
    if not gamma_i > 0:
        raise InvalidStepSizes("gamma_i must be positive")
    linear = agent.A.T @ bcast.lam - bcast.mu / n_agents
    stacks, gamma = AgentStacks.of([agent]), np.array([gamma_i], dtype=np.float64)
    X_new = decoupled_prox(stacks, bcast.sigma, linear[None], state.x[None], gamma, tol)
    return AgentState(x=X_new[0], y=stacks.link_values(X_new)[0])


def coordinator_update(
    coord: CoordinatorState, agg: AggregateMessage, steps: StepSizes
) -> tuple[CoordinatorState, BroadcastMessage]:
    """Central multiplier and aggregate-estimate updates from averages only.

        lam+   = proj_{>=0}(lam + delta_c (2 yhat_new - yhat_old))
        mu+    = mu - beta_c (2 xhat_new - xhat_old - sigma + alpha mu)
        sigma+ = sigma - alpha mu+
    """
    if agg.xhat.shape != coord.sigma.shape or agg.yhat.shape != coord.lam.shape:
        raise DimensionMismatch("aggregate message has the wrong block sizes")
    lam_new = np.maximum(coord.lam + steps.delta_c * (2.0 * agg.yhat - coord.prev_yhat), 0.0)
    mu_new = coord.mu - steps.beta_c * (
        2.0 * agg.xhat - coord.prev_xhat - coord.sigma + steps.alpha * coord.mu
    )
    sigma_new = coord.sigma - steps.alpha * mu_new
    new_coord = CoordinatorState(
        sigma=sigma_new,
        mu=mu_new,
        lam=lam_new,
        prev_xhat=agg.xhat.copy(),
        prev_yhat=agg.yhat.copy(),
    )
    return new_coord, BroadcastMessage(lam=lam_new, mu=mu_new, sigma=sigma_new)


# -- engine (round-based, unit relaxation) ----------------------------------------------


class DrEngine:
    """Round-based engine: parallel agent proxes, aggregation, central update.

    The coordinator code path receives nothing but an
    :class:`AggregateMessage`; per-agent data never crosses that boundary.
    """

    def __init__(self, game: GameSpec, config: RunConfig, x0: np.ndarray | None = None):
        self.game = game
        self.config = config
        agents, coord = dr_init(game, config, x0)
        self.X = np.stack([a.x for a in agents])
        self.Y = np.stack([a.y for a in agents])
        self.coord = coord
        self.bcast = BroadcastMessage(lam=coord.lam, mu=coord.mu, sigma=coord.sigma)

    def point(self) -> ExtendedPoint:
        return ExtendedPoint(
            x=self.X.ravel().copy(),
            y=self.Y.ravel().copy(),
            sigma=self.coord.sigma.copy(),
            mu=self.coord.mu.copy(),
            lam=self.coord.lam.copy(),
        )

    def step(self) -> None:
        game, steps, bcast = self.game, self.config.steps, self.bcast
        st = game.stacks
        linear = np.einsum("imn,m->in", st.A, bcast.lam) - bcast.mu / game.dims.N
        X_new = decoupled_prox(st, bcast.sigma, linear, self.X, steps.gamma, self.config.prox_tol)
        Y_new = game.link_values(X_new)
        agg = AggregateMessage(xhat=X_new.mean(axis=0), yhat=Y_new.mean(axis=0))
        self.coord, self.bcast = coordinator_update(self.coord, agg, steps)
        self.X, self.Y = X_new, Y_new


# -- raw reflected-resolvent iteration ---------------------------------------------------


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
    """One raw iteration: resolve, reflect, resolve, relax.

        half  = J_A(w~)
        full  = J_B(2 half - w~)
        w~+   = w~ + relaxation * (full - half)
    """
    half = resolvent_A(game, steps, w_tilde, tol=prox_tol)
    full = resolvent_B(game.dims, steps, 2.0 * half - w_tilde)
    tilde = w_tilde + relaxation * (full - half)
    return RawStep(half=half, full=full, tilde=tilde)


def raw_initial_tilde(game: GameSpec, config: RunConfig, x0: np.ndarray | None = None) -> ExtendedPoint:
    """Seed for the raw iteration matching the round-based initialization."""
    return _raw_tilde(DrEngine(game, config, x0).point(), config.steps)


def _raw_tilde(point: ExtendedPoint, steps: StepSizes) -> ExtendedPoint:
    """The raw-iteration state of a round-based point: y_i - gamma_i * lam per block."""
    Y_tilde = point.y_blocks(point.lam.shape[0]) - steps.gamma[:, None] * point.lam[None, :]
    return ExtendedPoint(point.x, Y_tilde.ravel(), point.sigma, point.mu, point.lam)


# -- shared run loop ---------------------------------------------------------------------


def _require_valid(game: GameSpec) -> None:
    """Raise :class:`Infeasible` unless the game passes :func:`validate_game`."""
    report = validate_game(game)
    if not report.ok:
        raise Infeasible("game failed validation before the run:\n" + report.summary())


def _run_loop(
    game: GameSpec,
    config: RunConfig,
    reference: np.ndarray | None,
    method: str,
    initial_point: ExtendedPoint,
    advance: Callable[[], ExtendedPoint],
) -> RunTrace:
    """Drive ``advance`` until the stopping metric and the optimality gate pass.

    A run whose stopping metric has set no new low for ``GATE_RECHECK``
    rounds has reached its numerical floor; it ends ``"stalled"`` if the
    optimality gate passes there, and otherwise looks again after another
    such window; a failed look whose KKT residual is no lower than at the
    previous failed look ends the run unconverged, ``"floor"``.  With
    ``stop_tol=0`` no gate can pass, so such runs (the comparison runs
    that stop on ``ref_stop``) skip the stall check.
    """
    steps = config.steps
    t0 = time.perf_counter_ns()
    trace = RunTrace(method=method)
    dists: list[float] = []

    point = initial_point
    dist0 = None
    if reference is not None:
        reference = np.asarray(reference, dtype=np.float64)
        dist0 = float(np.linalg.norm(point.x - reference))

    def record(k: int, step_norm: float, kkt: KktResidual) -> None:
        trace.rows.append(
            TraceRow(
                iter=k,
                dist_to_ref=dists[-1] if dists else None,
                kkt=kkt,
                step_norm=step_norm,
                wall_nanos=time.perf_counter_ns() - t0,
            )
        )

    if reference is not None:
        dists.append(dist0)
    kkt = kkt_residual(game, point)
    record(0, 0.0, kkt)

    converged = False
    reason = "max_iters"
    gate_block_until = 0
    best_cheap, window_start, floor_kkt = np.inf, 0, np.inf
    k = 0
    step_plain = 0.0
    for k in range(1, config.max_iters + 1):
        prev = point
        point = advance()
        diff = point - prev
        step_gamma = steps.gamma_inv_norm(diff)
        step_plain = diff.norm()

        if reference is not None:
            dist = float(np.linalg.norm(point.x - reference))
            dists.append(dist)
            if config.ref_stop is not None and dist <= config.ref_stop * max(dist0, 1e-300):
                converged, reason = True, "ref_stop"
                record(k, step_plain, kkt_residual(game, point))
                break

        consensus = float(np.max(np.abs(point.sigma - point.x.reshape(-1, game.dims.n).mean(axis=0))))
        primal = float(
            np.max(np.maximum(game.coupling_value(point.x) - game.b_total, 0.0), initial=0.0)
        )
        cheap = max(step_gamma, consensus, primal)

        need_row = k % config.record_every == 0
        kkt = None
        if cheap <= config.stop_tol and k >= gate_block_until:
            kkt = kkt_residual(game, point)
            if kkt.max_value() <= GATE_FACTOR * config.stop_tol:
                converged, reason = True, "stop_tol"
                record(k, step_plain, kkt)
                break
            gate_block_until = k + GATE_RECHECK
        if cheap < best_cheap:
            best_cheap, window_start = cheap, k
        elif config.stop_tol > 0 and k - window_start >= GATE_RECHECK:
            if kkt is None:
                kkt = kkt_residual(game, point)
            if kkt.max_value() <= GATE_FACTOR * config.stop_tol:
                converged, reason = True, "stalled"
                record(k, step_plain, kkt)
                break
            if kkt.max_value() >= floor_kkt:
                reason = "floor"
                record(k, step_plain, kkt)
                break
            floor_kkt, window_start = kkt.max_value(), k
        if need_row:
            if kkt is None:
                kkt = kkt_residual(game, point)
            record(k, step_plain, kkt)

    if not converged and trace.rows[-1].iter != k:
        record(k, step_plain, kkt_residual(game, point))

    trace.final_point = point
    trace.final_kkt = trace.rows[-1].kkt
    trace.converged = converged
    trace.iterations = k
    trace.stop_reason = reason
    trace.dist_curve = np.asarray(dists) if reference is not None else None
    if not converged:
        raise MaxItersExceeded(trace)
    return trace


def run_dr(
    game: GameSpec,
    config: RunConfig,
    reference: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    validate: bool = True,
) -> RunTrace:
    """Run the splitting to convergence and return the full trace.

    Unit relaxation runs the round-based engine (aggregate-only uplink);
    any other constant relaxation runs the raw iteration, which is the
    same algorithm without the message-passing structure.
    """
    if validate:
        _require_valid(game)

    engine = DrEngine(game, config, x0)
    initial = engine.point()
    if config.relaxation == 1.0:

        def advance() -> ExtendedPoint:
            engine.step()
            return engine.point()

        return _run_loop(game, config, reference, "dr", initial, advance)

    state = {"tilde": _raw_tilde(initial, config.steps)}

    def advance_raw() -> ExtendedPoint:
        out = raw_dr_step(state["tilde"], game, config.steps, config.relaxation, config.prox_tol)
        state["tilde"] = out.tilde
        return ExtendedPoint(
            x=out.half.x, y=out.half.y, sigma=out.full.sigma, mu=out.full.mu, lam=out.full.lam
        )

    return _run_loop(game, config, reference, "dr", initial, advance_raw)


# -- projected pseudo-gradient baseline --------------------------------------------------


def pfb_step_sizes(game: GameSpec) -> tuple[np.ndarray, float]:
    """Documented diagonal-dominance step-size rule for the baseline.

    tau_lam = 0.4 / ||A||^2 and per agent tau_i = 0.4 / L_i with
    L_i = curvature_i + ||Q_i|| / N + ||A_i||^2, the last term a margin
    for the coupling through the multiplier.
    """
    N, st = game.dims.N, game.stacks
    tau_lam = 0.4 / max(st.coupling_norm**2, 1e-12)
    coupling = np.zeros(N)
    coupling[st.quadratic] = st.Q_norms / N
    # float_power calls C pow, as a Python float's ** does; ** on an array squares,
    # which can round differently in the last bit
    L = st.curvature + coupling + np.float_power(st.A_norms, 2)
    return 0.4 / L, tau_lam


def run_pfb(
    game: GameSpec,
    config: RunConfig,
    reference: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    validate: bool = True,
) -> RunTrace:
    """Projected pseudo-gradient baseline with an extrapolated dual update.

        x_i+ = proj(x_i - tau_i (grad_i(x_i, xhat) + A_i' lam))
        lam+ = proj_{>=0}(lam + tau_lam (A (2 x+ - x) - b))
    """
    if validate:
        _require_valid(game)
    dims = game.dims
    agents_init, coord = dr_init(game, config, x0)
    X = np.stack([a.x for a in agents_init])
    lam = coord.lam.copy()
    tau, tau_lam = pfb_step_sizes(game)
    tau_col = tau[:, None]

    def point_of(Xc, lamc) -> ExtendedPoint:
        return ExtendedPoint(
            x=Xc.ravel().copy(),
            y=game.link_values(Xc).ravel(),
            sigma=Xc.mean(axis=0),
            mu=np.zeros(dims.n),
            lam=lamc.copy(),
        )

    state = {"X": X, "lam": lam}

    def advance() -> ExtendedPoint:
        Xc, lamc = state["X"], state["lam"]
        grad = extended_subdifferential(game, Xc.ravel(), Xc.mean(axis=0)).reshape(Xc.shape)
        grad = grad + np.einsum("imn,m->in", game.stacks.A, lamc)
        X_new = game.project_each(Xc - tau_col * grad)
        resid = game.coupling_value((2.0 * X_new - Xc).ravel()) - game.b_total
        lam_new = np.maximum(lamc + tau_lam * resid, 0.0)
        state["X"], state["lam"] = X_new, lam_new
        return point_of(X_new, lam_new)

    return _run_loop(game, config, reference, "pfb", point_of(X, lam), advance)

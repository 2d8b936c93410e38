"""Independent oracles: brute-force or dense reference computations.

Nothing here shares code paths with the implementations under test
beyond basic numpy and the kernels of ``aggsplit.projections``, which are
tested on their own; expected values in the tests come from these.
``engine_at`` only sets the state of a ``DrEngine`` for the tests to step.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace

import numpy as np

from aggsplit.engine import BroadcastMessage, CoordinatorState, DrEngine, RunConfig
from aggsplit.game import (
    AgentSpec,
    BoxSimplex,
    Dimensions,
    GameSpec,
    GenericSmooth,
    QuadraticAgg,
)
from aggsplit.operators import ExtendedPoint
from aggsplit.projections import project_box_simplex_batch
from aggsplit.resolvents import StepSizes


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function."""
    g = np.empty_like(x, dtype=np.float64)
    for j in range(x.shape[0]):
        e = np.zeros_like(g)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_gradient_error(cost, x: np.ndarray, sigma: np.ndarray) -> float:
    """Relative error between a cost's gradient oracle at (x, sigma) and central differences."""
    g = cost.grad(x, sigma)
    fd = fd_gradient(lambda z: cost.value(z, sigma), x)
    return float(np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g)))


def box_simplex_active_set(
    v: np.ndarray, upper: np.ndarray, total: float, weights: np.ndarray | None = None
) -> np.ndarray:
    """Exhaustive activity-pattern enumeration for the capped-simplex projection.

    Each coordinate is lower-active, free, or upper-active (3^n patterns).
    For every pattern the stationarity equation on the free set determines
    the multiplier; the best primal-feasible candidate wins.  Only viable
    for small n.
    """
    v = np.asarray(v, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    w = np.ones_like(v) if weights is None else np.asarray(weights, dtype=np.float64)
    n = v.shape[0]
    best, best_obj = None, np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pat = np.array(pattern)
        free = pat == 1
        x = np.where(pat == 2, upper, 0.0)
        if free.any():
            need = total - x.sum()
            theta = (v[free].sum() - need) / (1.0 / w[free]).sum()
            x = x.copy()
            x[free] = v[free] - theta / w[free]
        if np.any(x < -1e-9) or np.any(x > upper + 1e-9):
            continue
        if abs(x.sum() - total) > 1e-9:
            continue
        obj = float(w @ (x - v) ** 2)
        if obj < best_obj:
            best, best_obj = np.clip(x, 0.0, upper), obj
    if best is None:
        raise AssertionError("active-set enumeration found no feasible pattern")
    return best


def dense_resolvent_B(dims, steps: StepSizes, w: ExtendedPoint) -> ExtendedPoint:
    """Solve the coupling-half resolvent system by dense linear algebra.

    Enumerates the 2^m sign patterns of the multiplier block: inactive
    components satisfy a linear row, active components are pinned to zero
    with a free nonpositive normal-cone element.  Returns the unique
    pattern whose solution is sign-feasible.
    """
    N, n, m = dims.N, dims.n, dims.m
    nN, mN = n * N, m * N
    d = dims.d
    gamma = steps.gamma
    I_n, I_m = np.eye(n), np.eye(m)
    Mn = np.kron(np.ones((1, N)) / N, I_n)
    P = np.kron(np.ones((1, N)), I_m)
    Dg_n = np.kron(np.diag(gamma), I_n)
    Dg_m = np.kron(np.diag(gamma), I_m)

    sl_x = slice(0, nN)
    sl_y = slice(nN, nN + mN)
    sl_s = slice(nN + mN, nN + mN + n)
    sl_mu = slice(nN + mN + n, nN + mN + 2 * n)
    sl_lam = slice(nN + mN + 2 * n, d)

    rhs_base = w.as_vector()
    for active in itertools.product((False, True), repeat=m):
        active = np.array(active)
        k = int(active.sum())
        size = d + k
        Amat = np.zeros((size, size))
        rhs = np.zeros(size)
        rhs[:d] = rhs_base
        # x+ - Dg_n Mn' mu+ = x
        Amat[sl_x, sl_x] = np.eye(nN)
        Amat[sl_x, sl_mu] = -Dg_n @ Mn.T
        # y+ + Dg_m P' lam+ = y
        Amat[sl_y, sl_y] = np.eye(mN)
        Amat[sl_y, sl_lam] = Dg_m @ P.T
        # sigma+ + alpha mu+ = sigma
        Amat[sl_s, sl_s] = I_n
        Amat[sl_s, sl_mu] = steps.alpha * I_n
        # mu+ + beta (Mn x+ - sigma+) = mu
        Amat[sl_mu, sl_mu] = I_n
        Amat[sl_mu, sl_x] = steps.beta * Mn
        Amat[sl_mu, sl_s] = -steps.beta * I_n
        # lam+ + delta (nu - P y+) = lam, with lam+_j = 0 on the active set
        Amat[sl_lam, sl_lam] = I_m
        Amat[sl_lam, sl_y] = -steps.delta * P
        nu_cols = np.zeros((m, k))
        for col, j in enumerate(np.nonzero(active)[0]):
            nu_cols[j, col] = steps.delta
        Amat[sl_lam, d:] = nu_cols
        for row, j in enumerate(np.nonzero(active)[0]):
            Amat[d + row, sl_lam.start + j] = 1.0
        try:
            sol = np.linalg.solve(Amat, rhs)
        except np.linalg.LinAlgError:
            continue
        lam_plus = sol[sl_lam]
        nu = sol[d:]
        if np.all(lam_plus >= -1e-9) and np.all(nu <= 1e-9):
            return ExtendedPoint(
                x=sol[sl_x].reshape(N, n),
                y=sol[sl_y].reshape(N, m),
                sigma=sol[sl_s].copy(),
                mu=sol[sl_mu].copy(),
                lam=np.maximum(lam_plus, 0.0),
            )
    raise AssertionError("no sign-feasible pattern in the dense resolvent solve")


def reference_rounds(game: GameSpec, steps: StepSizes, iters: int, guess: bool = True):
    """Straight-line sequential reference of the communication rounds.

    Plain per-agent loops over the printed updates; quadratic costs with
    scaled-identity coupling only, so each proximal step reduces to one
    weighted capped-simplex projection (computed by the shared kernel,
    which is validated independently against the active-set oracle).
    With ``guess`` each projection is warm-started from the agent's
    current iterate, as the engine's is.
    Returns the list of (N, n) decision iterates x^1 ... x^iters.
    """
    from aggsplit.projections import project_box_simplex

    dims = game.dims
    N, n = dims.N, dims.n
    xs = [agent.omega.project(np.zeros(n)) for agent in game.agents]
    ys = [game.agents[i].A @ xs[i] - game.agents[i].b for i in range(N)]
    sigma = np.mean(np.stack(xs), axis=0)
    mu = np.zeros(n)
    lam = np.zeros(dims.m)
    xhat_prev = np.mean(np.stack(xs), axis=0)
    yhat_prev = np.mean(np.stack(ys), axis=0)
    out = []
    for _ in range(iters):
        for i, agent in enumerate(game.agents):
            cost = agent.cost
            diag = np.diag(agent.A.T @ agent.A)
            metric = (1.0 + diag) / steps.gamma[i]
            linear = agent.A.T @ lam - mu / N
            weights = cost.a + metric
            v = (cost.a * cost.xtilde + metric * xs[i] - cost.Q @ sigma - linear) / weights
            start = xs[i] if guess else None
            xs[i] = project_box_simplex(v, agent.omega.upper, agent.omega.total, weights, start)
            ys[i] = agent.A @ xs[i] - agent.b
        xhat = np.mean(np.stack(xs), axis=0)
        yhat = np.mean(np.stack(ys), axis=0)
        lam = np.maximum(lam + steps.delta_c * (2.0 * yhat - yhat_prev), 0.0)
        mu = mu - steps.beta_c * (2.0 * xhat - xhat_prev - sigma + steps.alpha * mu)
        sigma = sigma - steps.alpha * mu
        xhat_prev, yhat_prev = xhat, yhat
        out.append(np.stack(xs))
    return out


def engine_at(game: GameSpec, config: RunConfig, point: ExtendedPoint) -> DrEngine:
    """A round engine placed at ``point``: its decisions, sigma, mu and lam, the links
    recomputed from the decisions and the lagged aggregates set to their averages, as
    if the previous round had landed there."""
    engine = DrEngine(game, config)
    X = point.x.copy()
    Y = game.link_values(X)
    lam, mu, sigma = point.lam.copy(), point.mu.copy(), point.sigma.copy()
    engine.X, engine.Y = X, Y
    engine.coord = CoordinatorState(
        sigma=sigma,
        mu=mu,
        lam=lam,
        prev_xhat=X.mean(axis=0),
        prev_yhat=Y.mean(axis=0),
        relaxation=config.relaxation,
    )
    engine.bcast = BroadcastMessage(lam=lam, mu=mu, sigma=sigma)
    return engine


def deviation_gap(
    game: GameSpec, x: np.ndarray, samples: int | None = None, tol: float = 1e-9, seed: int = 0
) -> np.ndarray:
    """Per-agent reference for the epsilon-Nash gap: one deviation problem at a time.

    Agent i deviates over {z in Omega_i : A_i z <= slack_i} with the average
    moving along.  When m = n and A_i = w_i I with w_i > 0, that set is the
    box-simplex with caps min(upper, slack_i / w_i), widened to keep x_i;
    otherwise slack_i is widened to max(slack_i, A_i x_i) and the set is
    projected by Dykstra's method.  The exact gap solves the problem by
    projected gradient from x_i; with ``samples`` the best of that many
    projected draws in (0, upper) of stream (seed, 2, i) counts, one draw at
    a time.
    """
    from aggsplit.projections import dykstra_projection, fista_minimize, halfspace_projector

    N, n = game.dims.N, game.dims.n
    X = np.asarray(x, dtype=np.float64)
    sigma, coupled = X.mean(axis=0), game.coupling_value(X)
    eps = np.empty(N)
    for i, agent in enumerate(game.agents):
        cost, omega, A = agent.cost, agent.omega, agent.A
        slack = game.b_total - (coupled - A @ X[i])
        w = A[0, 0]
        scaled_identity = A.shape == (n, n) and w > 0 and np.array_equal(A, w * np.eye(n))
        if scaled_identity:
            caps = np.minimum(omega.upper, np.maximum(slack, 0.0) / w)
            project = BoxSimplex(np.maximum(caps, np.minimum(X[i], omega.upper)), omega.total).project
        else:
            room = np.maximum(slack, A @ X[i])
            rows = [halfspace_projector(a, float(r)) for a, r in zip(A, room)]
            project = functools.partial(dykstra_projection, projectors=[omega.project] + rows)
        sigma_others = sigma - X[i] / N

        def value(z):
            return cost.value(z, sigma_others + z / N)

        def grad(z):
            s = sigma_others + z / N
            return cost.grad(z, s) + cost.grad_sigma(z, s) / N

        base = value(X[i])
        if samples is None:
            if isinstance(cost, QuadraticAgg):
                spread = 2.0 * np.linalg.norm(0.5 * (cost.Q + cost.Q.T), 2) / N
                lipschitz, strong = cost.a + spread, max(cost.a - spread, 1e-12)
            else:
                lipschitz, strong = cost.curvature * (1.0 + 2.0 / N), 0.0
            z = fista_minimize(grad, project, X[i], lipschitz, strong_convexity=strong, tol=tol)
            best = value(z)
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed, 2, i)))
            best = min(value(project(omega.upper * rng.random(n))) for _ in range(samples))
        eps[i] = base - min(best, base)
    return eps


def game_of(agents) -> GameSpec:
    """The game of the row records ``agents``, in order, its sizes read off the first."""
    agents = list(agents)
    return GameSpec(Dimensions(len(agents), *agents[0].A.shape[::-1]), agents)


def dense_coupling_draw(seed: int = 0) -> GameSpec:
    """N=6, n=m=4 box-simplex game with every A_i a dense uniform(0.2, 1) matrix,
    whose coupling bound sits 3% below A x at the default points."""
    rng = np.random.default_rng(seed)
    N, n, m = 6, 4, 4
    agents = [
        AgentSpec(
            BoxSimplex(np.full(n, 0.6), 1.0),
            QuadraticAgg(1 + rng.random(), rng.random(n), np.eye(n) + 0.1 * rng.random((n, n))),
            rng.uniform(0.2, 1, (m, n)),
            np.zeros(m),
        )
        for _ in range(N)
    ]
    loose = GameSpec(dims=Dimensions(N, n, m), agents=agents)
    b = 0.97 * loose.coupling_value(loose.default_points) / N
    return GameSpec(dims=loose.dims, agents=[replace(agent, b=b) for agent in agents])


def wrap_costs_in_oracles(game: GameSpec) -> GameSpec:
    """The same quadratic game with every cost behind value/gradient oracles."""
    agents = []
    for agent in game.agents:
        cost = agent.cost
        agents.append(
            AgentSpec(
                omega=agent.omega,
                cost=GenericSmooth(
                    value_fn=cost.value,
                    grad_fn=cost.grad,
                    curvature=cost.a,
                    strong_convexity=cost.a,
                    grad_sigma_fn=cost.grad_sigma,
                ),
                A=agent.A,
                b=agent.b,
            )
        )
    return GameSpec(dims=game.dims, agents=agents)


def per_agent_benchmark(params) -> GameSpec:
    """The benchmark instance of ``params``, drawn agent by agent into its own
    set, cost and coupling objects: the same streams and draw order as
    ``generate_benchmark`` (per agent a and w in [1, 2], q, qbar, then caps summing
    to 2 resampled until every entry is at most 1, in a simplex of total 1; then b
    between 1/2 and 2/3 of the weighted cap totals from the shared stream), no
    validation."""
    N, n = params.N, params.n
    agents, w, uppers = [], np.empty(N), np.empty((N, n))
    for i in range(N):
        rng = np.random.default_rng(np.random.SeedSequence((params.seed, 1, i)))
        a_i = rng.uniform(1.0, 2.0)
        w[i] = rng.uniform(1.0, 2.0)
        q_i = rng.uniform(*params.q_range)
        qbar = rng.uniform(params.qbar_range[0], params.qbar_range[1], size=(n, n))
        while True:
            u = rng.random(n)
            if u.sum() != 0.0 and np.all(u * (2.0 / u.sum()) <= 1.0):
                break
        uppers[i] = u * (2.0 / u.sum())
        agents.append((BoxSimplex(uppers[i], 1.0), a_i, q_i * np.eye(n) + qbar))
    e1 = np.zeros((N, n))
    e1[:, 0] = 1.0
    xtilde = project_box_simplex_batch(e1, uppers, np.full(N, 1.0))
    rng_global = np.random.default_rng(np.random.SeedSequence((params.seed, 0)))
    cap_totals = np.einsum("i,ij->j", w, uppers)
    b = rng_global.uniform(0.5 * cap_totals, 2.0 / 3.0 * cap_totals)
    spec_agents = [
        AgentSpec(omega=omega, cost=QuadraticAgg(a=a_i, xtilde=xtilde[i], Q=Q), A=w[i] * np.eye(n), b=b / N)
        for i, (omega, a_i, Q) in enumerate(agents)
    ]
    return GameSpec(dims=Dimensions(N=N, n=n, m=n), agents=spec_agents)


def in_box_simplex(x: np.ndarray, omega: BoxSimplex, tol: float = 1e-9) -> bool:
    """Whether 0 <= x <= omega.upper and sum(x) = omega.total, each within ``tol``."""
    return bool(np.all(x >= -tol) and np.all(x <= omega.upper + tol) and abs(x.sum() - omega.total) <= tol)

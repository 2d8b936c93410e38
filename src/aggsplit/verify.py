"""Runtime verification suites: operator identities checked on live instances.

Each suite runs the solver's own code on the given game and checks it
against what the paper derives: the defining inclusions of both
resolvents (``resolvents``), their firm nonexpansiveness in the
preconditioned metric (``firmness``), round-for-round agreement of the
semi-decentralized rounds with the raw reflected-resolvent iteration
(``trajectory``) and the optimality residuals of a converged run
(``kkt``).  They back the ``verify`` command and are reused by the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import DrEngine, RunConfig, raw_dr_step, run_dr
from .errors import MaxItersExceeded
from .game import GameSpec
from .operators import ExtendedPoint
from .resolvents import StepSizes, resolvent_A, resolvent_B

@dataclass
class SuiteResult:
    suite: str
    passed: bool
    detail: str
    skipped: bool = False

    @property
    def ok(self) -> bool:
        """Skipped suites do not count as failures."""
        return self.passed or self.skipped


def random_extended_point(game: GameSpec, rng: np.random.Generator, scale: float = 1.0) -> ExtendedPoint:
    dims = game.dims
    return ExtendedPoint(
        x=scale * rng.standard_normal((dims.N, dims.n)),
        y=scale * rng.standard_normal((dims.N, dims.m)),
        sigma=scale * rng.standard_normal(dims.n),
        mu=scale * rng.standard_normal(dims.n),
        lam=scale * rng.standard_normal(dims.m),
    )


# -- defining-inclusion residuals --------------------------------------------------------


def inclusion_residual_A(
    game: GameSpec, steps: StepSizes, w: ExtendedPoint, w_plus: ExtendedPoint
) -> float:
    """Residual of the decoupled-half inclusion at a claimed resolvent output.

    Uses only projections and gradients, independent of how the proximal
    subproblems were solved.  The link rows of the normal cone absorb a
    free multiplier, leaving per agent the natural residual of

        0 in (x+ - x)/gamma_i + grad f_i(x+, sigma) + A_i'(y+ - y)/gamma_i + N(x+)
    """
    X, Xp, Y, Yp = w.x, w_plus.x, w.y, w_plus.y
    gamma = steps.gamma[:, None]
    H = (Xp - X) / gamma + game.grad(Xp, w.sigma) + game.adjoint((Yp - Y) / gamma)
    proj = game.project_each(Xp - H)
    r_x = float(np.max(np.linalg.norm(Xp - proj, axis=1)))
    r_y = float(np.max(np.abs(Yp - game.link_values(Xp)), initial=0.0))
    r_pass = max(
        float(np.max(np.abs(w_plus.sigma - w.sigma), initial=0.0)),
        float(np.max(np.abs(w_plus.mu - w.mu), initial=0.0)),
        float(np.max(np.abs(w_plus.lam - w.lam), initial=0.0)),
    )
    return max(r_x, r_y, r_pass)


def inclusion_residual_B(
    game: GameSpec, steps: StepSizes, w: ExtendedPoint, w_plus: ExtendedPoint
) -> float:
    """Residual of the coupling-half inclusion at a claimed resolvent output."""
    N = game.dims.N
    gamma = steps.gamma[:, None]
    X, Xp, Y, Yp = w.x, w_plus.x, w.y, w_plus.y
    r_x = float(np.max(np.abs(Xp - gamma * (w_plus.mu / N) - X)))
    r_y = float(np.max(np.abs(Yp + gamma * w_plus.lam - Y)))
    r_sigma = float(np.max(np.abs(w_plus.sigma + steps.alpha * w_plus.mu - w.sigma)))
    r_mu = float(
        np.max(np.abs(w_plus.mu + steps.beta * (Xp.mean(axis=0) - w_plus.sigma) - w.mu))
    )
    # lam row: the normal-cone element it implies must actually lie in the cone
    nu = (w.lam - w_plus.lam) / steps.delta + Yp.sum(axis=0)
    r_lam = float(np.max(np.abs(w_plus.lam - np.maximum(w_plus.lam + nu, 0.0))))
    return max(r_x, r_y, r_sigma, r_mu, r_lam)


# -- suites ------------------------------------------------------------------------------


def suite_resolvents(game: GameSpec, steps: StepSizes) -> SuiteResult:
    """Both resolvent outputs must satisfy their defining inclusions to 1e-8, at 50 random points."""
    rng = np.random.default_rng(0)
    worst_a = worst_b = 0.0
    for _ in range(50):
        w = random_extended_point(game, rng)
        wa = resolvent_A(game, steps, w)
        worst_a = max(worst_a, inclusion_residual_A(game, steps, w, wa))
        wb = resolvent_B(game.dims, steps, w)
        worst_b = max(worst_b, inclusion_residual_B(game, steps, w, wb))
    ok = worst_a <= 1e-8 and worst_b <= 1e-8
    return SuiteResult(
        "resolvents", ok, f"max inclusion residuals: A {worst_a:.3e}, B {worst_b:.3e}"
    )


def suite_firmness(game: GameSpec, steps: StepSizes) -> SuiteResult:
    """Firm nonexpansiveness of both resolvents in the preconditioned metric,
    up to a slack of 1e-8 on 100 random pairs.

    Holds exactly when the extended gradient map is monotone, which any
    genuine dependence of a cost on the broadcast aggregate destroys (and
    random pair sampling reliably detects, unlike the domain-box probe).
    The suite therefore skips, rather than fails, on instances with a
    nonzero aggregate-coupling matrix.
    """
    if np.any(game.Q != 0.0):
        return SuiteResult(
            "firmness",
            False,
            "skipped: costs depend on the aggregate, so the extended map is not monotone",
            skipped=True,
        )
    rng = np.random.default_rng(0)
    worst = -np.inf
    for _ in range(100):
        w1 = random_extended_point(game, rng)
        w2 = random_extended_point(game, rng)
        for J in (
            lambda u: resolvent_A(game, steps, u),
            lambda u: resolvent_B(game.dims, steps, u),
        ):
            d_out = J(w1) - J(w2)
            d_in = w1 - w2
            lhs = steps.gamma_inv_inner(d_out, d_out)
            rhs = steps.gamma_inv_inner(d_out, d_in)
            worst = max(worst, lhs - rhs)
    return SuiteResult("firmness", worst <= 1e-8, f"max firmness defect {worst:.3e}")


def suite_trajectory(game: GameSpec, steps: StepSizes) -> SuiteResult:
    """Round-based and raw formulations must produce the same trajectories,
    to 1e-8 over 50 rounds with prox tolerance 1e-12.

    Mapping: round iterate k equals the raw half-step of round k-1; the
    central variables equal the raw full-step values.
    """
    config = RunConfig(steps=steps, prox_tol=1e-12)
    engine = DrEngine(game, config)
    tilde = engine.point()
    worst = 0.0
    for _ in range(50):
        engine.step()
        half, full, tilde = raw_dr_step(tilde, game, steps, 1.0, config.prox_tol)
        worst = max(
            worst,
            float(np.max(np.abs(engine.X - half.x))),
            float(np.max(np.abs(engine.coord.sigma - full.sigma))),
            float(np.max(np.abs(engine.coord.mu - full.mu))),
            float(np.max(np.abs(engine.coord.lam - full.lam))),
        )
    return SuiteResult("trajectory", worst <= 1e-8, f"max trajectory deviation {worst:.3e}")


def suite_kkt(game: GameSpec, steps: StepSizes) -> SuiteResult:
    """A run converged to 1e-8 must land on a point with matching optimality residuals."""
    config = RunConfig(steps=steps, stop_tol=1e-8, max_iters=100_000, record_every=100_000)
    try:
        trace = run_dr(game, config, validate=False)
    except MaxItersExceeded:
        return SuiteResult("kkt", False, f"no convergence within {config.max_iters} iterations")
    kkt = trace.final_kkt
    bound = 10.0 * config.stop_tol
    ok = kkt.max_value() <= bound and float(np.max(np.abs(trace.final_point.mu))) <= bound
    return SuiteResult(
        "kkt",
        ok,
        f"terminal residual {kkt.max_value():.3e} after {trace.iterations} iterations",
    )


# suite name -> runner(game, steps); the keys, in order, are SUITES
_SUITE_RUNNERS = {
    "resolvents": suite_resolvents,
    "firmness": suite_firmness,
    "trajectory": suite_trajectory,
    "kkt": suite_kkt,
}
SUITES = tuple(_SUITE_RUNNERS)


def run_suites(game: GameSpec, steps: StepSizes, suites: tuple[str, ...] | None = None) -> list[SuiteResult]:
    """Run the requested suites (all by default) and collect their results."""
    chosen = SUITES if suites is None else tuple(suites)
    for name in chosen:
        if name not in _SUITE_RUNNERS:
            raise ValueError(f"unknown suite '{name}'")
    return [_SUITE_RUNNERS[name](game, steps) for name in chosen]

"""Runtime verification suites: operator identities checked on live instances.

These checks re-derive what each component must satisfy from first
principles (defining inclusions, skew symmetry, nonexpansiveness in the
preconditioned metric, round-for-round agreement of the two solver
formulations) and evaluate them on random points of a given instance.
They back the ``verify`` command and are reused by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import DrEngine, RunConfig, raw_dr_step, raw_initial_tilde, run_dr
from .errors import MaxItersExceeded
from .game import GameSpec
from .operators import ExtendedPoint, apply_S, apply_A_selection, apply_T_selection, extended_subdifferential
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
        x=scale * rng.standard_normal(dims.N * dims.n),
        y=scale * rng.standard_normal(dims.N * dims.m),
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
    dims = game.dims
    X, Xp = w.x_blocks(dims.n), w_plus.x_blocks(dims.n)
    Y, Yp = w.y_blocks(dims.m), w_plus.y_blocks(dims.m)
    gamma = steps.gamma[:, None]
    G = extended_subdifferential(game, w_plus.x, w.sigma).reshape(dims.N, dims.n)
    H = (Xp - X) / gamma + G + game.stacks.adjoint((Yp - Y) / gamma)
    proj = game.project_each(Xp - H)
    r_x = float(np.max(np.linalg.norm(Xp - proj, axis=1)))
    r_y = float(np.max(np.abs(Yp - game.stacks.link_values(Xp)), initial=0.0))
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
    dims = game.dims
    N = dims.N
    gamma = steps.gamma[:, None]
    X, Xp = w.x_blocks(dims.n), w_plus.x_blocks(dims.n)
    Y, Yp = w.y_blocks(dims.m), w_plus.y_blocks(dims.m)
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


def suite_step_sizes(game: GameSpec, steps: StepSizes) -> SuiteResult:
    """Round-trip the raw/central step-size bijections across 1000 random draws.

    Central draws cover the full admissible intervals; raw draws are
    log-uniform over moderate decades.  (Raw values far into the
    compression zone near the central-interval endpoint intrinsically
    lose precision through the reparameterization, so such draws would
    test conditioning, not correctness.)
    """
    rng = np.random.default_rng(0)
    gamma = steps.gamma
    gamma_hat = steps.gamma_hat
    N = steps.N
    worst = 0.0
    for _ in range(1000):
        delta = float(10.0 ** rng.uniform(-1.5, 1.5))
        beta = float(10.0 ** rng.uniform(-1.5, 1.5))
        alpha = float(10.0 ** rng.uniform(-1, 1))
        s = StepSizes(gamma=gamma, alpha=alpha, beta=beta, delta=delta)
        back = StepSizes.from_central(gamma, alpha, s.delta_c, s.beta_c)
        worst = max(
            worst,
            abs(back.delta - delta) / delta,
            abs(back.beta - beta) / beta,
        )
        delta_c = float(rng.uniform(0.0, 1.0)) / gamma_hat
        beta_c = float(rng.uniform(0.0, 1.0)) / (alpha + gamma_hat / N)
        if delta_c <= 0.0 or beta_c <= 0.0:
            continue
        s2 = StepSizes.from_central(gamma, alpha, delta_c, beta_c)
        worst = max(
            worst, abs(s2.delta_c - delta_c) / delta_c, abs(s2.beta_c - beta_c) / beta_c
        )
    return SuiteResult("step-sizes", worst <= 1e-12, f"max round-trip relative error {worst:.3e}")


def suite_skew(game: GameSpec, steps: StepSizes) -> SuiteResult:
    """<w, S w> must vanish for the linear coupling map, at 100 random points."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        w = random_extended_point(game, rng)
        val = abs(float(w.as_vector() @ apply_S(game.dims, w).as_vector()))
        worst = max(worst, val / max(w.norm() ** 2, 1e-300))
    return SuiteResult("skew", worst <= 1e-10, f"max relative skew defect {worst:.3e}")


def suite_splitting(game: GameSpec, steps: StepSizes) -> SuiteResult:
    """Single-valued selections of the two halves must sum to the full operator, at 50 random points."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        w = random_extended_point(game, rng)
        w.lam = np.abs(w.lam) + 0.1  # strictly positive multiplier
        total = apply_A_selection(game, w) + apply_S(game.dims, w)
        defect = (total - apply_T_selection(game, w)).norm()
        worst = max(worst, defect)
    return SuiteResult("splitting", worst <= 1e-10, f"max splitting defect {worst:.3e}")


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
    if np.any(game.stacks.Q != 0.0):
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
    tilde = raw_initial_tilde(game, config)
    worst = 0.0
    for _ in range(50):
        engine.step()
        half, full, tilde = raw_dr_step(tilde, game, steps, 1.0, config.prox_tol)
        worst = max(
            worst,
            float(np.max(np.abs(engine.X.ravel() - half.x))),
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
    "step-sizes": suite_step_sizes,
    "skew": suite_skew,
    "splitting": suite_splitting,
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

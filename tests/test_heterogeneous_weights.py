"""Per-agent weights that actually differ: the mean-weight algebra is live here."""

import numpy as np
import pytest

from aggsplit import (
    BenchmarkParams,
    DrEngine,
    RunConfig,
    StepSizes,
    generate_benchmark,
    raw_dr_step,
    resolvent_B,
    run_dr,
)
from aggsplit.verify import (
    inclusion_residual_A,
    inclusion_residual_B,
    random_extended_point,
)
from aggsplit.resolvents import resolvent_A
from oracles import dense_resolvent_B


@pytest.fixture(scope="module")
def het_steps():
    gamma = np.array([0.4, 1.0, 2.5, 0.7, 1.6])
    return StepSizes(gamma=gamma, alpha=0.8, beta=1.7, delta=0.6)


def test_coupling_resolvent_matches_dense_solve(desk_game, het_steps, rng):
    for _ in range(25):
        w = random_extended_point(desk_game, rng)
        out = resolvent_B(desk_game.dims, het_steps, w)
        dense = dense_resolvent_B(desk_game.dims, het_steps, w)
        assert np.max(np.abs(out.as_vector() - dense.as_vector())) <= 1e-10


def test_both_inclusions_hold(desk_game, het_steps, rng):
    for _ in range(15):
        w = random_extended_point(desk_game, rng)
        assert (
            inclusion_residual_A(desk_game, het_steps, w, resolvent_A(desk_game, het_steps, w))
            <= 1e-8
        )
        assert (
            inclusion_residual_B(
                desk_game, het_steps, w, resolvent_B(desk_game.dims, het_steps, w)
            )
            <= 1e-10
        )


def test_round_engine_still_matches_raw_iteration(desk_game, het_steps):
    for rho in (1.0, 0.9, 1.5):  # unit, under- and over-relaxed
        config = RunConfig(steps=het_steps, relaxation=rho, prox_tol=1e-12)
        engine = DrEngine(desk_game, config)
        tilde = DrEngine(desk_game, config).point()
        worst = 0.0
        for _ in range(40):
            engine.step()
            half, full, tilde = raw_dr_step(tilde, desk_game, het_steps, rho, prox_tol=1e-12)
            worst = max(
                worst,
                float(np.max(np.abs(engine.X - half.x))),
                float(np.max(np.abs(engine.coord.mu - full.mu))),
                float(np.max(np.abs(engine.coord.lam - full.lam))),
            )
        assert worst <= 1e-9, rho


def test_solver_converges_with_spread_weights():
    game = generate_benchmark(BenchmarkParams(N=12, n=4, seed=6))
    gamma = np.linspace(0.3, 2.4, 12)
    steps = StepSizes(gamma=gamma, alpha=1.0, beta=1.2, delta=0.9)
    trace = run_dr(game, RunConfig(steps=steps, stop_tol=1e-8), validate=False)
    assert trace.converged
    assert trace.final_kkt.max_value() <= 1e-7

"""The engine must not be hard-wired to quadratic costs."""

import numpy as np
import pytest

from aggsplit import (
    AgentSpec,
    BenchmarkParams,
    Dimensions,
    GameSpec,
    GenericSmooth,
    NoConvergence,
    NonSmoothCost,
    RunConfig,
    benchmark_steps,
    run_comparison,
    run_dr,
    validate_game,
)
from aggsplit.projections import fista_minimize
from oracles import wrap_costs_in_oracles


@pytest.fixture(scope="module")
def small_game():
    return generate()


def generate():
    from aggsplit import generate_benchmark

    return generate_benchmark(BenchmarkParams(N=4, n=3, seed=17))


def test_oracle_costs_solve_to_the_same_point(small_game):
    steps = benchmark_steps(4)
    cfg = RunConfig(steps=steps, stop_tol=1e-8, prox_tol=1e-11)
    base = run_dr(small_game, cfg, validate=False)
    wrapped = run_dr(wrap_costs_in_oracles(small_game), cfg, validate=False)
    assert np.max(np.abs(base.final_point.x - wrapped.final_point.x)) <= 1e-6


def test_oracle_game_passes_validation(small_game):
    report = validate_game(wrap_costs_in_oracles(small_game))
    assert report.ok


def test_value_only_cost_raises_nonsmooth(small_game):
    # the gradient oracle is required when the cost is built, not on the first prox
    value = small_game.agents[0].cost.value
    with pytest.raises(NonSmoothCost, match="no gradient oracle"):
        GenericSmooth(value_fn=value, grad_fn=None)
    with pytest.raises(TypeError, match="grad_fn"):
        GenericSmooth(value_fn=value)


@pytest.mark.parametrize(
    "curvature, strong_convexity, field",
    [
        (np.nan, 0.0, "curvature"),
        (np.inf, 0.0, "curvature"),
        (-1.0, 0.0, "curvature"),
        (1.0, -0.5, "strong_convexity"),
        (1.0, 2.0, "strong_convexity"),
    ],
)
def test_impossible_moduli_raise_naming_the_field(small_game, curvature, strong_convexity, field):
    cost = small_game.agents[0].cost
    with pytest.raises(ValueError, match=f"^{field}"):
        GenericSmooth(
            value_fn=cost.value,
            grad_fn=cost.grad,
            curvature=curvature,
            strong_convexity=strong_convexity,
        )


def test_full_variant_needs_aggregate_gradient_oracle(small_game):
    agent = small_game.agents[0]
    partial = AgentSpec(
        omega=agent.omega,
        cost=GenericSmooth(value_fn=agent.cost.value, grad_fn=agent.cost.grad, curvature=2.0),
        A=agent.A,
        b=agent.b,
    )
    game = GameSpec(dims=Dimensions(1, small_game.dims.n, small_game.dims.m), agents=[partial])
    x = agent.omega.project(np.zeros(small_game.dims.n))
    with pytest.raises(NonSmoothCost):
        game.grad_sigma(x[None], x)


def test_inner_solver_budget_raises_no_convergence():
    scales = np.array([1000.0, 1.0, 7.0])
    grad = lambda z: scales * z - np.ones(3)
    project = lambda z: np.clip(z, -10.0, 10.0)
    with pytest.raises(NoConvergence):
        fista_minimize(grad, project, np.full(3, 9.0), lipschitz=1000.0, tol=1e-14, max_iters=2)


def test_comparison_runs_with_parallel_workers():
    report = run_comparison(
        BenchmarkParams(N=8, n=3, seed=40), num_seeds=2, tol=1e-4, max_iters=50_000, workers=2
    )
    assert all(rec.error is None for rec in report.records)
    assert [rec.seed for rec in report.records] == [40, 41]

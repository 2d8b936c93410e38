import numpy as np
import pytest

from aggsplit import (
    AgentSpec,
    BoxSimplex,
    Dimensions,
    ExtendedPoint,
    GameSpec,
    KktResidual,
    QuadraticAgg,
    DimensionMismatch,
    apply_S,
    kkt_residual,
    monotonicity_probe,
    stationarity_residual,
)
from aggsplit.benchmark import BenchmarkParams, generate_benchmark, ground_truth_point
from oracles import fd_gradient, wrap_costs_in_oracles


def chain_rule_gradient(game, X):
    """(N, n) gradients of x_i -> f_i(x_i, avg(X)), with the 1/N chain-rule term
    of each agent's own weight in the average: the exact gap's deviation gradient."""
    sigma = X.mean(axis=0)
    return game.grad(X, sigma) + game.grad_sigma(X, sigma) / game.dims.N


def scalar_game(a=1.0, q=0.0, xtilde=0.0, upper=2.0, total=1.0, A=1.0, b=5.0):
    agent = AgentSpec(
        omega=BoxSimplex(np.array([upper]), total),
        cost=QuadraticAgg(a=a, xtilde=np.array([xtilde]), Q=np.array([[q]])),
        A=np.array([[A]]),
        b=np.array([b]),
    )
    return GameSpec(dims=Dimensions(1, 1, 1), agents=[agent])


class TestSubdifferentials:
    def test_frozen_aggregate_formula(self, desk_game):
        rng = np.random.default_rng(0)
        X = rng.random((desk_game.dims.N, desk_game.dims.n))
        sigma = X.mean(axis=0)
        got = desk_game.grad(X, sigma)
        for i, agent in enumerate(desk_game.agents):
            xi = X[i]
            want = agent.cost.a * (xi - agent.cost.xtilde) + agent.cost.Q @ sigma
            assert np.allclose(got[i], want, atol=1e-14)

    def test_scalar_chain_rule_both_variants(self):
        # one agent, cost 0.5 x^2 + q * sigma * x with sigma = x
        q = 0.7
        game = scalar_game(a=1.0, q=q)
        X = np.array([[0.4]])
        assert chain_rule_gradient(game, X) == pytest.approx((1 + 2 * q) * 0.4)
        assert game.grad(X, X.mean(axis=0)) == pytest.approx((1 + q) * 0.4)
        # finite differences of the fully substituted cost confirm the full variant
        f = lambda z: game.agents[0].cost.value(z, z)
        assert chain_rule_gradient(game, X) == pytest.approx(fd_gradient(f, X[0])[0], rel=1e-6)

    def test_chain_rule_equals_the_oracle_costs_bitwise(self, desk_game):
        X = np.random.default_rng(4).random((desk_game.dims.N, desk_game.dims.n))
        wrapped = wrap_costs_in_oracles(desk_game)
        assert np.array_equal(chain_rule_gradient(desk_game, X), chain_rule_gradient(wrapped, X))

    def test_zero_at_target_with_no_coupling(self):
        game = scalar_game(a=2.0, q=0.0, xtilde=0.3)
        X = np.array([[0.3]])
        assert chain_rule_gradient(game, X) == pytest.approx(0.0)
        assert game.grad(X, X.mean(axis=0)) == pytest.approx(0.0)

    def test_extended_matches_frozen_at_the_average(self, desk_game):
        rng = np.random.default_rng(1)
        X = rng.random((desk_game.dims.N, desk_game.dims.n))
        sigma = X.mean(axis=0)
        lhs = desk_game.grad(X, sigma)
        rhs = np.stack([agent.cost.grad(xi, sigma) for agent, xi in zip(desk_game.agents, X)])
        assert np.array_equal(lhs, rhs)  # the stacked rows round like each agent's own

    def test_extended_matches_finite_differences(self, desk_game):
        rng = np.random.default_rng(2)
        dims = desk_game.dims
        X = rng.random((dims.N, dims.n))
        sigma = rng.random(dims.n)
        got = desk_game.grad(X, sigma)
        for i, agent in enumerate(desk_game.agents):
            xi = X[i]
            fd = fd_gradient(lambda z: agent.cost.value(z, sigma), xi)
            assert np.allclose(got[i], fd, rtol=1e-6, atol=1e-6)

    def test_frozen_variant_matches_finite_differences(self, desk_game):
        rng = np.random.default_rng(3)
        dims = desk_game.dims
        X = rng.random((dims.N, dims.n))
        sigma = X.mean(axis=0)
        got = desk_game.grad(X, sigma)
        for i, agent in enumerate(desk_game.agents):
            xi = X[i]
            fd = fd_gradient(lambda z: agent.cost.value(z, sigma), xi)
            assert np.allclose(got[i], fd, rtol=1e-6, atol=1e-6)


class TestSkewMap:
    def test_zero_maps_to_zero(self, desk_game):
        dims = desk_game.dims
        w = ExtendedPoint(
            x=np.zeros((dims.N, dims.n)),
            y=np.zeros((dims.N, dims.m)),
            sigma=np.zeros(dims.n),
            mu=np.zeros(dims.n),
            lam=np.zeros(dims.m),
        )
        out = apply_S(desk_game.dims, w)
        assert out.norm() == 0.0

    def test_skew_symmetry_on_random_points(self, desk_game, rng):
        for _ in range(100):
            w = ExtendedPoint(
                x=rng.standard_normal((desk_game.dims.N, desk_game.dims.n)),
                y=rng.standard_normal((desk_game.dims.N, desk_game.dims.m)),
                sigma=rng.standard_normal(desk_game.dims.n),
                mu=rng.standard_normal(desk_game.dims.n),
                lam=rng.standard_normal(desk_game.dims.m),
            )
            inner = float(w.as_vector() @ apply_S(desk_game.dims, w).as_vector())
            assert abs(inner) <= 1e-10 * max(1.0, w.norm() ** 2)

    def test_matches_explicit_matrix_on_ones(self):
        # single agent, all blocks scalar: the 5x5 block matrix is explicit
        dims = Dimensions(1, 1, 1)
        S = np.array(
            [
                [0, 0, 0, -1, 0],
                [0, 0, 0, 0, 1],
                [0, 0, 0, 1, 0],
                [1, 0, -1, 0, 0],
                [0, -1, 0, 0, 0],
            ],
            dtype=float,
        )
        w = ExtendedPoint(x=np.ones((1, 1)), y=np.ones((1, 1)), sigma=np.ones(1), mu=np.ones(1), lam=np.ones(1))
        want = S @ np.ones(5)
        got = apply_S(dims, w).as_vector()
        assert np.array_equal(got, want)
        assert np.array_equal(got, np.array([-1.0, 1.0, 1.0, 0.0, -1.0]))


class TestKktResidual:
    @pytest.mark.parametrize("field", range(6))
    def test_max_value_keeps_a_nan_in_any_field(self, field):
        values = [1e-3] * 6
        values[field] = np.nan
        assert np.isnan(KktResidual(*values).max_value())
        values[field] = np.inf
        assert KktResidual(*values).max_value() == np.inf

    def test_small_at_certified_solution(self, desk_game):
        point, _ = ground_truth_point(desk_game, tol=1e-8, cross_check=False)
        kkt = kkt_residual(desk_game, point)
        assert kkt.max_value() <= 1e-6

    def test_zero_at_interior_stationary_point(self):
        # target interior to the local set, no coupling pressure, lam = 0
        game = scalar_game(a=1.0, q=0.0, xtilde=0.5, upper=2.0, total=0.5, b=5.0)
        X = np.array([[0.5]])
        w = ExtendedPoint(
            x=X,
            y=game.link_values(X),
            sigma=X.mean(axis=0),
            mu=np.zeros(1),
            lam=np.zeros(1),
        )
        kkt = kkt_residual(game, w)
        assert kkt.max_value() == pytest.approx(0.0, abs=1e-12)

    def test_stationarity_rejects_a_multiplier_of_the_wrong_length(self, desk_game):
        # a capped game's adjoint would broadcast a one-entry lam across all m rows
        X, m = desk_game.default_points, desk_game.dims.m
        with pytest.raises(DimensionMismatch, match=rf"\({m},\)"):
            stationarity_residual(desk_game, X, np.array([0.5]))
        # only shapes are checked: a diverging iterate's NaN reaches the residual
        assert np.isnan(stationarity_residual(desk_game, X, np.full(m, np.nan)))

    def test_perturbation_shows_up_in_stationarity(self, desk_game):
        point, _ = ground_truth_point(desk_game, tol=1e-8, cross_check=False)
        bumped = point.copy()
        bumped.x = bumped.x.copy()
        bumped.x[0, 0] += 1e-3
        kkt = kkt_residual(desk_game, bumped)
        assert kkt.stationarity > 1e-5


class TestMonotonicityProbe:
    def test_diagonal_coupling_probes_nonnegative(self):
        sym = generate_benchmark(BenchmarkParams(N=20, n=5, qbar_range=(0.0, 0.0), seed=3))
        report = monotonicity_probe(sym, 1000, seed=0)
        assert report.looks_monotone
        assert report.negative_fraction == 0.0

    def test_aggregate_free_costs_always_nonnegative(self, monotone_game):
        report = monotonicity_probe(monotone_game, 500, seed=1)
        assert report.min_inner >= 0.0

    def test_large_skew_coupling_with_weak_convexity_fails_probe(self):
        n = 2
        skew = np.array([[0.0, 10.0], [-10.0, 0.0]])
        agents = [
            AgentSpec(
                omega=BoxSimplex(np.ones(n), 1.0),
                cost=QuadraticAgg(a=1e-3, xtilde=np.zeros(n), Q=skew),
                A=np.eye(n),
                b=np.full(n, 2.0),
            )
            for _ in range(2)
        ]
        game = GameSpec(dims=Dimensions(2, n, n), agents=agents)
        report = monotonicity_probe(game, 1000, seed=0)
        assert report.min_inner < 0.0

    def test_report_is_computed_once_per_game_and_key(self, monkeypatch):
        game = generate_benchmark(BenchmarkParams(N=5, n=3, seed=11))
        first = monotonicity_probe(game, 50, seed=0)
        calls = []
        real = GameSpec.grad

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(GameSpec, "grad", spy)
        assert monotonicity_probe(game, 50, seed=0) is first
        assert not calls  # no sampling for a (sample count, seed) already probed
        monotonicity_probe(game, 50, seed=1)
        assert len(calls) == 2 * 50

    def test_sample_count_validated(self, desk_game):
        with pytest.raises(ValueError):
            monotonicity_probe(desk_game, 0)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggsplit import (
    AgentSpec,
    BoxSimplex,
    Dimensions,
    ExtendedPoint,
    GameSpec,
    InvalidStepSizes,
    QuadraticAgg,
    StepSizes,
    local_prox,
    resolvent_A,
    resolvent_B,
)
from aggsplit.projections import fista_minimize
from aggsplit.verify import inclusion_residual_A, inclusion_residual_B, random_extended_point
from oracles import dense_resolvent_B, game_of, in_box_simplex, wrap_costs_in_oracles


class TestStepSizes:
    def test_central_values_match_their_definitions(self):
        s = StepSizes(gamma=np.array([1.0, 2.0, 3.0]), alpha=0.7, beta=1.3, delta=0.9)
        gh = 2.0
        assert s.gamma_hat == pytest.approx(gh)
        assert s.delta_c == pytest.approx(0.9 / (0.9 * gh + 1.0 / 3.0))
        assert s.beta_c == pytest.approx(1.3 / (1.0 + 1.3 * (0.7 + gh / 3.0)))

    def test_open_interval_enforced(self):
        gamma = np.ones(4)
        with pytest.raises(InvalidStepSizes):
            StepSizes.from_central(gamma, 1.0, 1.0, 0.3)  # delta_c == 1/gamma_hat
        with pytest.raises(InvalidStepSizes):
            StepSizes.from_central(gamma, 1.0, 0.5, 1.0 / (1.0 + 0.25))
        with pytest.raises(InvalidStepSizes):
            StepSizes.from_central(gamma, 1.0, 0.0, 0.3)
        # just inside both endpoints is accepted
        StepSizes.from_central(gamma, 1.0, 0.999, 0.999 / 1.25)

    def test_raw_must_be_positive(self):
        with pytest.raises(InvalidStepSizes):
            StepSizes(gamma=np.array([1.0, -1.0]), alpha=1.0, beta=1.0, delta=1.0)
        with pytest.raises(InvalidStepSizes):
            StepSizes(gamma=np.ones(2), alpha=0.0, beta=1.0, delta=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["gamma", "alpha", "beta", "delta"])
    def test_raw_must_be_finite(self, field, value):
        raw = {"gamma": np.ones(2), "alpha": 1.0, "beta": 1.0, "delta": 1.0}
        raw[field] = np.array([1.0, value]) if field == "gamma" else value
        with pytest.raises(InvalidStepSizes):
            StepSizes(**raw)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 0.999), st.floats(1e-3, 0.999), st.floats(0.1, 5.0))
    def test_central_round_trip(self, dc_frac, bc_frac, alpha):
        gamma = np.array([0.5, 1.5])
        gamma_hat = 1.0
        delta_c = dc_frac / gamma_hat
        beta_c = bc_frac / (alpha + gamma_hat / 2)
        s = StepSizes.from_central(gamma, alpha, delta_c, beta_c)
        assert abs(s.delta_c - delta_c) <= 1e-12 * delta_c
        assert abs(s.beta_c - beta_c) <= 1e-12 * beta_c

    def test_raw_round_trip(self):
        # raw draws log-uniform over moderate decades (far into the compression zone near
        # the central endpoint the reparameterization loses precision by construction),
        # central draws over the full open intervals
        rng = np.random.default_rng(9)
        gamma = rng.uniform(0.5, 2.0, 5)
        gamma_hat = float(gamma.mean())
        for _ in range(1000):
            beta, delta = 10.0 ** rng.uniform(-1.5, 1.5, 2)
            alpha = 10.0 ** rng.uniform(-1, 1)
            s = StepSizes(gamma=gamma, alpha=alpha, beta=beta, delta=delta)
            back = StepSizes.from_central(gamma, alpha, s.delta_c, s.beta_c)
            assert abs(back.delta - delta) <= 1e-12 * delta
            assert abs(back.beta - beta) <= 1e-12 * beta
            delta_c = rng.uniform(0.0, 1.0) / gamma_hat
            beta_c = rng.uniform(0.0, 1.0) / (alpha + gamma_hat / gamma.size)
            if delta_c > 0.0 and beta_c > 0.0:
                s = StepSizes.from_central(gamma, alpha, delta_c, beta_c)
                assert abs(s.delta_c - delta_c) <= 1e-12 * delta_c
                assert abs(s.beta_c - beta_c) <= 1e-12 * beta_c


class TestLocalProx:
    def test_singleton_set_ignores_cost(self):
        agent = AgentSpec(
            omega=BoxSimplex(np.array([1.0]), 1.0),
            cost=QuadraticAgg(5.0, np.array([-3.0]), np.array([[2.0]])),
            A=np.array([[1.0]]),
            b=np.array([0.0]),
        )
        z = local_prox(
            game_of([agent]),
            sigma=np.array([9.0]),
            linear=np.array([[4.0]]),
            center=np.array([[-1.0]]),
            gamma=np.array([1.0]),
        )
        assert np.allclose(z, [[1.0]])

    def test_fast_path_matches_generic_path(self, desk_game, rng):
        # same subproblem through the exact projection and through FISTA; gamma varies the metric
        agent = desk_game.agents[0]
        one = game_of([agent])
        n = desk_game.dims.n
        for _ in range(10):
            sigma, linear, center = rng.standard_normal((3, n))
            gamma = rng.uniform(0.5, 2.0, 1)
            fast = local_prox(one, sigma, linear[None], center[None], gamma, 1e-12)[0]
            metric = one.unit_diag[0] / gamma[0]

            def grad(z):
                return agent.cost.grad(z, sigma) + linear + metric * (z - center)

            generic = fista_minimize(
                grad,
                agent.omega.project,
                center,
                lipschitz=agent.cost.a + float(metric.max()),
                strong_convexity=agent.cost.a + float(metric.min()),
                tol=1e-11,
            )
            assert np.max(np.abs(fast - generic)) <= 1e-8

    def test_nonpositive_gamma_raises_in_every_row(self, desk_game):
        # the closed-form rows and the iterative rows check the step sizes alike
        n = desk_game.dims.n
        rows = np.zeros((2, n))
        for game in (desk_game, wrap_costs_in_oracles(desk_game)):
            part = game_of(game.agents[:2])
            for gamma in ([1.0, -1.0], [0.0, 1.0], [np.nan, 1.0]):
                with pytest.raises(InvalidStepSizes):
                    local_prox(part, np.zeros(n), rows, rows, np.array(gamma))

    def test_dense_metric_output_meets_tolerance(self, rng):
        n = 3
        agent = AgentSpec(
            omega=BoxSimplex(np.full(n, 0.9), 1.0),
            cost=QuadraticAgg(1.2, rng.standard_normal(n), 0.1 * rng.standard_normal((n, n))),
            A=rng.standard_normal((2, n)),
            b=np.zeros(2),
        )
        gamma = np.array([0.7])
        M = (agent.A.T @ agent.A + np.eye(n)) / gamma[0]
        sigma, linear, center = rng.standard_normal((3, n))
        z = local_prox(game_of([agent]), sigma, linear[None], center[None], gamma, 1e-10)[0]

        def grad(v):
            return agent.cost.grad(v, sigma) + linear + M @ (v - center)

        residual = np.linalg.norm(z - agent.omega.project(z - grad(z)))
        assert residual <= 1e-10


class TestResolventA:
    def test_fixed_point_when_gradient_vanishes_on_the_graph(self, monotone_game, monotone_steps):
        # aggregate-free costs with interior targets: x = xtilde has zero gradient
        X = np.stack([agent.cost.xtilde for agent in monotone_game.agents])
        Y = np.stack([agent.A @ X[i] - agent.b for i, agent in enumerate(monotone_game.agents)])
        w = ExtendedPoint(
            x=X,
            y=Y,
            sigma=np.full(monotone_game.dims.n, 0.2),
            mu=np.full(monotone_game.dims.n, -0.4),
            lam=np.full(monotone_game.dims.m, 0.7),
        )
        out = resolvent_A(monotone_game, monotone_steps, w)
        assert np.max(np.abs(out.as_vector() - w.as_vector())) <= 1e-9

    def test_inclusion_residual_on_random_points(self, desk_game, desk_steps, rng):
        for _ in range(20):
            w = random_extended_point(desk_game, rng)
            out = resolvent_A(desk_game, desk_steps, w, tol=1e-10)
            assert inclusion_residual_A(desk_game, desk_steps, w, out) <= 1e-8

    def test_central_blocks_pass_through_bitwise(self, desk_game, desk_steps, rng):
        w = random_extended_point(desk_game, rng)
        out = resolvent_A(desk_game, desk_steps, w)
        assert np.array_equal(out.sigma, w.sigma)
        assert np.array_equal(out.mu, w.mu)
        assert np.array_equal(out.lam, w.lam)

    def test_links_and_membership_by_construction(self, desk_game, desk_steps, rng):
        w = random_extended_point(desk_game, rng)
        out = resolvent_A(desk_game, desk_steps, w)
        X = out.x
        for i, agent in enumerate(desk_game.agents):
            assert in_box_simplex(X[i], agent.omega, tol=1e-9)
            assert np.allclose(out.y[i], agent.A @ X[i] - agent.b, atol=1e-14)

    def test_general_coupling_blocks_through_fista(self, rng):
        # non-diagonal A' A exercises the dense-metric path inside the resolvent
        N, n, m = 2, 3, 2
        agents = [
            AgentSpec(
                omega=BoxSimplex(np.full(n, 0.8), 1.0),
                cost=QuadraticAgg(1.0 + i, 0.2 * rng.standard_normal(n), np.zeros((n, n))),
                A=rng.standard_normal((m, n)),
                b=rng.standard_normal(m),
            )
            for i in range(N)
        ]
        game = GameSpec(dims=Dimensions(N, n, m), agents=agents)
        steps = StepSizes(gamma=np.array([0.8, 1.3]), alpha=1.0, beta=1.0, delta=1.0)
        for _ in range(5):
            w = random_extended_point(game, rng)
            out = resolvent_A(game, steps, w, tol=1e-11)
            assert inclusion_residual_A(game, steps, w, out) <= 1e-8


class TestResolventB:
    def test_zero_is_fixed(self, desk_game, desk_steps):
        dims = desk_game.dims
        w = ExtendedPoint(
            x=np.zeros((dims.N, dims.n)),
            y=np.zeros((dims.N, dims.m)),
            sigma=np.zeros(dims.n),
            mu=np.zeros(dims.n),
            lam=np.zeros(dims.m),
        )
        out = resolvent_B(desk_game.dims, desk_steps, w)
        assert out.norm() == 0.0

    def test_scalar_hand_values(self):
        dims = Dimensions(1, 1, 1)
        steps = StepSizes(gamma=np.array([1.0]), alpha=1.0, beta=1.0, delta=1.0)
        w = ExtendedPoint(x=np.ones((1, 1)), y=np.ones((1, 1)), sigma=np.zeros(1), mu=np.zeros(1), lam=np.zeros(1))
        out = resolvent_B(dims, steps, w)
        assert out.mu == pytest.approx(-1.0 / 3.0)
        assert out.lam == pytest.approx(0.5)
        assert out.x == pytest.approx(2.0 / 3.0)
        assert out.y == pytest.approx(0.5)
        assert out.sigma == pytest.approx(1.0 / 3.0)
        dense = dense_resolvent_B(dims, steps, w)
        assert np.allclose(out.as_vector(), dense.as_vector(), atol=1e-12)

    def test_matches_dense_solve_on_random_points(self, desk_game, desk_steps, rng):
        for _ in range(25):
            w = random_extended_point(desk_game, rng)
            out = resolvent_B(desk_game.dims, desk_steps, w)
            dense = dense_resolvent_B(desk_game.dims, desk_steps, w)
            assert np.max(np.abs(out.as_vector() - dense.as_vector())) <= 1e-10

    def test_inclusion_residual_on_random_points(self, desk_game, desk_steps, rng):
        for _ in range(50):
            w = random_extended_point(desk_game, rng)
            out = resolvent_B(desk_game.dims, desk_steps, w)
            assert inclusion_residual_B(desk_game, desk_steps, w, out) <= 1e-10

    def test_affine_where_multiplier_stays_positive(self, desk_game, desk_steps, rng):
        dims = desk_game.dims
        for _ in range(20):
            w1 = random_extended_point(desk_game, rng)
            w2 = random_extended_point(desk_game, rng)
            # push the link blocks up so the rescaled multiplier stays positive
            w1.y = np.abs(w1.y) + 1.0
            w2.y = np.abs(w2.y) + 1.0
            w1.lam = np.abs(w1.lam)
            w2.lam = np.abs(w2.lam)
            t = 0.3
            mix = t * w1 + (1.0 - t) * w2
            lhs = resolvent_B(dims, desk_steps, mix)
            r1 = resolvent_B(dims, desk_steps, w1)
            r2 = resolvent_B(dims, desk_steps, w2)
            assert min(r1.lam.min(), r2.lam.min(), lhs.lam.min()) > 0
            rhs = t * r1 + (1.0 - t) * r2
            assert np.max(np.abs(lhs.as_vector() - rhs.as_vector())) <= 1e-10


class TestFirmNonexpansiveness:
    def test_both_resolvents_on_monotone_instance(self, monotone_game, monotone_steps, rng):
        for _ in range(40):
            w1 = random_extended_point(monotone_game, rng)
            w2 = random_extended_point(monotone_game, rng)
            for J in (
                lambda u: resolvent_A(monotone_game, monotone_steps, u),
                lambda u: resolvent_B(monotone_game.dims, monotone_steps, u),
            ):
                d_out = J(w1) - J(w2)
                d_in = w1 - w2
                lhs = monotone_steps.gamma_inv_inner(d_out, d_out)
                rhs = monotone_steps.gamma_inv_inner(d_out, d_in)
                assert lhs <= rhs + 1e-8

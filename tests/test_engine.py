import dataclasses
import inspect

import numpy as np
import pytest

from aggsplit import (
    AgentSpec,
    AgentState,
    AggregateMessage,
    BoxSimplex,
    BroadcastMessage,
    CoordinatorState,
    Dimensions,
    DrEngine,
    GameSpec,
    Infeasible,
    InvalidStepSizes,
    MaxItersExceeded,
    QuadraticAgg,
    RunConfig,
    StepSizes,
    agent_update,
    benchmark_steps,
    coordinator_update,
    dr_init,
    kkt_residual,
    raw_dr_step,
    run_dr,
    run_pfb,
)
from aggsplit.benchmark import BenchmarkParams, generate_benchmark, ground_truth_point
from aggsplit.engine import CSV_HEADER, GATE_FACTOR, pfb_step_sizes
from aggsplit.projections import fista_minimize
from oracles import engine_at, game_of, reference_rounds, wrap_costs_in_oracles

# unit, under- and over-relaxed rounds, each checked against the raw iteration
RELAXATIONS = (1.0, 0.9, 1.5)


def assert_rounds_match_row_views(game, steps, rounds=5):
    """The batched round against every agent's own row view of the same broadcast, bitwise."""
    cfg = RunConfig(steps=steps)
    engine = DrEngine(game, cfg)
    for _ in range(rounds):
        rows = [
            agent_update(
                agent,
                AgentState(x=engine.X[i], y=engine.Y[i]),
                engine.bcast,
                steps.gamma[i],
                game.dims.N,
                tol=cfg.prox_tol,
            )
            for i, agent in enumerate(game.agents)
        ]
        engine.step()
        assert np.array_equal(engine.X, np.stack([row.x for row in rows]))
        assert np.array_equal(engine.Y, np.stack([row.y for row in rows]))


def two_agent_toy(q1=0.5, q2=0.8, b=5.0):
    """Strongly convex scalar game with diagonal aggregate coupling."""
    agents = [
        AgentSpec(
            omega=BoxSimplex(np.array([1.0]), 0.5),
            cost=QuadraticAgg(a, np.array([xt]), np.array([[q]])),
            A=np.array([[1.0]]),
            b=np.array([b / 2.0]),
        )
        for a, xt, q in ((1.0, 0.2, q1), (2.0, 0.4, q2))
    ]
    return GameSpec(dims=Dimensions(2, 1, 1), agents=agents)


def zero_coupling_game(n=3):
    """No coupling rows bind; targets interior, costs aggregate-free."""
    rngs = np.random.default_rng(5)
    agents = []
    for _ in range(3):
        upper = np.full(n, 0.9)
        omega = BoxSimplex(upper, 1.0)
        xt = omega.project(np.full(n, 1.0 / n))
        agents.append(
            AgentSpec(
                omega=omega,
                cost=QuadraticAgg(1.0 + rngs.random(), xt, np.zeros((n, n))),
                A=np.zeros((n, n)),
                b=np.full(n, 1.0),
            )
        )
    return GameSpec(dims=Dimensions(3, n, n), agents=agents)


class TestDrInit:
    def test_default_start_is_deterministic(self, desk_game, desk_steps):
        cfg = RunConfig(steps=desk_steps)
        X1, Y1, c1 = dr_init(desk_game, cfg)
        X2, Y2, c2 = dr_init(desk_game, cfg)
        assert np.array_equal(X1, X2)
        assert np.array_equal(Y1, Y2)
        assert np.array_equal(c1.sigma, c2.sigma)
        # default point is the projection of the origin, in a fresh writable array
        assert np.array_equal(X1[0], desk_game.agents[0].omega.project(np.zeros(desk_game.dims.n)))
        assert X1.flags.writeable and not np.shares_memory(X1, X2)

    def test_initial_links_and_aggregates(self, desk_game, desk_steps):
        X, Y, coord = dr_init(desk_game, RunConfig(steps=desk_steps))
        assert X.shape == (desk_game.dims.N, desk_game.dims.n)
        for i, agent in enumerate(desk_game.agents):
            assert np.allclose(Y[i], agent.A @ X[i] - agent.b, atol=1e-14)
        assert np.allclose(coord.sigma, X.mean(axis=0))
        assert np.all(coord.mu == 0.0)
        assert np.all(coord.lam == 0.0)

    def test_boundary_central_steps_rejected(self):
        with pytest.raises(InvalidStepSizes):
            StepSizes.from_central(np.ones(5), 1.0, 1.0, 0.5)  # delta_c at 1/gamma_hat

    def test_paper_defaults_accepted_for_populations(self):
        # gamma_hat = 1: bounds are 1 and 1/(1 + 1/N)
        for N in (2, 10, 50):
            benchmark_steps(N)

    def test_extreme_admissible_raw_steps_run(self, desk_game, desk_steps):
        # delta_c rounds to 1 / gamma_hat, yet the positive raw entries make the run admissible
        steps = StepSizes(gamma=np.ones(desk_game.dims.N), alpha=1.0, beta=1.0, delta=1e16)
        assert steps.delta_c == 1.0
        ref = run_dr(desk_game, RunConfig(steps=desk_steps, stop_tol=1e-8)).final_point.x
        for relaxation in (1.0, 0.9):
            trace = run_dr(desk_game, RunConfig(steps=steps, stop_tol=1e-8, relaxation=relaxation))
            assert trace.stop_reason == "stop_tol"
            assert np.max(np.abs(trace.final_point.x - ref)) <= 1e-6


class TestAgentUpdate:
    def test_singleton_set_keeps_x_and_recomputes_link(self):
        agent = AgentSpec(
            omega=BoxSimplex(np.array([1.0]), 1.0),
            cost=QuadraticAgg(3.0, np.array([0.0]), np.array([[1.0]])),
            A=np.array([[2.0]]),
            b=np.array([0.5]),
        )
        state = AgentState(x=np.array([1.0]), y=np.array([99.0]))
        bcast = BroadcastMessage(lam=np.array([0.3]), mu=np.array([0.1]), sigma=np.array([0.2]))
        out = agent_update(agent, state, bcast, gamma_i=1.0, n_agents=4)
        assert np.allclose(out.x, [1.0])
        assert np.allclose(out.y, [1.5])

    def test_unpressured_minimizer_is_fixed(self):
        # interior target, no coupling pressure: the prox center is optimal
        omega = BoxSimplex(np.array([0.9, 0.9]), 1.0)
        xt = omega.project(np.array([0.5, 0.5]))
        agent = AgentSpec(
            omega=omega,
            cost=QuadraticAgg(2.0, xt, np.zeros((2, 2))),
            A=np.eye(2),
            b=np.zeros(2),
        )
        state = AgentState(x=xt.copy(), y=agent.A @ xt - agent.b)
        bcast = BroadcastMessage(lam=np.zeros(2), mu=np.zeros(2), sigma=np.zeros(2))
        out = agent_update(agent, state, bcast, gamma_i=0.7, n_agents=3)
        assert np.max(np.abs(out.x - xt)) <= 1e-10

    def test_matches_generic_solver_on_random_broadcasts(self, desk_game, rng):
        n = desk_game.dims.n
        agent = desk_game.agents[2]
        gamma_i = 0.9
        for _ in range(5):
            bcast = BroadcastMessage(
                lam=np.abs(rng.standard_normal(desk_game.dims.m)),
                mu=rng.standard_normal(n),
                sigma=rng.standard_normal(n),
            )
            state = AgentState(x=agent.omega.project(np.zeros(n)), y=np.zeros(desk_game.dims.m))
            out = agent_update(agent, state, bcast, gamma_i, desk_game.dims.N, tol=1e-12)
            metric = (1.0 + np.diag(agent.A.T @ agent.A)) / gamma_i
            linear = agent.A.T @ bcast.lam - bcast.mu / desk_game.dims.N

            def grad(z):
                return agent.cost.grad(z, bcast.sigma) + linear + metric * (z - state.x)

            want = fista_minimize(
                grad,
                agent.omega.project,
                state.x,
                lipschitz=agent.cost.a + float(metric.max()),
                strong_convexity=agent.cost.a + float(metric.min()),
                tol=1e-11,
            )
            assert np.max(np.abs(out.x - want)) <= 1e-8

    def test_negative_broadcast_multiplier_rejected(self, desk_game):
        agent = desk_game.agents[0]
        state = AgentState(x=agent.omega.project(np.zeros(desk_game.dims.n)), y=np.zeros(desk_game.dims.m))
        bcast = BroadcastMessage(
            lam=-np.ones(desk_game.dims.m),
            mu=np.zeros(desk_game.dims.n),
            sigma=np.zeros(desk_game.dims.n),
        )
        with pytest.raises(ValueError):
            agent_update(agent, state, bcast, 1.0, desk_game.dims.N)


class TestCoordinatorUpdate:
    def _coord(self, sigma, mu, lam, xhat, yhat):
        return CoordinatorState(
            sigma=np.atleast_1d(np.asarray(sigma, float)),
            mu=np.atleast_1d(np.asarray(mu, float)),
            lam=np.atleast_1d(np.asarray(lam, float)),
            prev_xhat=np.atleast_1d(np.asarray(xhat, float)),
            prev_yhat=np.atleast_1d(np.asarray(yhat, float)),
        )

    def test_nonpositive_drift_keeps_zero_multiplier(self):
        steps = benchmark_steps(4)
        coord = self._coord(0.0, 0.0, 0.0, 0.0, 0.05)
        agg = AggregateMessage(xhat=np.array([0.0]), yhat=np.array([-0.1]))
        new, bcast = coordinator_update(coord, agg, steps)
        assert new.lam == pytest.approx(0.0)
        assert np.array_equal(bcast.lam, new.lam)

    def test_consensus_fixed_point(self):
        steps = benchmark_steps(4)
        sigma = np.array([0.7])
        coord = self._coord(sigma, 0.0, 0.2, 0.3, 0.0)
        # 2 xhat_new - xhat_old == sigma keeps mu at zero and sigma in place
        agg = AggregateMessage(xhat=(sigma + coord.prev_xhat) / 2.0, yhat=np.array([0.0]))
        new, _ = coordinator_update(coord, agg, steps)
        assert new.mu == pytest.approx(0.0)
        assert new.sigma == pytest.approx(sigma)

    def test_hand_computed_multiplier(self):
        steps = benchmark_steps(4)  # delta_c = 0.5
        assert steps.delta_c == pytest.approx(0.5)
        coord = self._coord(0.0, 0.0, 0.1, 0.0, 0.1)
        agg = AggregateMessage(xhat=np.array([0.0]), yhat=np.array([0.2]))
        new, _ = coordinator_update(coord, agg, steps)
        assert new.lam == pytest.approx(0.25)

    def test_lagged_aggregates_advance(self):
        steps = benchmark_steps(4)
        coord = self._coord(0.0, 0.0, 0.0, 0.1, 0.2)
        agg = AggregateMessage(xhat=np.array([0.5]), yhat=np.array([-0.3]))
        new, _ = coordinator_update(coord, agg, steps)
        assert np.array_equal(new.prev_xhat, agg.xhat)
        assert np.array_equal(new.prev_yhat, agg.yhat)


class TestEngineRounds:
    def test_solution_is_a_fixed_point(self, desk_game, desk_steps):
        point, _ = ground_truth_point(desk_game, tol=1e-10, cross_check=False)
        engine = engine_at(desk_game, RunConfig(steps=desk_steps), point)
        before = engine.point()
        engine.step()
        after = engine.point()
        for blk in ("x", "sigma", "mu", "lam"):
            assert np.max(np.abs(getattr(after, blk) - getattr(before, blk))) <= 1e-8

    def test_rounds_match_straight_line_reference_exactly(self):
        game = two_agent_toy()
        steps = benchmark_steps(2)
        want = reference_rounds(game, steps, iters=3)
        cold = reference_rounds(game, steps, iters=3, guess=False)
        engine = DrEngine(game, RunConfig(steps=steps))
        for k in range(3):
            engine.step()
            assert np.array_equal(engine.X, want[k])
            # the warm start moves a projection by a few ulps at most
            assert np.max(np.abs(engine.X - cold[k])) <= 1e-15

    def test_batched_and_per_agent_paths_agree(self, desk_game, desk_steps):
        assert desk_game.closed_form
        assert_rounds_match_row_views(desk_game, desk_steps)

    def test_link_invariant_after_each_round(self, desk_game, desk_steps):
        engine = DrEngine(desk_game, RunConfig(steps=desk_steps))
        for _ in range(4):
            engine.step()
            for i, agent in enumerate(desk_game.agents):
                assert np.max(np.abs(engine.Y[i] - (agent.A @ engine.X[i] - agent.b))) <= 1e-12

    def test_multiplier_nonnegative_after_each_round(self, desk_game, desk_steps):
        engine = DrEngine(desk_game, RunConfig(steps=desk_steps))
        for _ in range(10):
            engine.step()
            assert np.all(engine.coord.lam >= 0.0)


class TestRunDr:
    def test_small_benchmark_converges(self, desk_game, desk_steps):
        trace = run_dr(desk_game, RunConfig(steps=desk_steps, stop_tol=1e-8), validate=False)
        assert trace.converged
        assert trace.final_kkt.stationarity <= 1e-7
        assert trace.final_kkt.consensus <= 1e-7

    def test_strongly_monotone_toy_converges_quickly(self):
        game = two_agent_toy()
        trace = run_dr(
            game,
            RunConfig(steps=benchmark_steps(2), stop_tol=1e-8, max_iters=500),
            validate=False,
        )
        assert trace.converged and trace.iterations < 500

    def test_infeasible_game_rejected_before_running(self):
        game = two_agent_toy(b=0.2)  # coupling cap below anything reachable
        with pytest.raises(Infeasible):
            run_dr(game, RunConfig(steps=benchmark_steps(2)))

    def test_max_iters_carries_partial_trace(self, desk_game, desk_steps):
        with pytest.raises(MaxItersExceeded) as err:
            run_dr(desk_game, RunConfig(steps=desk_steps, stop_tol=1e-14, max_iters=5), validate=False)
        trace = err.value.trace
        assert trace.iterations == 5
        assert not trace.converged
        assert trace.rows[-1].iter == 5

    def test_run_at_its_numerical_floor_ends_stalled(self):
        # the stopping metric of this run never gets below 2.1e-14 and its KKT residual
        # stays at or below 2.8e-14 from round 150 (numpy 2.4, x86-64 OpenBLAS); stop_tol
        # sits 2.7x below the first floor and its gate 2.8x above the second.  Both floors
        # are round-off of about the same size, so the two margins multiply to about
        # GATE_FACTOR and neither can be made much wider.
        game = generate_benchmark(BenchmarkParams(N=100, n=10, seed=1))
        config = RunConfig(steps=benchmark_steps(100), stop_tol=8e-15, max_iters=400)
        trace = run_dr(game, config, validate=False)
        assert trace.stop_reason == "stalled" and trace.converged
        assert trace.iterations <= 250
        assert trace.final_kkt.max_value() <= GATE_FACTOR * config.stop_tol
        assert trace.rows[-1].iter == trace.iterations

    def test_run_at_a_floor_above_its_gate_ends_unconverged(self):
        # the same run with stop_tol 8x lower: its KKT residual stays near 2e-14, twice
        # this gate, so a failed stall check soon finds no improvement on the one before
        game = generate_benchmark(BenchmarkParams(N=100, n=10, seed=1))
        config = RunConfig(steps=benchmark_steps(100), stop_tol=1e-15, max_iters=600)
        with pytest.raises(MaxItersExceeded) as err:
            run_dr(game, config, validate=False)
        trace = err.value.trace
        assert trace.stop_reason == "floor" and not trace.converged
        assert trace.iterations < config.max_iters
        assert trace.final_kkt.max_value() > GATE_FACTOR * config.stop_tol
        assert trace.rows[-1].iter == trace.iterations

    @pytest.mark.parametrize("seed, reason, rounds", [(0, "stalled", 2667), (1, "floor", 1512)])
    def test_a_slow_relaxed_run_keeps_its_stop_reason(self, seed, reason, rounds):
        # rho = 1.6 on the desk preset converges slowly: the first failed stall look of seed 0
        # finds a KKT residual of 0.70 against 0.62 at round 0, and the run still goes on to
        # stall under its gate; seed 1 ends at a floor of 3.9e-5, below its round-0 value of 0.8
        game = generate_benchmark(BenchmarkParams(N=50, n=5, seed=seed))
        config = RunConfig(steps=benchmark_steps(50), relaxation=1.6, record_every=100_000)
        try:
            trace = run_dr(game, config, validate=False)
        except MaxItersExceeded as exc:
            trace = exc.trace
        assert (trace.stop_reason, trace.iterations) == (reason, rounds)
        assert trace.final_kkt.max_value() < trace.rows[0].kkt.max_value()

    @pytest.mark.parametrize("reason", ["stop_tol", "stalled", "floor", "diverged", "max_iters"])
    def test_every_stop_writes_one_last_row(self, desk_game, desk_steps, reason):
        # the floor runs of the two tests above, and rho = 1.9 on the desk preset, whose KKT
        # residual stops falling 57 rounds in, above its round-0 value; every run stops
        # before its first recorded round
        game = desk_game
        config = RunConfig(steps=desk_steps, stop_tol=1e-8, record_every=1000)
        if reason == "diverged":
            game = generate_benchmark(BenchmarkParams(N=50, n=5, seed=0))
            config = RunConfig(steps=benchmark_steps(50), relaxation=1.9, record_every=1000)
        elif reason in ("stalled", "floor"):
            game = generate_benchmark(BenchmarkParams(N=100, n=10, seed=1))
            tol = 8e-15 if reason == "stalled" else 1e-15
            config = RunConfig(steps=benchmark_steps(100), stop_tol=tol, max_iters=600, record_every=1000)
        elif reason == "max_iters":
            config = dataclasses.replace(config, stop_tol=1e-14, max_iters=26)
        try:
            trace = run_dr(game, config, validate=False)
        except MaxItersExceeded as exc:
            trace = exc.trace
        iters = [row.iter for row in trace.rows]
        assert trace.stop_reason == reason
        assert trace.converged == (reason in ("stop_tol", "stalled"))
        assert iters == [0, trace.iterations]
        assert trace.final_kkt is trace.rows[-1].kkt
        assert trace.final_kkt == kkt_residual(game, trace.final_point)

    @pytest.mark.parametrize("method, record_every", [("dr", 1), ("pfb", 1000)])
    def test_a_gradient_turning_nan_ends_the_run_that_round(
        self, desk_game, desk_steps, monkeypatch, method, record_every
    ):
        # agent 0's gradient is NaN from round k on: the rounds' prox returns that agent's
        # decision as NaN, as does the baseline's step, and the run ends that round; with no
        # KKT row due (pfb) only the stopping metric shows it
        import aggsplit.engine as engine_mod

        k, rounds = 7, []
        engine_cls = DrEngine if method == "dr" else engine_mod.PfbEngine
        real_step = engine_cls.step

        def counted_step(self):
            rounds.append(1)
            real_step(self)

        monkeypatch.setattr(engine_cls, "step", counted_step)
        game = wrap_costs_in_oracles(desk_game)
        first = game.agents[0]
        grad = first.cost.grad
        nan_from_k = lambda x, sigma: grad(x, sigma) + (np.nan if len(rounds) >= k else 0.0)
        cost = dataclasses.replace(first.cost, grad_fn=nan_from_k)
        agents = [AgentSpec(omega=first.omega, cost=cost, A=first.A, b=first.b), *game.agents[1:]]
        runner = run_dr if method == "dr" else run_pfb
        config = RunConfig(steps=desk_steps, record_every=record_every)
        with pytest.raises(MaxItersExceeded) as err:
            runner(GameSpec(dims=game.dims, agents=agents), config, validate=False)
        trace = err.value.trace
        assert (trace.stop_reason, trace.iterations, trace.rows[-1].iter) == ("diverged", k, k)
        assert np.isnan(trace.final_kkt.max_value())

    def test_repeated_runs_are_bit_identical(self, desk_game, desk_steps):
        cfg = RunConfig(steps=desk_steps, stop_tol=1e-8)
        t1 = run_dr(desk_game, cfg, validate=False)
        t2 = run_dr(desk_game, cfg, validate=False)
        assert t1.to_csv(include_wall=False) == t2.to_csv(include_wall=False)

    def test_consensus_and_slackness_at_convergence(self, desk_game, desk_steps):
        tol = 1e-8
        trace = run_dr(desk_game, RunConfig(steps=desk_steps, stop_tol=tol), validate=False)
        point = trace.final_point
        xhat = point.x.mean(axis=0)
        assert np.max(np.abs(point.sigma - xhat)) <= 10 * tol
        assert np.max(np.abs(point.mu)) <= 10 * tol
        resid = desk_game.coupling_value(point.x) - desk_game.b_total
        assert abs(point.lam @ resid) <= 10 * tol * (1.0 + np.linalg.norm(point.lam))

    def test_relaxed_runs_reach_the_same_solution(self, desk_game, desk_steps):
        base = run_dr(desk_game, RunConfig(steps=desk_steps, stop_tol=1e-9), validate=False)
        relaxed = run_dr(
            desk_game,
            RunConfig(steps=desk_steps, stop_tol=1e-9, relaxation=0.7),
            validate=False,
        )
        assert relaxed.converged
        assert np.linalg.norm(base.final_point.x - relaxed.final_point.x) <= 1e-6

    def test_relaxed_run_initializes_once(self, desk_game, desk_steps, monkeypatch):
        import aggsplit.engine as engine_mod

        calls = []
        real = engine_mod.dr_init

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "dr_init", counted)
        trace = run_dr(
            desk_game, RunConfig(steps=desk_steps, stop_tol=1e-8, relaxation=1.5), validate=False
        )
        assert trace.converged
        assert len(calls) == 1

    def test_invalid_relaxation_rejected(self, desk_steps):
        with pytest.raises(InvalidStepSizes):
            RunConfig(steps=desk_steps, relaxation=2.0)

    @pytest.mark.parametrize("prox_tol", [np.nan, np.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_prox_tol_rejected(self, desk_steps, prox_tol):
        with pytest.raises(ValueError, match="prox_tol"):
            RunConfig(steps=desk_steps, prox_tol=prox_tol)

    @pytest.mark.parametrize(
        "tols", [{"stop_tol": np.nan}, {"stop_tol": -1e-8}, {"stop_tol": 0.0}, {"stop_tol": np.inf}]
    )
    def test_nan_or_negative_tolerance_rejected(self, desk_steps, tols):
        with pytest.raises(ValueError, match="stop_tol"):
            RunConfig(steps=desk_steps, **tols)


class TestRawIteration:
    def test_zero_relaxation_freezes_the_iterate(self, desk_game, desk_steps, rng):
        from aggsplit.verify import random_extended_point

        w = random_extended_point(desk_game, rng)
        out = raw_dr_step(w, desk_game, desk_steps, relaxation=0.0)
        assert np.array_equal(out.tilde.as_vector(), w.as_vector())

    def test_converged_tilde_is_fixed(self, desk_game, desk_steps):
        cfg = RunConfig(steps=desk_steps)
        tilde = DrEngine(desk_game, cfg).point()
        for _ in range(400):
            tilde = raw_dr_step(tilde, desk_game, desk_steps).tilde
        after = raw_dr_step(tilde, desk_game, desk_steps).tilde
        assert (after - tilde).norm() <= 1e-10

    def test_round_engine_matches_raw_trajectories(self, desk_game, desk_steps):
        for rho in RELAXATIONS:
            cfg = RunConfig(steps=desk_steps, relaxation=rho, prox_tol=1e-12)
            engine = DrEngine(desk_game, cfg)
            tilde = DrEngine(desk_game, cfg).point()
            for _ in range(30):
                engine.step()
                half, full, tilde = raw_dr_step(tilde, desk_game, desk_steps, rho, prox_tol=1e-12)
                assert np.max(np.abs(engine.X - half.x)) <= 1e-9, rho
                assert np.max(np.abs(engine.coord.lam - full.lam)) <= 1e-9, rho

    def test_tilde_steps_are_nonincreasing_on_monotone_instance(
        self, monotone_game, monotone_steps
    ):
        cfg = RunConfig(steps=monotone_steps)
        tilde = DrEngine(monotone_game, cfg).point()
        norms = []
        for _ in range(80):
            new = raw_dr_step(tilde, monotone_game, monotone_steps).tilde
            norms.append(monotone_steps.gamma_inv_norm(new - tilde))
            tilde = new
        for prev, cur in zip(norms, norms[1:]):
            assert cur <= prev + 1e-10


@pytest.fixture(scope="module")
def dense_game():
    rng = np.random.default_rng(14)
    N, n, m = 3, 3, 2
    agents = []
    for _ in range(N):
        upper = rng.uniform(0.5, 1.0, n)
        omega = BoxSimplex(upper, 1.0)
        agents.append(
            AgentSpec(
                omega=omega,
                cost=QuadraticAgg(1.0 + rng.random(), omega.project(rng.random(n)), np.zeros((n, n))),
                A=rng.uniform(0.1, 1.0, (m, n)),
                b=rng.uniform(2.0, 3.0, m),
            )
        )
    return GameSpec(dims=Dimensions(N, n, m), agents=agents)


class TestGeneralCoupling:
    """Dense rectangular coupling blocks force the generic prox path end to end."""

    def test_splitting_converges_and_certifies(self, dense_game):
        steps = StepSizes(gamma=np.ones(3), alpha=1.0, beta=1.0, delta=1.0)
        trace = run_dr(dense_game, RunConfig(steps=steps, stop_tol=1e-7, prox_tol=1e-11))
        assert trace.converged
        assert trace.final_kkt.max_value() <= 1e-6

    def test_baseline_agrees(self, dense_game):
        steps = StepSizes(gamma=np.ones(3), alpha=1.0, beta=1.0, delta=1.0)
        dr = run_dr(dense_game, RunConfig(steps=steps, stop_tol=1e-8, prox_tol=1e-11), validate=False)
        pfb = run_pfb(dense_game, RunConfig(steps=steps, stop_tol=1e-8), validate=False)
        assert np.linalg.norm(dr.final_point.x - pfb.final_point.x) <= 1e-5


def mixed_metric_game():
    """Agent 0 has a dense A_0' A_0; the others are scaled identity (diagonal metric)."""
    rng = np.random.default_rng(21)
    N, n = 4, 3
    agents = []
    for i in range(N):
        omega = BoxSimplex(rng.uniform(0.5, 1.0, n), 1.0)
        A = rng.uniform(0.2, 1.0, (n, n)) if i == 0 else rng.uniform(1.0, 2.0) * np.eye(n)
        cost = QuadraticAgg(1.0 + rng.random(), omega.project(rng.random(n)), 0.1 * rng.random((n, n)))
        agents.append(AgentSpec(omega=omega, cost=cost, A=A, b=np.full(n, 0.6)))
    return GameSpec(dims=Dimensions(N, n, n), agents=agents)


class TestOneAgentGames:
    """The one-agent games that ``agent_update`` builds are the rows of the game."""

    def test_one_agent_games_equal_the_game_rows_bitwise(self, desk_game):
        games = (
            desk_game,
            mixed_metric_game(),
            wrap_costs_in_oracles(desk_game),
        )
        for game in games:  # one cost type each, so all_quadratic carries over
            full = game
            for i, agent in enumerate(game.agents):
                one = game_of([agent])
                dense = i in full.dense_rows
                assert one.agents == (agent,) and full.agents[i] is agent
                for f in dataclasses.fields(GameSpec):
                    mine, theirs = getattr(one, f.name), getattr(full, f.name)
                    if f.name == "dense_rows":
                        assert mine.tolist() == ([0] if dense else [])
                    elif f.name == "closed_form":
                        assert mine == (full.all_quadratic and not dense)
                    elif isinstance(theirs, bool):
                        assert mine == theirs, f.name
                    else:
                        row = theirs[full.dense_rows == i] if f.name == "unit_dense" else theirs[i : i + 1]
                        assert mine.dtype == row.dtype and mine.shape == row.shape, f.name
                        assert mine.tobytes() == row.tobytes(), f.name

    def test_value_rows_equal_the_cost_values(self, desk_game, rng):
        # values to round-off; x- and aggregate gradients bit for bit
        N, n = desk_game.dims.N, desk_game.dims.n
        X = rng.random((N, n))
        for game in (desk_game, wrap_costs_in_oracles(desk_game)):
            for sigma in (rng.random(n), rng.random((N, n))):  # shared, then row by row
                S = np.broadcast_to(sigma, X.shape)
                costs = [agent.cost for agent in game.agents]
                expected = [cost.value(x, s) for cost, x, s in zip(costs, X, S)]
                assert np.allclose(game.value(X, sigma), expected, rtol=1e-14, atol=0.0)
                for name in ("grad", "grad_sigma"):
                    rows = np.stack([getattr(cost, name)(x, s) for cost, x, s in zip(costs, X, S)])
                    assert np.array_equal(getattr(game, name)(X, sigma), rows), name


class TestMixedMetricDiagonality:
    """Each agent keeps its own diagonal-or-dense prox metric in a mixed game."""

    def test_metric_choice_is_per_agent(self):
        game = mixed_metric_game()
        assert game.dense_rows.tolist() == [0]
        assert not game.closed_form

    def test_rounds_equal_the_row_views(self):
        # closed rows and the dense row in one local_prox call; per-agent step sizes
        steps = StepSizes(gamma=np.array([0.5, 1.0, 1.5, 1.0]), alpha=1.0, beta=1.0, delta=1.0)
        assert_rounds_match_row_views(mixed_metric_game(), steps)

    def test_rounds_after_the_first_build_no_stacks(self, monkeypatch):
        game = mixed_metric_game()
        engine = DrEngine(game, RunConfig(steps=benchmark_steps(game.dims.N), prox_tol=1e-12))
        engine.step()  # builds the closed and the iterative part once
        built = []
        build = GameSpec._build

        def counting(self, *columns):
            built.append(1)
            return build(self, *columns)

        monkeypatch.setattr(GameSpec, "_build", counting)
        for _ in range(3):
            engine.step()
        assert not built

    def test_resolvent_inclusion_holds(self, rng):
        from aggsplit.resolvents import resolvent_A
        from aggsplit.verify import inclusion_residual_A, random_extended_point

        game = mixed_metric_game()
        steps = StepSizes(gamma=np.array([0.5, 1.0, 1.5, 1.0]), alpha=1.0, beta=1.0, delta=1.0)
        for _ in range(5):
            w = random_extended_point(game, rng)
            out = resolvent_A(game, steps, w, tol=1e-12)
            assert inclusion_residual_A(game, steps, w, out) <= 1e-8

    def test_rounds_match_raw_trajectory(self):
        game = mixed_metric_game()
        steps = benchmark_steps(game.dims.N)
        for rho in RELAXATIONS:
            cfg = RunConfig(steps=steps, relaxation=rho, prox_tol=1e-12)
            engine = DrEngine(game, cfg)
            tilde = DrEngine(game, cfg).point()
            for _ in range(10):
                engine.step()
                half, full, tilde = raw_dr_step(tilde, game, steps, rho, prox_tol=1e-12)
                assert np.max(np.abs(engine.X - half.x)) <= 1e-8, rho
                assert np.max(np.abs(engine.coord.lam - full.lam)) <= 1e-8, rho

    def test_only_the_dense_agent_takes_the_iterative_prox(self, monkeypatch):
        import aggsplit.resolvents as resolvents_mod

        game = mixed_metric_game()
        starts = []
        real = resolvents_mod.fista_minimize

        def spy(grad, project, z0, *args, **kwargs):
            starts.append(z0.copy())
            return real(grad, project, z0, *args, **kwargs)

        monkeypatch.setattr(resolvents_mod, "fista_minimize", spy)
        engine = DrEngine(game, RunConfig(steps=benchmark_steps(game.dims.N)))
        centers = []
        for _ in range(3):
            centers.append(engine.X[0].copy())
            engine.step()
        # one lock-step solve per round, over agent 0's row alone
        assert len(starts) == 3
        for z0, center in zip(starts, centers):
            assert z0.shape == (1, game.dims.n)
            assert np.array_equal(z0[0], center)


class TestLockStepProx:
    """Games off the closed form solve all agents' proxes in one lock-step solve."""

    def test_oracle_cost_rounds_equal_the_row_views(self, desk_game, desk_steps):
        assert_rounds_match_row_views(wrap_costs_in_oracles(desk_game), desk_steps)

    def test_one_iterative_solve_per_round(self, desk_game, desk_steps, monkeypatch):
        import aggsplit.resolvents as resolvents_mod

        game = wrap_costs_in_oracles(desk_game)
        starts = []
        real = resolvents_mod.fista_minimize

        def spy(grad, project, z0, *args, **kwargs):
            starts.append(z0.shape)
            return real(grad, project, z0, *args, **kwargs)

        monkeypatch.setattr(resolvents_mod, "fista_minimize", spy)
        engine = DrEngine(game, RunConfig(steps=desk_steps))
        for _ in range(4):
            engine.step()
        assert starts == [(game.dims.N, game.dims.n)] * 4

    def test_resolvent_inclusion_holds(self, desk_game, desk_steps, rng):
        from aggsplit.resolvents import resolvent_A
        from aggsplit.verify import inclusion_residual_A, random_extended_point

        game = wrap_costs_in_oracles(desk_game)
        for _ in range(5):
            w = random_extended_point(game, rng)
            out = resolvent_A(game, desk_steps, w, tol=1e-12)
            assert inclusion_residual_A(game, desk_steps, w, out) <= 1e-8


class TestRunPfb:
    def test_relaxation_other_than_one_is_refused(self, desk_game, desk_steps):
        with pytest.raises(InvalidStepSizes, match="relaxation"):
            run_pfb(desk_game, RunConfig(steps=desk_steps, relaxation=0.3), validate=False)

    def test_zero_coupling_toy_hits_closed_form(self):
        game = zero_coupling_game()
        steps = benchmark_steps(3)
        trace = run_pfb(game, RunConfig(steps=steps, stop_tol=1e-10), validate=False)
        want = np.stack([agent.cost.xtilde for agent in game.agents])
        assert np.max(np.abs(trace.final_point.x - want)) <= 1e-8
        assert np.all(trace.final_point.lam == 0.0)

    def test_repeated_runs_are_bit_identical(self, desk_game, desk_steps):
        cfg = RunConfig(steps=desk_steps, stop_tol=1e-8)
        t1 = run_pfb(desk_game, cfg, validate=False)
        t2 = run_pfb(desk_game, cfg, validate=False)
        assert t1.to_csv(include_wall=False) == t2.to_csv(include_wall=False)

    def test_agrees_with_the_splitting_on_the_benchmark(self, desk_game, desk_steps):
        dr = run_dr(desk_game, RunConfig(steps=desk_steps, stop_tol=1e-9), validate=False)
        pfb = run_pfb(desk_game, RunConfig(steps=desk_steps, stop_tol=1e-9), validate=False)
        assert np.linalg.norm(dr.final_point.x - pfb.final_point.x) <= 1e-4


    def test_step_sizes_equal_the_per_agent_rule_bitwise(self, desk_game):
        def per_agent_taus(game):
            N = game.dims.N
            L = np.empty(N)
            for i, agent in enumerate(game.agents):
                curv = getattr(agent.cost, "curvature", 1.0)
                coupling = 0.0
                if hasattr(agent.cost, "Q"):
                    coupling = float(np.linalg.norm(agent.cost.Q, 2)) / N
                L[i] = curv + coupling + float(np.linalg.norm(agent.A, 2)) ** 2
            return 0.4 / L

        paper = generate_benchmark(BenchmarkParams(N=200, n=10, seed=0))
        # agent 0 behind oracles, the other rows quadratic
        generic = wrap_costs_in_oracles(desk_game).agents[0]
        mixed = GameSpec(dims=desk_game.dims, agents=[generic, *desk_game.agents[1:]])
        quads = [agent.cost for agent in desk_game.agents[1:]]
        st = mixed
        assert st.quadratic.tolist() == [False] + [True] * (desk_game.dims.N - 1)
        assert st.a.tobytes() == np.array([cost.a for cost in quads]).tobytes()
        assert st.xtilde.tobytes() == np.stack([cost.xtilde for cost in quads]).tobytes()
        assert st.Q.tobytes() == np.stack([cost.Q for cost in quads]).tobytes()
        for game in (desk_game, wrap_costs_in_oracles(desk_game), paper, mixed):
            tau, tau_lam = pfb_step_sizes(game)
            assert np.array_equal(tau, per_agent_taus(game))
            norm_A = float(np.linalg.norm(np.concatenate(game.A, axis=1), 2))
            assert tau_lam == 0.4 / max(norm_A**2, 1e-12)


class TestInformationBoundary:
    def test_coordinator_signature_sees_aggregates_only(self):
        params = list(inspect.signature(coordinator_update).parameters)
        assert params == ["coord", "agg", "steps"]

    def test_uplink_payload_is_n_plus_m_numbers(self, desk_game, desk_steps):
        for rho in (1.0, 0.9):
            engine = DrEngine(desk_game, RunConfig(steps=desk_steps, relaxation=rho))
            engine.step()
            agg = AggregateMessage(xhat=engine.X.mean(axis=0), yhat=engine.Y.mean(axis=0))
            payload = sum(np.asarray(getattr(agg, f)).size for f in ("xhat", "yhat"))
            assert payload == desk_game.dims.n + desk_game.dims.m
            assert set(AggregateMessage.__dataclass_fields__) == {"xhat", "yhat"}

    def test_relaxed_run_never_calls_the_raw_oracle(self, desk_game, desk_steps, monkeypatch):
        import aggsplit.engine as engine_mod
        import aggsplit.resolvents as resolvents_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("the raw iteration is the oracle, not a solver path")

        for module, name in [
            (engine_mod, "raw_dr_step"),
            (engine_mod, "resolvent_A"),
            (engine_mod, "resolvent_B"),
            (resolvents_mod, "resolvent_A"),
            (resolvents_mod, "resolvent_B"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        trace = run_dr(
            desk_game, RunConfig(steps=desk_steps, stop_tol=1e-8, relaxation=0.9), validate=False
        )
        assert trace.converged


class TestTraceFormat:
    def test_csv_header_and_shape(self, desk_game, desk_steps):
        trace = run_dr(desk_game, RunConfig(steps=desk_steps, stop_tol=1e-7), validate=False)
        csv = trace.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == "iter,stationarity,primal,complementarity,consensus,link,step_norm,wall_nanos"
        assert all(len(line.split(",")) == 8 for line in lines[1:])
        assert all(cell != "" for line in lines[1:] for cell in line.split(","))
        iters = [row.iter for row in trace.rows]
        assert iters == sorted(set(iters))

import json
import re
from dataclasses import replace

import numpy as np
import pytest

import aggsplit.benchmark as benchmark_mod
import aggsplit.projections as projections_mod
from aggsplit import (
    AgentSpec,
    BenchmarkParams,
    BoxSimplex,
    Dimensions,
    DimensionMismatch,
    DrEngine,
    EmptyLocalSet,
    GameSpec,
    GenerationFailed,
    GenericSmooth,
    NonSmoothCost,
    NotCertified,
    QuadraticAgg,
    RunConfig,
    benchmark_steps,
    coupling_violation,
    epsilon_nash_gap,
    find_feasible_point,
    gae_vi_residual,
    generate_benchmark,
    ground_truth,
    ground_truth_point,
    kkt_residual,
    run_comparison,
    run_dr,
    run_pfb,
    stationarity_residual,
    validate_game,
)
from aggsplit.engine import PfbEngine
from oracles import (
    dense_coupling_draw,
    deviation_gap,
    per_agent_benchmark,
    wrap_costs_in_oracles,
)


class TestParams:
    def test_defaults_are_full_scale(self):
        p = BenchmarkParams()
        assert (p.N, p.n) == (1000, 10)

    def test_a_negative_seed_is_rejected_naming_it(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            BenchmarkParams(N=4, n=3, seed=-1)


class TestGenerate:
    def test_generated_instance_validates(self, desk_game):
        report = validate_game(desk_game)
        assert report.ok

    def test_same_seed_gives_identical_instances(self):
        p = BenchmarkParams(N=6, n=4, seed=21)
        g1 = generate_benchmark(p)
        g2 = generate_benchmark(p)
        assert json.dumps(g1.to_json_dict()) == json.dumps(g2.to_json_dict())

    def test_agent_streams_extend_without_reshuffling(self):
        small = generate_benchmark(BenchmarkParams(N=6, n=4, seed=5))
        large = generate_benchmark(BenchmarkParams(N=12, n=4, seed=5))
        for i in range(6):
            a, b = small.agents[i], large.agents[i]
            assert np.array_equal(a.omega.upper, b.omega.upper)
            assert a.cost.a == b.cost.a
            assert np.array_equal(a.cost.Q, b.cost.Q)
            assert np.array_equal(a.A, b.A)

    def test_coupling_caps_respect_the_band(self):
        game = generate_benchmark(BenchmarkParams(N=30, n=6, seed=2))
        w = np.array([agent.A[0, 0] for agent in game.agents])
        uppers = np.stack([agent.omega.upper for agent in game.agents])
        cap_totals = np.einsum("i,ij->j", w, uppers)
        b = game.b_total
        assert np.all(b >= 0.5 * cap_totals - 1e-9)
        assert np.all(b <= (2.0 / 3.0) * cap_totals + 1e-9)

    def test_cap_vectors_sum_to_two_within_unit_box(self):
        game = generate_benchmark(BenchmarkParams(N=30, n=6, seed=2))
        for agent in game.agents:
            assert agent.omega.upper.sum() == pytest.approx(2.0)
            assert np.all(agent.omega.upper <= 1.0)

    def test_targets_are_projections_of_the_first_slot_vertex(self):
        game = generate_benchmark(BenchmarkParams(N=4, n=5, seed=9))
        e1 = np.zeros(5)
        e1[0] = 1.0
        for agent in game.agents:
            assert np.allclose(agent.cost.xtilde, agent.omega.project(e1), atol=1e-12)

    def test_saved_game_matches_per_agent_target_projection(self, tmp_path):
        game = generate_benchmark(BenchmarkParams(N=50, n=5, seed=4))
        e1 = np.zeros(5)
        e1[0] = 1.0
        per_agent = GameSpec(
            dims=game.dims,
            agents=[
                replace(agent, cost=replace(agent.cost, xtilde=agent.omega.project(e1)))
                for agent in game.agents
            ],
        )
        game.save(tmp_path / "batched.json")
        per_agent.save(tmp_path / "per_agent.json")
        assert (tmp_path / "batched.json").read_bytes() == (tmp_path / "per_agent.json").read_bytes()

    @pytest.mark.parametrize("N, n, seed", [(6, 4, 21), (50, 5, 4), (1, 10, 0), (30, 6, 2)])
    def test_columns_equal_the_per_agent_draw(self, N, n, seed):
        params = BenchmarkParams(N=N, n=n, seed=seed)
        expected = json.dumps(per_agent_benchmark(params).to_json_dict())
        assert json.dumps(generate_benchmark(params).to_json_dict()) == expected

    def test_generator_and_game_file_build_through_from_columns(self, monkeypatch, tmp_path):
        built = []
        real = GameSpec.from_columns.__func__

        def spy(cls, *args):
            built.append(args[0])
            return real(cls, *args)

        monkeypatch.setattr(GameSpec, "from_columns", classmethod(spy))
        game = generate_benchmark(BenchmarkParams(N=6, n=4, seed=21))
        game.save(tmp_path / "game.json")
        GameSpec.load(tmp_path / "game.json")
        assert built == [game.dims, game.dims]
        monkeypatch.undo()

        names = ("upper", "total", "a", "xtilde", "Q", "A", "b")
        cases = [(name, np.nan, ValueError) for name in names]  # every column is checked finite
        cases += [("upper", -0.5, ValueError), ("total", 10.0, EmptyLocalSet), ("a", 0.0, ValueError)]
        for name, value, error in cases:
            columns = {key: getattr(game, key).copy() for key in names}
            columns[name][2] = value  # all of agent 2's entries in that column
            with pytest.raises(error, match="agent 2") as by_columns:
                GameSpec.from_columns(game.dims, **columns)
            # the same rows as hand-built records: the game, not the records, applies the rules
            rows = zip(*(columns[key] for key in names))
            records = [AgentSpec(BoxSimplex(u, t), QuadraticAgg(a, x, Q), A, b) for u, t, a, x, Q, A, b in rows]
            with pytest.raises(error) as by_records:
                GameSpec(game.dims, records)
            assert str(by_records.value) == str(by_columns.value)

    def test_the_family_path_builds_no_row_records(self, monkeypatch, tmp_path):
        built = []
        for cls in (AgentSpec, BoxSimplex, QuadraticAgg):
            counted = lambda self, real=cls.__post_init__: built.append(self) or real(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        game = generate_benchmark(BenchmarkParams(N=50, n=5, seed=4))
        game.save(tmp_path / "game.json")
        loaded = GameSpec.load(tmp_path / "game.json")
        trace = run_dr(loaded, RunConfig(steps=benchmark_steps(50)))
        point, _ = ground_truth_point(loaded, tol=1e-9)
        for x in (trace.final_point.x, point.x):
            epsilon_nash_gap(loaded, x)
        assert built == []
        st = loaded
        for i, agent in enumerate(loaded.agents):  # built on this first read, one record per row
            assert np.array_equal(agent.omega.upper, st.upper[i]) and agent.omega.total == st.total[i]
            assert agent.cost.a == st.a[i] and np.array_equal(agent.cost.xtilde, st.xtilde[i])
            assert np.array_equal(agent.cost.Q, st.Q[i])
            assert np.array_equal(agent.A, st.A[i]) and np.array_equal(agent.b, st.b[i])
        assert len(built) == 3 * 50 and loaded.agents is loaded.agents

    def test_single_agent_instance_degenerates_cleanly(self):
        game = generate_benchmark(BenchmarkParams(N=1, n=10, seed=0))
        x = game.agents[0].omega.project(np.zeros(10))
        w1 = game.agents[0].A[0, 0]
        assert np.allclose(game.coupling_value(x[None]), w1 * x)
        assert np.allclose(game.b_total, game.agents[0].b)

    def test_impossible_cap_law_raises(self):
        # entries <= 1 summing to 2 cannot exist at n = 1
        with pytest.raises(GenerationFailed):
            generate_benchmark(BenchmarkParams(N=2, n=1, seed=0))


class TestGroundTruth:
    def test_decoupled_instance_has_closed_form(self):
        # no binding coupling and aggregate-free costs: solution is the target
        agents = []
        for a in (1.0, 2.0):
            omega = BoxSimplex(np.array([0.9, 0.9, 0.9]), 1.0)
            xt = omega.project(np.array([0.5, 0.3, 0.2]))
            agents.append(
                AgentSpec(
                    omega=omega,
                    cost=QuadraticAgg(a, xt, np.zeros((3, 3))),
                    A=np.eye(3),
                    b=np.full(3, 5.0),
                )
            )
        game = GameSpec(dims=Dimensions(2, 3, 3), agents=agents)
        xbar = ground_truth(game, tol=1e-9, cross_check=False)
        want = np.stack([agent.cost.xtilde for agent in agents])
        assert np.max(np.abs(xbar - want)) <= 1e-8

    def test_certified_reference_at_population_scale(self):
        game = generate_benchmark(BenchmarkParams(N=50, n=5, seed=4))
        point, trace = ground_truth_point(game, tol=1e-9, cross_check=False)
        assert trace.final_kkt.max_value() <= 1e-9
        assert np.max(coupling_violation(game, point.x)) <= 1e-6

    def test_reference_stops_at_its_certificate(self):
        game = generate_benchmark(BenchmarkParams(N=50, seed=0))
        point, trace = ground_truth_point(game, tol=1e-9, max_iters=400)
        assert trace.stop_reason == "stop_tol"
        assert trace.final_kkt.max_value() <= 1e-9
        config = RunConfig(steps=benchmark_steps(50), stop_tol=1e-12, max_iters=400)
        tight = run_dr(game, config, validate=False)
        assert trace.iterations < tight.iterations
        assert np.max(np.abs(point.x - tight.final_point.x)) <= 1e-9

    def test_independent_methods_agree(self):
        game = generate_benchmark(BenchmarkParams(N=10, n=4, seed=8))
        # the cross-check runs the baseline and enforces 10 * tol agreement
        ground_truth(game, tol=1e-9, cross_check=True)

    def test_probe_runs_once_per_game_and_warns_on_every_call(self, monkeypatch):
        game = generate_benchmark(BenchmarkParams(N=5, n=3, seed=11))  # its probe fails
        grads = count_calls(monkeypatch, GameSpec, "grad")  # the probe samples through the game's gradient
        with pytest.warns(UserWarning, match="monotonicity probe"):
            ground_truth_point(game, tol=1e-8, cross_check=False)
        first = len(grads)
        with pytest.warns(UserWarning, match="monotonicity probe"):
            ground_truth_point(game, tol=1e-8, cross_check=False)
        # the same run twice; only the first call draws the probe's 200 sample pairs
        assert first - (len(grads) - first) == 2 * 200

    def test_uncertifiable_budget_raises(self, desk_game):
        with pytest.raises(NotCertified):
            ground_truth_point(desk_game, tol=1e-13, max_iters=40, cross_check=False)

    def test_a_nan_reference_is_not_certified(self):
        # agent 0's gradient turns NaN after the monotonicity probe's 400 calls: the run
        # diverges in its first round with a NaN residual, which passes no certificate
        game = wrap_costs_in_oracles(generate_benchmark(BenchmarkParams(N=10, n=3, seed=0)))
        first, calls = game.agents[0], []

        def grad(x, sigma):
            calls.append(1)
            return first.cost.grad(x, sigma) + (np.nan if len(calls) > 400 else 0.0)

        agents = [replace(first, cost=replace(first.cost, grad_fn=grad)), *game.agents[1:]]
        with pytest.raises(NotCertified, match="nan"):
            ground_truth_point(GameSpec(dims=game.dims, agents=agents), tol=1e-9)


class TestViResidual:
    def test_small_at_certified_solution(self, desk_game):
        point, _ = ground_truth_point(desk_game, tol=1e-8, cross_check=False)
        assert gae_vi_residual(desk_game, point.x, point.lam) <= 1e-6

    def test_large_far_from_solution(self, desk_game):
        value = gae_vi_residual(desk_game, desk_game.default_points)
        assert value >= 1e-2

    def test_zero_at_unconstrained_stationary_point(self):
        omega = BoxSimplex(np.array([0.9, 0.9]), 1.0)
        xt = omega.project(np.array([0.6, 0.4]))
        agent = AgentSpec(
            omega=omega, cost=QuadraticAgg(1.0, xt, np.zeros((2, 2))), A=np.eye(2), b=np.full(2, 9.0)
        )
        game = GameSpec(dims=Dimensions(1, 2, 2), agents=[agent])
        assert gae_vi_residual(game, xt[None]) == pytest.approx(0.0, abs=1e-12)


def vi_residual_multiplier(game, lam):
    """The VI residual at the default points with the multiplier ``lam``."""
    return gae_vi_residual(game, game.default_points, lam)


class TestEpsilonGap:
    def test_single_agent_gap_is_own_suboptimality(self):
        omega = BoxSimplex(np.array([0.9, 0.9]), 1.0)
        xt = omega.project(np.array([0.5, 0.5]))
        agent = AgentSpec(
            omega=omega, cost=QuadraticAgg(2.0, xt, np.zeros((2, 2))), A=np.eye(2), b=np.full(2, 9.0)
        )
        game = GameSpec(dims=Dimensions(1, 2, 2), agents=[agent])
        assert epsilon_nash_gap(game, xt[None])[0] == pytest.approx(0.0, abs=1e-10)
        other = omega.project(np.array([0.8, 0.1]))
        gap = epsilon_nash_gap(game, other[None])[0]
        # suboptimality of the deviated point equals its cost excess
        want = agent.cost.value(other, other) - agent.cost.value(xt, xt)
        assert gap == pytest.approx(want, rel=1e-6)

    def test_linear_costs_of_zero_curvature_have_the_vertex_gap(self, rng):
        # f_i = c_i'x: the best deviation puts the unit total on the cheapest slot
        N, n = 4, 3
        C = rng.random((N, n))
        agents = [
            AgentSpec(
                omega=BoxSimplex(np.ones(n), 1.0),
                cost=GenericSmooth(
                    value_fn=lambda x, s, c=c: c @ x,
                    grad_fn=lambda x, s, c=c: c,
                    curvature=0.0,
                    grad_sigma_fn=lambda x, s: np.zeros(n),
                ),
                A=np.eye(n),
                b=np.full(n, 10.0),
            )
            for c in C
        ]
        game = GameSpec(dims=Dimensions(N, n, n), agents=agents)
        X = game.default_points
        eps = epsilon_nash_gap(game, X)
        assert np.allclose(eps, np.einsum("ij,ij->i", C, X) - C.min(axis=1), rtol=0.0, atol=1e-12)

    def test_nonnegative_at_arbitrary_feasible_points(self, desk_game):
        eps = epsilon_nash_gap(desk_game, desk_game.default_points)
        assert np.all(eps >= 0.0)

    def test_sampling_mode_lower_bounds_the_exact_gap(self, desk_game):
        point, _ = ground_truth_point(desk_game, tol=1e-8, cross_check=False)
        exact = epsilon_nash_gap(desk_game, point.x)
        sampled = deviation_gap(desk_game, point.x, samples=50)
        assert np.all(sampled <= exact + 1e-8)
        assert np.all(sampled >= 0.0)

    @pytest.mark.parametrize(
        "measure", [epsilon_nash_gap, gae_vi_residual, vi_residual_multiplier]
    )
    @pytest.mark.parametrize("fault, error", [("short", DimensionMismatch), ("nan", ValueError)])
    def test_malformed_decisions_are_rejected(self, desk_game, measure, fault, error):
        if measure is vi_residual_multiplier:
            v = np.zeros(desk_game.dims.m)
        else:
            v = desk_game.default_points.copy()
        if fault == "nan":
            v[0] = np.nan
        else:
            v = v[:-1]
        with pytest.raises(error, match="decision|coupling multiplier"):
            measure(desk_game, v)


def stationarity_at_zero_multiplier(game, x):
    return stationarity_residual(game, x, np.zeros(game.dims.m))


def kkt_at_decisions(game, x):
    """The KKT residuals at the first point of a run, with its decisions replaced by ``x``."""
    point = DrEngine(game, RunConfig(steps=benchmark_steps(game.dims.N))).point()
    point.x = x
    return kkt_residual(game, point)


class TestDecisionLayout:
    @pytest.mark.parametrize(
        "measure",
        [
            epsilon_nash_gap,
            gae_vi_residual,
            stationarity_at_zero_multiplier,
            coupling_violation,
            kkt_at_decisions,
        ],
    )
    def test_a_flat_decision_vector_is_rejected(self, desk_game, measure):
        flat = desk_game.default_points.ravel()
        with pytest.raises(DimensionMismatch, match=re.escape(str(desk_game.upper.shape))):
            measure(desk_game, flat)

    def test_decisions_come_out_as_rows(self, desk_game):
        N, n, m = desk_game.dims.N, desk_game.dims.n, desk_game.dims.m
        assert ground_truth(desk_game, tol=1e-8, cross_check=False).shape == (N, n)
        assert find_feasible_point(desk_game)[0].shape == (N, n)
        assert validate_game(desk_game).feasible_point.shape == (N, n)
        config = RunConfig(steps=benchmark_steps(N), stop_tol=1e-6)
        for runner in (run_dr, run_pfb):
            point = runner(desk_game, config, validate=False).final_point
            assert (point.x.shape, point.y.shape) == ((N, n), (N, m))


@pytest.fixture(scope="module")
def gap_games(desk_game):
    """(game, certified equilibrium) for the desk game and an N=50, n=5 instance."""
    cases = []
    for game in (desk_game, generate_benchmark(BenchmarkParams(N=50, n=5, seed=7))):
        point, _ = ground_truth_point(game, tol=1e-8, cross_check=False)
        cases.append((game, point.x))
    return cases


def gap_points(game, x_eq):
    """The certified equilibrium, and the default points, where many iterations run."""
    return {"equilibrium": x_eq, "default": game.default_points}


def count_calls(monkeypatch, module, name):
    """Record every call of ``module.name`` for the rest of the test."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestBatchedGap:
    def test_equals_the_per_agent_loop(self, gap_games):
        for game, x_eq in gap_games:
            for label, x in gap_points(game, x_eq).items():
                eps = epsilon_nash_gap(game, x)
                assert np.all(eps >= 0.0), label
                assert np.max(np.abs(eps - deviation_gap(game, x))) <= 1e-14, label

    def test_oracle_costs_take_the_lockstep_path_and_agree(self, gap_games, monkeypatch):
        for game, x_eq in gap_games:
            wrapped = wrap_costs_in_oracles(game)
            for label, x in gap_points(game, x_eq).items():
                fista_calls = count_calls(monkeypatch, benchmark_mod, "fista_minimize")
                generic = epsilon_nash_gap(wrapped, x)
                assert len(fista_calls) == 1, label
                monkeypatch.undo()
                assert np.array_equal(generic, deviation_gap(wrapped, x)), label
                assert np.max(np.abs(generic - epsilon_nash_gap(game, x))) <= 1e-10, label

    def test_missing_aggregate_gradient_oracle_raises_on_the_lockstep_path(
        self, desk_game, monkeypatch
    ):
        agents = list(desk_game.agents)
        generic = wrap_costs_in_oracles(desk_game).agents[0]
        agents[0] = replace(generic, cost=replace(generic.cost, grad_sigma_fn=None))
        game = GameSpec(dims=desk_game.dims, agents=agents)
        fista_calls = count_calls(monkeypatch, benchmark_mod, "fista_minimize")
        with pytest.raises(NonSmoothCost):
            epsilon_nash_gap(game, game.default_points)
        assert len(fista_calls) == 1

    def test_one_coupling_block_off_the_family_solves_per_dykstra_row(self, desk_game, monkeypatch):
        agents = list(desk_game.agents)
        A = agents[0].A.copy()
        A[0, 1] = 0.1 * A[0, 0]
        agents[0] = replace(agents[0], A=A)
        game = GameSpec(dims=desk_game.dims, agents=agents)
        x, _ = find_feasible_point(game)
        fista_calls = count_calls(monkeypatch, benchmark_mod, "fista_minimize")
        eps = epsilon_nash_gap(game, x)
        # the four capped rows in one lock step, the Dykstra row on its own
        assert len(fista_calls) == 2
        assert np.all(np.isfinite(eps)) and np.all(eps >= 0.0)
        assert np.max(np.abs(eps - deviation_gap(game, x))) <= 1e-10

    def test_dense_coupling_draw_widens_every_set_to_keep_x(self):
        # every A_i dense and x violating the coupling: unwidened, every deviation set
        # misses x_i and the gaps came back all zero
        game = dense_coupling_draw(0)
        engine = DrEngine(game, RunConfig(steps=benchmark_steps(game.dims.N)))
        for _ in range(10):
            engine.step()
        x = engine.X
        assert np.max(coupling_violation(game, x)) > 0.02
        eps = epsilon_nash_gap(game, x)
        assert np.all(eps >= 0.0) and np.max(eps) > 1e-5
        assert np.max(np.abs(eps - deviation_gap(game, x))) <= 1e-10

    def test_projection_calls_stay_below_one_per_agent(self, gap_games, monkeypatch):
        game, x_eq = gap_games[1]
        calls = count_calls(monkeypatch, projections_mod, "project_box_simplex_batch")
        # the same counting wrapper behind the name the gap module binds
        monkeypatch.setattr(
            benchmark_mod, "project_box_simplex_batch", projections_mod.project_box_simplex_batch
        )
        epsilon_nash_gap(game, x_eq)
        assert 0 < len(calls) < game.dims.N


class TestComparison:
    def test_single_seed_smoke(self, tmp_path):
        report = run_comparison(
            BenchmarkParams(N=10, n=4, seed=31), num_seeds=1, tol=1e-5, max_iters=50_000
        )
        assert set(report.mean_curves) == {"dr", "pfb"}
        for rec in report.records:
            assert rec.error is None
            for res in rec.results.values():
                assert res.curve[0] == pytest.approx(1.0)
                assert res.curve[-1] <= 1e-5
                assert res.iters_to_tol is not None
        report.save(tmp_path)
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "curve_dr.csv").exists()

    def test_workers_are_capped_at_the_seed_count(self, monkeypatch):
        # a process pool starts all its workers at once; this stand-in starts none
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(benchmark_mod, "ProcessPoolExecutor", SerialPool)
        report = run_comparison(BenchmarkParams(N=10, n=4, seed=31), num_seeds=2, tol=1e-5, workers=8)
        assert pools == [2]
        assert [rec.error for rec in report.records] == [None, None]
        run_comparison(BenchmarkParams(N=10, n=4, seed=31), num_seeds=1, tol=1e-5, workers=8)
        assert pools == [2]  # one seed runs in process

    def test_the_curve_is_the_engines_distance_to_the_reference(self):
        params, tol = BenchmarkParams(N=50, n=5), 1e-6  # the desk preset
        res = run_comparison(params, num_seeds=1, tol=tol).records[0].results["dr"]
        game = generate_benchmark(params)
        xbar = ground_truth(game, tol=1e-8, cross_check=False)  # the comparison's reference
        engine = DrEngine(game, RunConfig(steps=benchmark_steps(params.N)))
        dists = [np.linalg.norm(engine.X - xbar)]
        for _ in range(len(res.curve) - 1):
            engine.step()
            dists.append(np.linalg.norm(engine.X - xbar))
        assert np.array_equal(res.curve, np.asarray(dists) / dists[0])
        assert res.curve[0] == 1.0 and res.curve[-1] <= tol
        assert len(res.curve) == res.iters_to_tol + 1

    def test_a_decision_turning_nan_ends_that_methods_run(self, monkeypatch):
        real_step, rounds = PfbEngine.step, []

        def step(self):
            real_step(self)
            rounds.append(1)
            if len(rounds) == 7:
                self.X[0, 0] = np.nan

        monkeypatch.setattr(PfbEngine, "step", step)
        record = run_comparison(BenchmarkParams(N=10, n=4, seed=31), num_seeds=1, tol=1e-5).records[0]
        res = record.results["pfb"]
        assert (len(res.curve), res.iters_to_tol) == (8, None)
        assert np.isnan(res.curve[-1]) and np.isnan(res.final_kkt)
        assert record.results["dr"].iters_to_tol is not None

    def test_seed_count_validated(self):
        with pytest.raises(ValueError):
            run_comparison(BenchmarkParams(N=10, n=4), num_seeds=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, 1.0, 2.0, float("nan")])
    def test_a_tolerance_outside_the_unit_interval_is_rejected(self, tol):
        # every curve starts at 1: a tol of 1 or more is met before any round
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            run_comparison(BenchmarkParams(N=10, n=4), num_seeds=1, tol=tol, max_iters=5)

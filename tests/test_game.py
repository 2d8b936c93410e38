import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggsplit import (
    AgentSpec,
    BoxSimplex,
    Dimensions,
    EmptyLocalSet,
    DimensionMismatch,
    GameSpec,
    GenericSmooth,
    Infeasible,
    QuadraticAgg,
    average,
    coupling_violation,
    validate_game,
)
from aggsplit.benchmark import BenchmarkParams, epsilon_nash_gap, generate_benchmark
from aggsplit.engine import RunConfig, pfb_step_sizes, run_dr
from aggsplit.game import find_feasible_point
from aggsplit.operators import monotonicity_probe
from oracles import (
    dense_coupling_draw,
    fd_gradient_error,
    in_box_simplex,
    wrap_costs_in_oracles,
)


def make_single_agent_game(upper, total, A, b, a=1.0, xtilde=None, Q=None):
    n = len(upper)
    xtilde = np.zeros(n) if xtilde is None else np.asarray(xtilde, float)
    Q = np.zeros((n, n)) if Q is None else np.asarray(Q, float)
    agent = AgentSpec(
        omega=BoxSimplex(np.asarray(upper, float), total),
        cost=QuadraticAgg(a=a, xtilde=xtilde, Q=Q),
        A=np.atleast_2d(np.asarray(A, float)),
        b=np.atleast_1d(np.asarray(b, float)),
    )
    return GameSpec(dims=Dimensions(N=1, n=n, m=agent.A.shape[0]), agents=[agent])


class TestDimensions:
    def test_extended_sizes(self):
        d = Dimensions(N=3, n=2, m=4)
        assert d.d == 2 * 3 + 4 * 3 + 2 * 2 + 4

    def test_rejects_degenerate(self):
        with pytest.raises(DimensionMismatch):
            Dimensions(N=0, n=1, m=1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["upper", "total", "a", "xtilde", "Q", "A", "b"])
def test_non_finite_game_data_is_rejected_at_construction(field, value):
    fields = {
        "upper": np.ones(2), "total": 1.0, "a": 1.0, "xtilde": np.zeros(2),
        "Q": np.zeros((2, 2)), "A": np.eye(2), "b": np.ones(2),
    }

    def build(f):
        return AgentSpec(BoxSimplex(f["upper"], f["total"]), QuadraticAgg(f["a"], f["xtilde"], f["Q"]), f["A"], f["b"])

    build(fields)  # the finite data builds
    bad = np.array(fields[field], dtype=float)
    bad.flat[-1] = value
    with pytest.raises(ValueError, match="finite"):
        build({**fields, field: bad})


class TestBoxSimplex:
    def test_empty_set_detected_at_construction(self):
        with pytest.raises(EmptyLocalSet):
            BoxSimplex(np.array([0.3, 0.3]), 1.0)

    def test_singleton_when_caps_sum_to_total(self):
        s = BoxSimplex(np.array([0.4, 0.6]), 1.0)
        assert np.allclose(s.project(np.zeros(2)), [0.4, 0.6])

    def test_all_ones_caps_keep_a_vertex(self):
        n = 4
        e1 = np.zeros(n)
        e1[0] = 1.0
        s = BoxSimplex(np.ones(n), 1.0)
        assert np.array_equal(s.project(e1), e1)


class TestAverage:
    def test_two_agents(self):
        assert np.allclose(average(np.array([1.0, 2.0, 3.0, 4.0]), 2), [2.0, 3.0])

    def test_identical_blocks_average_to_themselves(self):
        v = np.array([0.3, -1.2, 4.0])
        assert np.allclose(average(np.tile(v, 5), 3), v)

    def test_scalars(self):
        assert average(np.array([1.0, 2.0, 6.0]), 1) == pytest.approx(3.0)

    def test_rejects_bad_length(self):
        with pytest.raises(DimensionMismatch):
            average(np.arange(5, dtype=float), 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.floats(-5, 5), st.floats(-5, 5))
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(6)
        z = rng.standard_normal(6)
        lhs = average(a * x + b * z, 2)
        rhs = a * average(x, 2) + b * average(z, 2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, abs(a) + abs(b))


class TestCouplingViolation:
    def test_boundary_is_zero(self):
        game = make_single_agent_game([1.0], 1.0, [[2.0]], [2.0])
        assert np.array_equal(coupling_violation(game, np.array([1.0])), [0.0])

    def test_scalar_excess(self):
        game = make_single_agent_game([1.0], 1.0, [[2.0]], [1.0])
        assert np.allclose(coupling_violation(game, np.array([1.0])), [1.0])

    def test_rejects_bad_length(self):
        game = make_single_agent_game([1.0], 1.0, [[2.0]], [1.0])
        with pytest.raises(DimensionMismatch):
            coupling_violation(game, np.zeros(3))


class TestValidateGame:
    def test_benchmark_instance_passes(self, desk_game):
        report = validate_game(desk_game)
        assert report.ok
        assert report.strictly_feasible
        assert max(report.gradient_rel_err) <= 1e-6

    def test_forced_point_is_feasible(self):
        # single agent pinned to x = 1 and a loose coupling bound
        game = make_single_agent_game([1.0], 1.0, [[1.0]], [2.0])
        report = validate_game(game)
        assert report.ok
        assert np.allclose(report.feasible_point, [1.0])

    def test_infeasible_coupling_reported(self):
        game = make_single_agent_game([1.0], 1.0, [[1.0]], [0.5])
        report = validate_game(game)
        assert not report.feasible
        assert not report.ok

    def test_infeasible_coupling_stops_at_the_phase1_fixed_point(self, monkeypatch):
        game = make_single_agent_game([1.0], 1.0, [[1.0]], [0.5])
        calls = []
        project_each = GameSpec.project_each

        def counting(self, *args, **kwargs):
            calls.append(1)
            return project_each(self, *args, **kwargs)

        monkeypatch.setattr(GameSpec, "project_each", counting)
        with pytest.raises(Infeasible):
            find_feasible_point(game)
        assert len(calls) <= 2  # the default point, then one step that changes nothing

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_batched_gradient_check_matches_the_per_agent_check(self, desk_game, scale):
        game = desk_game if scale == "desk" else generate_benchmark(BenchmarkParams(seed=0))
        sigma = np.full(game.dims.n, 0.25)
        per_agent = [
            fd_gradient_error(agent.cost, x, sigma) for agent, x in zip(game.agents, game.stacks.default_points)
        ]
        errs = validate_game(game).gradient_rel_err
        assert len(errs) == game.dims.N
        assert np.max(np.abs(np.array(errs) - per_agent)) <= 1e-9

    def test_quadratic_games_make_no_per_agent_value_calls(self, desk_game, monkeypatch):
        calls = []
        value = QuadraticAgg.value

        def counting(self, *args):
            calls.append(1)
            return value(self, *args)

        monkeypatch.setattr(QuadraticAgg, "value", counting)
        validate_game(desk_game)
        assert not calls

    def test_wrong_gradient_oracle_is_reported_at_its_agent(self, desk_game):
        game = wrap_costs_in_oracles(desk_game)
        cost = game.agents[2].cost
        wrong = dataclasses.replace(cost, grad_fn=lambda x, s: cost.grad(x, s) + 1e-3 * np.eye(len(x))[0])
        agents = list(game.agents)
        agents[2] = dataclasses.replace(agents[2], cost=wrong)
        errs = validate_game(GameSpec(dims=game.dims, agents=agents)).gradient_rel_err
        assert len(errs) == game.dims.N
        assert errs[2] > 1e-4
        assert max(errs[:2] + errs[3:]) <= 1e-6

    def test_non_finite_gradient_error_fails_validation_at_its_agent(self, desk_game):
        game = wrap_costs_in_oracles(desk_game)
        agents = list(game.agents)
        nan_grad = dataclasses.replace(agents[3].cost, grad_fn=lambda x, s: np.full(len(x), np.nan))
        agents[3] = dataclasses.replace(agents[3], cost=nan_grad)
        report = validate_game(GameSpec(dims=game.dims, agents=agents))
        errs = report.gradient_rel_err
        assert len(errs) == game.dims.N and np.isnan(errs[3])
        assert max(errs[:3] + errs[4:]) <= 1e-6
        assert not report.ok
        assert "max gradient check error: nan" in report.summary()
        assert [m for m in report.messages if "gradient" in m] == ["agent 3: gradient check error nan"]

    def test_report_is_pure(self, desk_game):
        r1 = validate_game(desk_game)
        r2 = validate_game(desk_game)
        assert r1.gradient_rel_err == r2.gradient_rel_err
        assert np.array_equal(r1.feasible_point, r2.feasible_point)


class TestLinkInvariant:
    def test_link_map_lands_in_local_graph(self, desk_game):
        X = desk_game.stacks.default_points
        Y = desk_game.stacks.link_values(X)
        for agent, x, y in zip(desk_game.agents, X, Y):
            assert in_box_simplex(x, agent.omega)
            assert np.allclose(y, agent.A @ x - agent.b)


    def test_batched_default_points_and_links_match_the_agents(self, desk_game):
        X = desk_game.stacks.default_points
        assert desk_game.stacks.default_points is X
        assert not X.flags.writeable
        Y = desk_game.stacks.link_values(X)
        for i, agent in enumerate(desk_game.agents):
            assert np.array_equal(X[i], agent.omega.project(np.zeros(desk_game.dims.n)))
            assert np.allclose(Y[i], agent.A @ X[i] - agent.b, atol=1e-15)

    def test_coupling_sum_and_adjoint_match_the_agents(self, desk_game, rng):
        st, X = desk_game.stacks, desk_game.stacks.default_points
        v, V = rng.random(desk_game.dims.m), rng.random((desk_game.dims.N, desk_game.dims.m))
        total = sum(agent.A @ x for agent, x in zip(desk_game.agents, X))
        assert np.allclose(st.coupling_value(X), total, atol=1e-14)
        assert np.array_equal(desk_game.coupling_value(X.ravel()), st.coupling_value(X))
        for i, agent in enumerate(desk_game.agents):
            assert np.allclose(st.adjoint(v)[i], agent.A.T @ v, atol=1e-14)
            assert np.allclose(st.adjoint(V)[i], agent.A.T @ V[i], atol=1e-14)
        # every family row is capped: the products are broadcasts, bit for bit the contractions of A
        assert st.all_capped
        assert np.array_equal(st.link_values(X), np.einsum("imn,in->im", st.A, X) - st.b)
        assert np.array_equal(st.coupling_value(X), np.einsum("imn,in->m", st.A, X))
        assert np.array_equal(st.adjoint(v), np.einsum("imn,m->in", st.A, v))
        assert np.array_equal(st.adjoint(V), np.einsum("imn,im->in", st.A, V))
        # a dense row keeps the contractions
        game = dense_coupling_draw(0)
        st, X = game.stacks, game.stacks.default_points
        v, V = rng.random(game.dims.m), rng.random((game.dims.N, game.dims.m))
        assert not st.all_capped
        total = sum(agent.A @ x for agent, x in zip(game.agents, X))
        assert np.allclose(st.coupling_value(X), total, atol=1e-14)
        for i, agent in enumerate(game.agents):
            assert np.allclose(st.link_values(X)[i], agent.A @ X[i] - agent.b, atol=1e-14)
            assert np.allclose(st.adjoint(v)[i], agent.A.T @ v, atol=1e-14)
            assert np.allclose(st.adjoint(V)[i], agent.A.T @ V[i], atol=1e-14)


class TestDerivedData:
    def test_replace_builds_the_new_games_own_data(self, desk_game):
        old_probe = monotonicity_probe(desk_game, sample_count=5)
        old_b, old_points = desk_game.stacks.b_total, desk_game.stacks.default_points
        agent = desk_game.agents[0]
        new = dataclasses.replace(
            desk_game, agents=[dataclasses.replace(agent, b=agent.b + 1.0), *desk_game.agents[1:]]
        )
        fresh = GameSpec(dims=new.dims, agents=list(new.agents))
        assert new.stacks is not desk_game.stacks
        assert np.array_equal(new.stacks.b_total, fresh.stacks.b_total)
        assert np.allclose(new.stacks.b_total, old_b + 1.0)
        assert new.stacks.coupling_norm == fresh.stacks.coupling_norm
        assert new.stacks.default_points is not old_points
        assert np.array_equal(new.stacks.default_points, fresh.stacks.default_points)
        probe = monotonicity_probe(new, sample_count=5)
        assert probe is not old_probe
        assert probe == monotonicity_probe(fresh, sample_count=5)


class TestSerialization:
    def test_round_trip(self, desk_game, desk_steps, tmp_path):
        desk_game.save(tmp_path / "game.json")
        back = GameSpec.load(tmp_path / "game.json")
        assert back.dims == desk_game.dims
        for name in ("upper", "total", "a", "xtilde", "Q", "A", "b"):
            col, col_back = getattr(desk_game.stacks, name), getattr(back.stacks, name)
            assert col_back.dtype == np.float64 and col_back.shape == col.shape, name
            assert col_back.tobytes() == col.tobytes(), name
        agent = back.agents[0]  # writable like a generated game's
        columns = (agent.omega.upper, agent.cost.xtilde, agent.cost.Q, agent.A, agent.b)
        assert all(col.flags.writeable for col in columns)
        config = RunConfig(steps=desk_steps, stop_tol=1e-8)
        trace, trace_back = run_dr(desk_game, config), run_dr(back, config)
        assert trace_back.to_csv(include_wall=False) == trace.to_csv(include_wall=False)

    def test_serialization_is_deterministic(self, desk_game):
        s1 = json.dumps(desk_game.to_json_dict())
        s2 = json.dumps(desk_game.to_json_dict())
        assert s1 == s2

    def test_oracle_sets_do_not_serialize(self):
        cost = QuadraticAgg(1.0, np.zeros(2), np.zeros((2, 2)))
        agent = AgentSpec(
            omega=BoxSimplex(np.ones(2), 1.0),
            cost=GenericSmooth(value_fn=cost.value, grad_fn=cost.grad),
            A=np.eye(2),
            b=np.zeros(2),
        )
        game = GameSpec(dims=Dimensions(1, 2, 2), agents=[agent])
        with pytest.raises(ValueError):
            game.to_json_dict()


class TestFeasibleSearch:
    def test_strict_point_has_margin(self, desk_game):
        x, strict = find_feasible_point(desk_game)
        assert strict
        assert not coupling_violation(desk_game, x).any()

    def test_tight_coupling_is_feasible_but_not_strict(self):
        # the only point x = 1 meets A x = b exactly: no margin is possible
        game = make_single_agent_game([1.0], 1.0, [[1.0]], [1.0])
        x, strict = find_feasible_point(game)
        assert np.array_equal(x, [1.0]) and not strict
        report = validate_game(game)
        assert report.ok and report.feasible and not report.strictly_feasible
        assert "no strictly feasible point found; constraint may be tight" in report.messages

    def test_coupling_norm_is_assembled_once_per_game(self, monkeypatch):
        drawn = generate_benchmark(BenchmarkParams(N=6, n=4, seed=2))
        game = GameSpec(dims=drawn.dims, agents=drawn.agents)  # nothing cached yet
        real = np.linalg.norm
        svds = []

        def spy(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) >= 2:  # a spectral norm: an SVD per matrix
                svds.append(np.shape(x))
            return real(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        find_feasible_point(game)
        validate_game(game)
        x = game.stacks.default_points.ravel()
        pfb_step_sizes(game)
        epsilon_nash_gap(game, x)
        # ||A||, and the per-row ||A_i||, ||Q_i|| and ||(Q_i + Q_i')/2||: one call each
        assert len(svds) == 4
        pfb_step_sizes(game)
        epsilon_nash_gap(game, x)
        assert len(svds) == 4
        assert game.stacks.coupling_norm == float(real(np.concatenate(game.stacks.A, axis=1), 2))

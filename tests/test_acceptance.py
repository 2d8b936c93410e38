"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion.
"""

import time

import numpy as np
import pytest

from aggsplit import (
    BenchmarkParams,
    DrEngine,
    InvalidStepSizes,
    RunConfig,
    StepSizes,
    apply_S,
    benchmark_steps,
    epsilon_nash_gap,
    gae_vi_residual,
    generate_benchmark,
    ground_truth_point,
    monotonicity_probe,
    raw_dr_step,
    run_comparison,
    run_dr,
    run_pfb,
)
from aggsplit.projections import project_box_simplex
from aggsplit.resolvents import resolvent_A, resolvent_B
from aggsplit.verify import (
    inclusion_residual_A,
    inclusion_residual_B,
    random_extended_point,
)
from oracles import box_simplex_active_set, dense_resolvent_B


@pytest.fixture(scope="module")
def desk():
    game = generate_benchmark(BenchmarkParams(N=5, n=3, seed=11))
    return game, benchmark_steps(5)


@pytest.fixture(scope="module")
def monotone():
    game = generate_benchmark(
        BenchmarkParams(N=20, n=5, q_range=(0.0, 0.0), qbar_range=(0.0, 0.0), seed=3)
    )
    return game, benchmark_steps(20)


@pytest.fixture(scope="module")
def population_run():
    """Criterion 3's solve, shared with criterion 4."""
    game = generate_benchmark(BenchmarkParams(N=50, n=5, seed=0))
    config = RunConfig(
        steps=benchmark_steps(50), stop_tol=1e-7, max_iters=100_000, record_every=100_000
    )
    t0 = time.perf_counter()
    trace = run_dr(game, config, validate=False)
    elapsed = time.perf_counter() - t0
    return game, trace, elapsed


def test_criterion_1_resolvent_correctness(desk):
    game, steps = desk
    assert (game.dims.N, game.dims.n, game.dims.m) == (5, 3, 3)
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_a = worst_b = worst_dense = 0.0
    for _ in range(50):
        w = random_extended_point(game, rng)
        out_a = resolvent_A(game, steps, w, tol=1e-10)
        worst_a = max(worst_a, inclusion_residual_A(game, steps, w, out_a))
        out_b = resolvent_B(game.dims, steps, w)
        worst_b = max(worst_b, inclusion_residual_B(game, steps, w, out_b))
        dense = dense_resolvent_B(game.dims, steps, w)
        worst_dense = max(worst_dense, float(np.max(np.abs(out_b.as_vector() - dense.as_vector()))))
    elapsed = time.perf_counter() - t0
    print(
        f"\nCRITERION 1 resolvent correctness: inclusion A {worst_a:.2e}, "
        f"B {worst_b:.2e}, dense gap {worst_dense:.2e}, {elapsed:.1f}s -> "
        f"{'PASS' if worst_a <= 1e-8 and worst_b <= 1e-8 and worst_dense <= 1e-10 else 'FAIL'}"
    )
    assert worst_a <= 1e-8
    assert worst_b <= 1e-8
    assert worst_dense <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_trajectory_equivalence(desk):
    game, steps = desk
    config = RunConfig(steps=steps, prox_tol=1e-12)
    engine = DrEngine(game, config)
    tilde = DrEngine(game, config).point()
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        engine.step()
        half, full, tilde = raw_dr_step(tilde, game, steps, 1.0, prox_tol=1e-12)
        worst = max(worst, float(np.max(np.abs(engine.X - half.x))))
    elapsed = time.perf_counter() - t0
    print(
        f"\nCRITERION 2 trajectory equivalence: max deviation {worst:.2e}, "
        f"{elapsed:.1f}s -> {'PASS' if worst <= 1e-8 else 'FAIL'}"
    )
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_3_convergence(population_run):
    game, trace, elapsed = population_run
    kkt = trace.final_kkt
    mu_inf = float(np.max(np.abs(trace.final_point.mu)))
    consensus = kkt.consensus
    fields = {
        "stationarity": kkt.stationarity,
        "primal": kkt.primal,
        "consensus": kkt.consensus,
        "complementarity": kkt.complementarity,
        "link": kkt.link,
    }
    ok = (
        trace.converged
        and trace.iterations <= 100_000
        and all(v <= 1e-6 for v in fields.values())
        and mu_inf <= 1e-5
        and consensus <= 1e-5
    )
    print(
        f"\nCRITERION 3 convergence (N=50): {trace.iterations} iters, "
        + ", ".join(f"{k} {v:.2e}" for k, v in fields.items())
        + f", |mu| {mu_inf:.2e}, {elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert trace.converged and trace.iterations <= 100_000
    for name, value in fields.items():
        assert value <= 1e-6, name
    assert mu_inf <= 1e-5
    assert consensus <= 1e-5
    assert elapsed < 60.0


def test_criterion_4_equilibrium_certification(population_run):
    game, trace, _ = population_run
    point = trace.final_point
    vi = gae_vi_residual(game, point.x, point.lam)
    X = point.x
    links = np.stack([agent.A @ X[i] - agent.b for i, agent in enumerate(game.agents)])
    link_gap = float(np.max(np.abs(point.y - links)))
    ok = vi <= 1e-5 and link_gap <= 1e-10
    print(
        f"\nCRITERION 4 equilibrium certification: vi residual {vi:.2e}, "
        f"link gap {link_gap:.2e} -> {'PASS' if ok else 'FAIL'}"
    )
    assert vi <= 1e-5
    assert link_gap <= 1e-10


def test_criterion_5_method_comparison():
    t0 = time.perf_counter()
    report = run_comparison(
        BenchmarkParams(N=100, n=10, seed=100), num_seeds=10, tol=1e-6, max_iters=200_000
    )
    elapsed = time.perf_counter() - t0
    wins = 0
    total = 0
    for rec in report.records:
        assert rec.error is None, rec.error
        d = rec.results["dr"].iters_to_tol
        p = rec.results["pfb"].iters_to_tol
        assert d is not None and p is not None
        total += 1
        wins += d < p
    pfb_median = int(np.median([r.results["pfb"].iters_to_tol for r in report.records]))
    dr_curve = report.mean_curves["dr"]
    pfb_curve = report.mean_curves["pfb"]
    dr_at_median = dr_curve[min(pfb_median, dr_curve.shape[0] - 1)]
    pfb_at_median = pfb_curve[min(pfb_median, pfb_curve.shape[0] - 1)]
    ok = wins >= 0.8 * total and dr_at_median < pfb_at_median
    print(
        f"\nCRITERION 5 comparison (N=100, 10 seeds): dr wins {wins}/{total}, "
        f"mean curves at pfb median ({pfb_median}): dr {dr_at_median:.2e} vs "
        f"pfb {pfb_at_median:.2e}, speed ratio {report.speed_ratio:.2f}, "
        f"{elapsed:.0f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert wins >= 0.8 * total
    assert dr_at_median < pfb_at_median
    assert elapsed < 300.0


def test_criterion_6_step_size_intervals():
    gamma = np.full(8, 1.3)
    gamma_hat = 1.3
    alpha = 0.9
    beta_bound = 1.0 / (alpha + gamma_hat / 8)
    with pytest.raises(InvalidStepSizes):
        StepSizes.from_central(gamma, alpha, 1.0 / gamma_hat, 0.5 * beta_bound)
    with pytest.raises(InvalidStepSizes):
        StepSizes.from_central(gamma, alpha, 0.5 / gamma_hat, beta_bound)
    StepSizes.from_central(gamma, alpha, 0.999 / gamma_hat, 0.5 * beta_bound)

    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        a = float(10.0 ** rng.uniform(-1, 1))
        delta_c = float(rng.uniform(0.0, 1.0)) / gamma_hat
        beta_c = float(rng.uniform(0.0, 1.0)) / (a + gamma_hat / 8)
        if delta_c <= 0 or beta_c <= 0:
            continue
        s = StepSizes.from_central(gamma, a, delta_c, beta_c)
        worst = max(worst, abs(s.delta_c - delta_c) / delta_c, abs(s.beta_c - beta_c) / beta_c)
        delta = float(10.0 ** rng.uniform(-1.5, 1.5))
        beta = float(10.0 ** rng.uniform(-1.5, 1.5))
        raw = StepSizes(gamma=gamma, alpha=a, beta=beta, delta=delta)
        back = StepSizes.from_central(gamma, a, raw.delta_c, raw.beta_c)
        worst = max(worst, abs(back.delta - delta) / delta, abs(back.beta - beta) / beta)
    print(
        f"\nCRITERION 6 step-size intervals: boundary rejections OK, max round-trip "
        f"{worst:.2e} -> {'PASS' if worst <= 1e-12 else 'FAIL'}"
    )
    assert worst <= 1e-12


def test_criterion_7_operator_properties(monotone):
    game, steps = monotone
    probe = monotonicity_probe(game, 500, seed=0)
    assert probe.looks_monotone  # the firmness claim needs a monotone instance
    rng = np.random.default_rng(77)
    worst_skew = 0.0
    worst_firm = -np.inf
    worst_consistency = 0.0
    for _ in range(100):
        w = random_extended_point(game, rng)
        inner = abs(float(w.as_vector() @ apply_S(game.dims, w).as_vector()))
        worst_skew = max(worst_skew, inner / max(1.0, w.norm() ** 2))

        w2 = random_extended_point(game, rng)
        for J in (
            lambda u: resolvent_A(game, steps, u),
            lambda u: resolvent_B(game.dims, steps, u),
        ):
            d_out = J(w) - J(w2)
            d_in = w - w2
            worst_firm = max(
                worst_firm,
                steps.gamma_inv_inner(d_out, d_out) - steps.gamma_inv_inner(d_out, d_in),
            )

        X = np.abs(rng.standard_normal((game.dims.N, game.dims.n)))
        sigma = X.mean(axis=0)
        frozen = np.stack([agent.cost.grad(xi, sigma) for agent, xi in zip(game.agents, X)])
        gap = np.max(np.abs(game.grad(X, sigma) - frozen), initial=0.0)
        worst_consistency = max(worst_consistency, float(gap))
    ok = worst_skew <= 1e-10 and worst_firm <= 1e-8 and worst_consistency == 0.0
    print(
        f"\nCRITERION 7 operator properties: skew {worst_skew:.2e}, "
        f"firmness defect {worst_firm:.2e}, variant gap {worst_consistency:.2e} -> "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert worst_skew <= 1e-10
    assert worst_firm <= 1e-8
    assert worst_consistency == 0.0


def test_criterion_8_projection_kernel():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        upper = rng.uniform(0.05, 1.5, n)
        total = float(rng.uniform(0.0, upper.sum()))
        v = rng.uniform(-2.0, 2.0, n)
        weights = rng.uniform(0.2, 5.0, n)
        got = project_box_simplex(v, upper, total, weights)
        want = box_simplex_active_set(v, upper, total, weights)
        worst = max(worst, float(np.max(np.abs(got - want))))
    exact = (
        np.array_equal(
            project_box_simplex(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 1.0), [0.5, 0.5]
        )
        and np.array_equal(
            project_box_simplex(np.array([2.0, 0.0]), np.array([1.0, 1.0]), 1.0), [1.0, 0.0]
        )
        and np.array_equal(
            project_box_simplex(np.array([0.9, 0.9]), np.array([1.0, 1.0]), 1.0), [0.5, 0.5]
        )
    )
    ok = worst <= 1e-10 and exact
    print(
        f"\nCRITERION 8 projection kernel: max error vs enumeration {worst:.2e}, "
        f"listed examples exact: {exact} -> {'PASS' if ok else 'FAIL'}"
    )
    assert worst <= 1e-10
    assert exact


def test_criterion_9_determinism_and_boundary(desk):
    game, steps = desk
    cfg = RunConfig(steps=steps, stop_tol=1e-8)
    reruns_equal = True
    for runner in (run_dr, run_pfb):
        a = runner(game, cfg, validate=False).to_csv(include_wall=False)
        b = runner(game, cfg, validate=False).to_csv(include_wall=False)
        reruns_equal &= a.encode() == b.encode()

    from aggsplit import AggregateMessage
    import inspect
    from aggsplit import coordinator_update

    fields = set(AggregateMessage.__dataclass_fields__)
    engine = DrEngine(game, cfg)
    engine.step()
    agg = AggregateMessage(xhat=engine.X.mean(axis=0), yhat=engine.Y.mean(axis=0))
    payload = sum(np.asarray(getattr(agg, f)).size for f in fields)
    boundary_ok = (
        fields == {"xhat", "yhat"}
        and payload == game.dims.n + game.dims.m
        and list(inspect.signature(coordinator_update).parameters) == ["coord", "agg", "steps"]
    )
    ok = reruns_equal and boundary_ok
    print(
        f"\nCRITERION 9 determinism & boundary: traces byte-identical {reruns_equal}, "
        f"uplink payload {payload} == n+m -> {'PASS' if ok else 'FAIL'}"
    )
    assert reruns_equal
    assert boundary_ok


def test_criterion_10_epsilon_gap_trend():
    means = {}
    for N in (10, 100):
        worst_eps = []
        for s in range(5):
            game = generate_benchmark(BenchmarkParams(N=N, n=10, seed=1000 + s))
            point, _ = ground_truth_point(game, tol=1e-7, cross_check=False)
            eps = epsilon_nash_gap(game, point.x)
            assert np.all(eps >= 0.0)
            worst_eps.append(float(eps.max()))
        means[N] = float(np.mean(worst_eps))
    ok = means[100] <= means[10]
    print(
        f"\nCRITERION 10 eps-gap trend: mean max gap N=10 {means[10]:.3e}, "
        f"N=100 {means[100]:.3e} -> {'PASS' if ok else 'FAIL'}"
    )
    assert means[100] <= means[10]

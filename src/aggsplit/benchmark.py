"""Resource-allocation benchmark: generator, references, comparison runs.

Each agent splits one unit of work over n time slots subject to personal
caps, pays a quadratic penalty for deviating from a preferred schedule
plus a price proportional to the average allocation, and the weighted
slot totals are capped.  Parameters are drawn per agent from dedicated
seed streams so instances are reproducible and extensible in N.
"""

from __future__ import annotations

import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import AggsplitError, GenerationFailed, MaxItersExceeded, NotCertified
from .game import AgentStacks, Dimensions, GameSpec, _finite_vector, validate_game
from .engine import GATE_FACTOR, RunConfig, RunTrace, run_dr, run_pfb
from .operators import ExtendedPoint, monotonicity_probe, stationarity_residual
from .projections import (
    dykstra_projection,
    fista_minimize,
    halfspace_projector,
    project_box_simplex_batch,
)
from .resolvents import StepSizes

# seed-stream tags: (seed, GLOBAL_STREAM) for shared draws, (seed, AGENT_STREAM, i) per agent
GLOBAL_STREAM = 0
AGENT_STREAM = 1
UPPER_RESAMPLE_LIMIT = 100


@dataclass(frozen=True)
class BenchmarkParams:
    """Instance-family parameters; defaults are the full-scale experiment.

    Fixed across the family: the cost weights a_i and the coupling weights w_i
    are uniform in [1, 2], each agent's caps sum to 2 with every entry at most 1,
    its simplex total is 1, and each slot's bound b is uniform between 1/2 and
    2/3 of that slot's weighted cap total.
    """

    N: int = 1000
    n: int = 10
    q_range: tuple[float, float] = (1.0, 2.0)
    qbar_range: tuple[float, float] = (0.0, 0.1)
    seed: int = 0

    def __post_init__(self):
        if self.N < 1 or self.n < 1:
            raise ValueError("N and n must be at least 1")


def benchmark_steps(
    N: int, gamma: float = 1.0, alpha: float = 1.0, delta_c: float = 0.5, beta_c: float = 0.5
) -> StepSizes:
    """Default solver step sizes for the benchmark family."""
    return StepSizes.from_central(np.full(N, gamma), alpha, delta_c, beta_c)


def _draw_upper(rng: np.random.Generator, n: int) -> np.ndarray:
    """Caps summing to 2 with every entry in [0, 1]; resamples bad draws."""
    for _ in range(UPPER_RESAMPLE_LIMIT):
        u = rng.random(n)
        s = u.sum()
        if s == 0.0:
            continue
        u = u * (2.0 / s)
        if np.all(u <= 1.0):
            return u
    raise GenerationFailed(f"no cap vector with entries <= 1 after {UPPER_RESAMPLE_LIMIT} draws")


def generate_benchmark(params: BenchmarkParams) -> GameSpec:
    """Draw one benchmark instance; validated before returning."""
    N, n = params.N, params.n
    a, w, Q, upper = np.empty(N), np.empty(N), np.empty((N, n, n)), np.empty((N, n))
    for i in range(N):
        rng = np.random.default_rng(np.random.SeedSequence((params.seed, AGENT_STREAM, i)))
        a[i] = rng.uniform(1.0, 2.0)
        w[i] = rng.uniform(1.0, 2.0)
        q_i = rng.uniform(*params.q_range)
        Q[i] = q_i * np.eye(n) + rng.uniform(*params.qbar_range, size=(n, n))
        upper[i] = _draw_upper(rng, n)
    total = np.ones(N)
    # preferred schedules: every agent's projection of the first unit vector
    e1 = np.zeros((N, n))
    e1[:, 0] = 1.0
    xtilde = project_box_simplex_batch(e1, upper, total)

    rng_global = np.random.default_rng(np.random.SeedSequence((params.seed, GLOBAL_STREAM)))
    cap_totals = np.einsum("i,ij->j", w, upper)
    b = rng_global.uniform(0.5 * cap_totals, 2.0 / 3.0 * cap_totals)

    A = w[:, None, None] * np.eye(n)
    game = GameSpec.from_columns(Dimensions(N, n, n), upper, total, a, xtilde, Q, A, np.tile(b / N, (N, 1)))
    report = validate_game(game)
    if not report.ok:
        raise GenerationFailed("generated instance failed validation:\n" + report.summary())
    return game


# -- reference solutions -----------------------------------------------------------------


def ground_truth_point(
    game: GameSpec,
    tol: float = 1e-9,
    cross_check: bool = True,
    max_iters: int = 1_000_000,
) -> tuple[ExtendedPoint, RunTrace]:
    """High-accuracy solve in the :func:`benchmark_steps` step sizes, certified by
    its optimality residuals.

    The run stops at ``tol / GATE_FACTOR``, so its optimality gate is the
    certificate itself: every residual at or below ``tol``.  With
    ``cross_check`` the baseline must reproduce the same decisions to
    within ``10 * tol``.
    """
    probe = monotonicity_probe(game, sample_count=min(200, 50 * game.dims.N), seed=0)
    if not probe.looks_monotone:
        warnings.warn(
            f"monotonicity probe found a negative inner product ({probe.min_inner:.3e}); "
            "the reference run may not converge"
        )
    steps = benchmark_steps(game.dims.N)
    config = RunConfig(
        steps=steps,
        stop_tol=tol / GATE_FACTOR,
        max_iters=max_iters,
        record_every=max_iters,
    )
    try:
        trace = run_dr(game, config, validate=False)
    except MaxItersExceeded as exc:
        trace = exc.trace
    kkt = trace.final_kkt
    if kkt.max_value() > tol:
        raise NotCertified(
            f"reference run residual {kkt.max_value():.3e} exceeds the certificate {tol:.3e}"
        )
    if cross_check:
        pfb_config = RunConfig(
            steps=steps, stop_tol=tol, max_iters=max_iters, record_every=max_iters
        )
        try:
            pfb_trace = run_pfb(game, pfb_config, validate=False)
        except MaxItersExceeded as exc:
            pfb_trace = exc.trace
        gap = float(np.linalg.norm(trace.final_point.x - pfb_trace.final_point.x))
        if gap > 10.0 * tol:
            raise NotCertified(f"independent methods disagree by {gap:.3e} (> {10 * tol:.3e})")
    return trace.final_point, trace


def ground_truth(game: GameSpec, tol: float = 1e-9, **kwargs) -> np.ndarray:
    """Certified reference decision vector (see :func:`ground_truth_point`)."""
    point, _ = ground_truth_point(game, tol=tol, **kwargs)
    return point.x


# -- equilibrium quality -----------------------------------------------------------------


def gae_vi_residual(game: GameSpec, x: np.ndarray, lam: np.ndarray | None = None) -> float:
    """Natural-map residual of the aggregative variational inequality at x.

    ``lam`` is the certified coupling multiplier; omitted it defaults to
    zero, appropriate only when no coupling row is active.  An ``x`` or
    ``lam`` of the wrong length raises :class:`DimensionMismatch`, and one
    with a non-finite entry ``ValueError``.
    """
    dims = game.dims
    x = _finite_vector(x, dims.N * dims.n, "stacked decision")
    lam = np.zeros(dims.m) if lam is None else _finite_vector(lam, dims.m, "coupling multiplier")
    return stationarity_residual(game, x, lam)


def _deviation_groups(game: GameSpec, X: np.ndarray) -> list[tuple[np.ndarray, Callable]]:
    """(rows, projector) groups of every agent; a projector maps its rows (B, n)
    onto their deviation sets {z in Omega_i : A_i z <= slack_i}, where slack_i is
    the coupling room b - sum_{j != i} A_j x_j, widened just enough to keep x_i.

    Row i is capped when m = n and A_i = w_i I with w_i > 0: its set is then the
    box-simplex with caps min(upper, slack_i / w_i), widened to x_i, a member up
    to roundoff.  The capped rows form one group with one batched projection.
    Every other row widens slack_i to max(slack_i, A_i x_i) and is a group of its
    own, projected by Dykstra's method over Omega_i and its halfspaces.
    """
    own = (game.stacks.A @ X[..., None])[..., 0]  # rounds like the per-agent A_i @ x_i, which einsum may not
    slack = game.stacks.b_total - (game.stacks.coupling_value(X) - own)
    w = game.stacks.capped_weight
    capped = w > 0
    groups = []
    rows = np.flatnonzero(capped)
    if rows.size:
        st = game.stacks.take(rows)
        caps = np.minimum(st.upper, np.maximum(slack[rows], 0.0) / w[rows, None])
        caps = np.maximum(caps, np.minimum(X[rows], st.upper))
        groups.append((rows, lambda Z: project_box_simplex_batch(Z, caps, st.total)))
    for i in np.flatnonzero(~capped):
        agent, room = game.agents[i], np.maximum(slack[i], own[i])
        halfspaces = [halfspace_projector(a, float(s)) for a, s in zip(agent.A, room)]
        sets = [agent.omega.project] + halfspaces
        groups.append((np.array([i]), lambda Z, sets=sets: dykstra_projection(Z[0], sets)[None]))
    return groups


def _deviation_objective(st: AgentStacks, sigma_others: np.ndarray, N: int):
    """(value, grad) of the deviation objectives z -> f_i(z, sigma_others_i + z / N)
    of the rows of ``st``, row-wise over (B, n) arrays: the deviation moves the average."""

    def value(Z: np.ndarray) -> np.ndarray:
        return st.value(Z, sigma_others + Z / N)

    def grad(Z: np.ndarray) -> np.ndarray:
        S = sigma_others + Z / N
        return st.grad(Z, S) + st.grad_sigma(Z, S) / N

    return value, grad


def epsilon_nash_gap(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """Per-agent suboptimality against unilateral feasible deviations.

    The deviation moves the average along with the deviating agent.  Each group
    of :func:`_deviation_groups` is solved in one lock-step accelerated
    projected-gradient call, each row stopping on its own residual of 1e-9; a cost with
    no aggregate-gradient oracle raises :class:`NonSmoothCost` there.  Every
    deviation set is widened to keep x_i, so at any x in the local sets no set is
    empty and the gaps, clipped at zero against roundoff, are sound; where x
    violates the coupling, they measure deviations within the widened room.
    """
    N, n = game.dims.N, game.dims.n
    X = _finite_vector(x, N * n, "stacked decision").reshape(N, n)
    sigma_others = X.mean(axis=0) - X / N
    lipschitz, strong = _deviation_moduli(game)
    eps = np.empty(N)
    for rows, project in _deviation_groups(game, X):
        value, grad = _deviation_objective(game.stacks.take(rows), sigma_others[rows], N)
        L, mu = lipschitz[rows], strong[rows]
        best = value(fista_minimize(grad, project, X[rows], L, strong_convexity=mu, tol=1e-9))
        base = value(X[rows])
        # x_i is in its own deviation set, so min <= base up to roundoff
        eps[rows] = base - np.minimum(best, base)
    return eps


def _deviation_moduli(game: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """(N,) Lipschitz and strong-convexity bounds of every agent's deviation objective."""
    N, st, quad = game.dims.N, game.stacks, game.stacks.quadratic
    lipschitz, strong = st.curvature * (1.0 + 2.0 / N), np.zeros(N)
    spread = 2.0 * st.Q_sym_norms / N
    lipschitz[quad] = st.curvature[quad] + spread
    strong[quad] = np.maximum(st.curvature[quad] - spread, 1e-12)
    return lipschitz, strong


# -- the comparison experiment -----------------------------------------------------------


@dataclass
class MethodResult:
    curve: np.ndarray
    iters_to_tol: int | None
    final_kkt: float
    wall_ms: float


@dataclass
class SeedRecord:
    seed: int
    results: dict[str, MethodResult] = field(default_factory=dict)
    error: str | None = None


@dataclass
class ExperimentReport:
    """Aggregated outcome of the multi-seed method comparison."""

    params: BenchmarkParams
    tol: float
    methods: tuple[str, ...]
    records: list[SeedRecord]
    mean_curves: dict[str, np.ndarray]
    speed_ratio: float | None

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "N": self.params.N,
                "n": self.params.n,
                "seed": self.params.seed,
            },
            "tol": self.tol,
            "methods": list(self.methods),
            "speed_ratio": self.speed_ratio,
            "seeds": [
                {
                    "seed": r.seed,
                    "error": r.error,
                    "results": {
                        name: {
                            "iters_to_tol": res.iters_to_tol,
                            "final_kkt": res.final_kkt,
                            "wall_ms": res.wall_ms,
                        }
                        for name, res in r.results.items()
                    },
                }
                for r in self.records
            ],
        }

    def save(self, outdir: str | Path) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(json.dumps(self.to_json_dict(), indent=2))
        lines = ["seed,method,iters_to_tol,final_kkt,wall_ms"]
        for rec in self.records:
            for name, res in rec.results.items():
                iters = "" if res.iters_to_tol is None else str(res.iters_to_tol)
                lines.append(
                    f"{rec.seed},{name},{iters},{res.final_kkt:.17g},{res.wall_ms:.3f}"
                )
        (outdir / "summary.csv").write_text("\n".join(lines) + "\n")
        for name, curve in self.mean_curves.items():
            rows = ["iter,mean_normalized_error"]
            rows.extend(f"{k},{v:.17g}" for k, v in enumerate(curve))
            (outdir / f"curve_{name}.csv").write_text("\n".join(rows) + "\n")


_METHODS = ("dr", "pfb")  # the compared methods, in report order


def _run_one_seed(params: BenchmarkParams, seed: int, tol: float, max_iters: int) -> SeedRecord:
    record = SeedRecord(seed=seed)
    try:
        game = generate_benchmark(replace(params, seed=seed))
        xbar = ground_truth(game, tol=min(1e-8, tol * 1e-2), cross_check=False)
        steps = benchmark_steps(game.dims.N)
        for name in _METHODS:
            config = RunConfig(
                steps=steps,
                stop_tol=0.0,
                max_iters=max_iters,
                record_every=max_iters,
                ref_stop=tol,
            )
            runner = run_dr if name == "dr" else run_pfb
            t0 = time.perf_counter()
            try:
                trace = runner(game, config, reference=xbar, validate=False)
            except MaxItersExceeded as exc:
                trace = exc.trace
            wall_ms = 1e3 * (time.perf_counter() - t0)
            curve = trace.dist_curve / max(trace.dist_curve[0], 1e-300)
            below = np.nonzero(curve <= tol)[0]
            record.results[name] = MethodResult(
                curve=curve,
                iters_to_tol=int(below[0]) if below.size else None,
                final_kkt=trace.final_kkt.max_value(),
                wall_ms=wall_ms,
            )
    except AggsplitError as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def run_comparison(
    params: BenchmarkParams,
    num_seeds: int,
    tol: float = 1e-6,
    max_iters: int = 200_000,
    workers: int = 1,
) -> ExperimentReport:
    """Generate instances for consecutive seeds, solve with both methods (dr and
    pfb) against a reference certified to min(1e-8, tol / 100), and aggregate
    normalized error curves and iteration counts.

    Per-seed failures are recorded and skipped; at least one seed must
    succeed.  Seed k uses ``params.seed + k``; results are assembled in
    seed order regardless of worker scheduling.
    """
    if num_seeds < 1:
        raise ValueError("num_seeds must be at least 1")
    seeds = [params.seed + k for k in range(num_seeds)]
    jobs = [(params, s, tol, max_iters) for s in seeds]
    workers = min(workers, num_seeds)  # a process pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one_seed, *zip(*jobs)))
    else:
        records = [_run_one_seed(*job) for job in jobs]

    good = [r for r in records if r.error is None]
    if not good:
        raise AggsplitError("every seed of the comparison failed")

    mean_curves: dict[str, np.ndarray] = {}
    for name in _METHODS:
        curves = [r.results[name].curve for r in good]
        length = max(c.shape[0] for c in curves)
        padded = np.stack(
            [np.concatenate([c, np.full(length - c.shape[0], c[-1])]) for c in curves]
        )
        mean_curves[name] = padded.mean(axis=0)

    speed_ratio = None
    pairs = [(r.results["dr"].iters_to_tol, r.results["pfb"].iters_to_tol) for r in good]
    resolved = [(d, p) for d, p in pairs if d is not None and p is not None]
    if resolved:
        speed_ratio = float(np.mean([p / d for d, p in resolved]))

    return ExperimentReport(
        params=params,
        tol=tol,
        methods=_METHODS,
        records=records,
        mean_curves=mean_curves,
        speed_ratio=speed_ratio,
    )

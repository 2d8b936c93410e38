"""The benchmark workloads: set-up, one operation, and its output checks.

Every workload follows the same shape.  ``prepare`` builds one instance
from an instance seed (one set-up, timed as ``setup_s``).  ``operate``
runs one operation on a prepared instance as a sequence of timed stages
(``solve_s``, ``reference_s``, ``nash_gap_s``) and checks every output.

A failed check marks the operation as failed.  A check on the value of
an answer (as opposed to a budget) also marks the run as incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import aggsplit.benchmark as abm
import aggsplit.cli as acli
import aggsplit.engine as aeng
from aggsplit.errors import MaxItersExceeded, NotCertified
from aggsplit.game import AgentSpec, GameSpec, GenericSmooth

SOLVE_TOL = 1e-8
# Every in-process solve gets a round budget so that a run ends in bounded
# time; the library defaults (1e5 and 1e6 rounds) stand for hours.
SOLVE_BUDGET = 2000  # about 20 times the rounds a solve to SOLVE_TOL needs
CERTIFY_TOL = 1e-9
CERTIFY_BUDGET = 400  # about three times the rounds the same call needs at 1e-8
# The generic-prox reference stops well above the numerical floor at which a
# 1e-9 reference can stall (ROADMAP item 3); certify-paper measures that case.
LOOSE_REFERENCE_TOL = 1e-6
GENERIC_MATCH_TOL = 1e-8
# One exact gap at N=20 takes about 0.3 s, short enough for a passing slow
# moment of the machine to decide it; generic-prox times the median of 5.
GENERIC_GAP_CALLS = 5


@dataclass(frozen=True)
class Scale:
    """Instance sizes: the paper scale and the tiny scale of the smoke mode."""

    paper: abm.BenchmarkParams
    generic: abm.BenchmarkParams


PAPER_SCALE = Scale(
    paper=abm.BenchmarkParams(N=1000, n=10),
    generic=abm.BenchmarkParams(N=20, n=10),
)
SMOKE_SCALE = Scale(
    paper=abm.BenchmarkParams(N=30, n=4),
    generic=abm.BenchmarkParams(N=4, n=3),
)


@dataclass
class OpResult:
    """Stage times (seconds) and failed checks of one operation."""

    stages: dict[str, float] = field(default_factory=dict)
    budget_failures: list[str] = field(default_factory=list)
    answer_failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.budget_failures or self.answer_failures)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.answer_failures.append(message)


@dataclass
class Instance:
    """One prepared instance and what its output checks compare against."""

    game: GameSpec
    path: Path | None = None  # certify-paper: the saved game
    expected: np.ndarray | None = None  # generic-prox: the batched answer


@contextlib.contextmanager
def _stage(result: OpResult, name: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        result.stages[name] = time.perf_counter() - t0


def _reference_stage(game: GameSpec, tol: float, result: OpResult, **kwargs):
    """One ``ground_truth_point`` call with its checks; returns the point or None."""
    try:
        with _stage(result, "reference_s"), warnings.catch_warnings():
            # the probe warns on every non-monotone instance of the family
            warnings.simplefilter("ignore")
            point, trace = abm.ground_truth_point(game, tol=tol, **kwargs)
    except NotCertified as exc:
        result.budget_failures.append(f"reference not certified: {exc}")
        return None
    if trace.stop_reason == "max_iters":
        result.budget_failures.append(
            f"reference ended on its round budget ({trace.iterations} rounds)"
        )
    vi = abm.gae_vi_residual(game, point.x, point.lam)
    result.check(vi <= tol, f"reference VI residual {vi:.3e} > {tol:.1e}")
    return point


def _gap_stage(game: GameSpec, x: np.ndarray, result: OpResult, calls: int) -> None:
    """The exact epsilon-Nash gap at x, timed as the median of ``calls`` calls.

    Each gap is >= 0 by construction (the current point is a feasible
    deviation), so only finiteness is checked.
    """
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        eps = abm.epsilon_nash_gap(game, x)
        times.append(time.perf_counter() - t0)
    result.stages["nash_gap_s"] = statistics.median(times)
    result.check(bool(np.all(np.isfinite(eps))), "epsilon gaps must be finite")


# -- certify-paper -----------------------------------------------------------------------


@dataclass
class CertifyPaper:
    """At paper scale: ``aggsplit solve game.json``, then the certified reference
    and the exact epsilon-Nash gap at it."""

    name = "certify-paper"
    # instances a run: the reference stalls on about 2 in 3 of them (README.md)
    instances = 3
    scale: Scale
    outdir: Path

    def prepare(self, seed: int) -> Instance:
        game = abm.generate_benchmark(replace(self.scale.paper, seed=seed))
        self.outdir.mkdir(parents=True, exist_ok=True)
        path = self.outdir / f"game-{seed}.json"
        game.save(path)
        return Instance(game=game, path=path)

    def operate(self, instance: Instance) -> OpResult:
        result = OpResult()
        out = self.outdir / "run"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["solve", str(instance.path), "--tol", repr(SOLVE_TOL), "-o", str(out)]
        with _stage(result, "solve_s"), contextlib.redirect_stdout(io.StringIO()):
            code = acli.main(argv)
        result.check(code == 0, f"aggsplit solve exited with {code}")
        self._check_solve_outputs(out, result)
        point = _reference_stage(instance.game, CERTIFY_TOL, result, max_iters=CERTIFY_BUDGET)
        if point is not None:
            _gap_stage(instance.game, point.x, result, calls=1)
        return result

    @staticmethod
    def _check_solve_outputs(out: Path, result: OpResult) -> None:
        try:
            report = json.loads((out / "report.json").read_text())
            lines = (out / "trace.csv").read_text().count("\n")
        except (OSError, ValueError) as exc:
            result.check(False, f"aggsplit solve left no readable outputs: {exc}")
            return
        result.check(
            report["converged"] and report["stop_reason"] == "stop_tol",
            f"solve stopped on {report['stop_reason']!r}",
        )
        kkt = max(report["final_kkt"].values())
        result.check(kkt <= 10 * SOLVE_TOL, f"final KKT {kkt:.3e} > {10 * SOLVE_TOL:.1e}")
        result.check(
            lines == report["iterations"] + 2,
            f"trace.csv has {lines} lines for {report['iterations']} rounds",
        )


# -- generic-prox ------------------------------------------------------------------------


def wrap_generic(game: GameSpec) -> GameSpec:
    """The same game with every cost behind the generic oracle interface."""
    agents = [
        AgentSpec(
            omega=agent.omega,
            cost=GenericSmooth(
                value_fn=agent.cost.value,
                grad_fn=agent.cost.grad,
                grad_sigma_fn=agent.cost.grad_sigma,
                curvature=agent.cost.a,
                strong_convexity=agent.cost.a,
            ),
            A=agent.A,
            b=agent.b,
        )
        for agent in game.agents
    ]
    return GameSpec(dims=game.dims, agents=agents)


@dataclass
class GenericProx:
    """A small benchmark instance solved through the per-agent generic prox."""

    name = "generic-prox"
    # instances a run: round counts differ by up to a third between them
    instances = 2
    scale: Scale
    outdir: Path

    def _config(self, N: int) -> aeng.RunConfig:
        return aeng.RunConfig(
            steps=abm.benchmark_steps(N), stop_tol=SOLVE_TOL, max_iters=SOLVE_BUDGET
        )

    def prepare(self, seed: int) -> Instance:
        game = abm.generate_benchmark(replace(self.scale.generic, seed=seed))
        # the answer check: the batched closed-form solve of the unwrapped game
        expected = aeng.run_dr(game, self._config(game.dims.N)).final_point.x
        return Instance(game=wrap_generic(game), expected=expected)

    def operate(self, instance: Instance) -> OpResult:
        generic = instance.game
        result = OpResult()
        try:
            with _stage(result, "solve_s"):
                trace = aeng.run_dr(generic, self._config(generic.dims.N))
        except MaxItersExceeded as exc:
            result.budget_failures.append(f"generic solve ended on its budget: {exc}")
            return result
        result.check(trace.converged, f"generic solve stopped on {trace.stop_reason!r}")
        err = float(np.max(np.abs(trace.final_point.x - instance.expected)))
        result.check(
            err <= GENERIC_MATCH_TOL,
            f"generic answer differs from the batched solve by {err:.3e}",
        )
        _gap_stage(generic, trace.final_point.x, result, calls=GENERIC_GAP_CALLS)
        _reference_stage(
            generic, LOOSE_REFERENCE_TOL, result, cross_check=False, max_iters=SOLVE_BUDGET
        )
        return result


WORKLOADS = {cls.name: cls for cls in (CertifyPaper, GenericProx)}

# end-to-end metrics: name -> unit, in the order of BENCHMARK.json
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "reference_s": "s",
    "nash_gap_s": "s",
    "peak_rss_mb": "MB",
}
STAGES = ("solve_s", "reference_s", "nash_gap_s")

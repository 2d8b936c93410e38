"""Span tracing around the public functions of the ``aggsplit`` modules.

The library itself carries no instrumentation.  :class:`Tracer` wraps
functions from outside: every module attribute under ``aggsplit`` that
binds a traced function (including names bound at import, such as
``run_dr`` in ``cli`` or ``project_box_simplex_batch`` in
``resolvents``) is replaced by a wrapper for the duration of
:meth:`Tracer.installed`, and restored afterwards.  Call-time imports
(``GameSpec.project_each``) read the patched module attribute.

Each wrapped call records a span: name, start, end, parent span and a
few counters.  Spans stay in memory; :func:`layer_metrics` folds one
operation's spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

import aggsplit
import aggsplit.benchmark
import aggsplit.cli
import aggsplit.engine
import aggsplit.game
import aggsplit.operators
import aggsplit.projections
import aggsplit.resolvents
from aggsplit.errors import MaxItersExceeded


@dataclass
class Span:
    name: str
    start: int
    parent: int
    end: int = 0
    child_ns: int = 0
    rows: int = 0
    grad_evals: int = 0
    rounds: int = 0
    budget_hit: bool = False

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


@dataclass
class Tracer:
    """In-memory span recorder; one instance per traced operation."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name=name, start=time.perf_counter_ns(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.ns

    def wrap(self, name: str, func, on_call=None, on_result=None):
        """Wrapper recording a span per call.

        ``on_call(span, args, kwargs)`` may return replacement arguments;
        ``on_result(span, result)`` reads the return value.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if on_call is not None:
                    args, kwargs = on_call(span, args, kwargs)
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result
            except MaxItersExceeded as exc:
                if exc.trace is not None:
                    span.rounds = exc.trace.iterations
                raise
            finally:
                self._close(span)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        restore: list[tuple[object, str, object]] = []

        def patch_function(func, wrapper) -> None:
            modules = [m for k, m in sys.modules.items() if k == "aggsplit" or k.startswith("aggsplit.")]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

        def patch_attr(owner, attr: str, wrapper) -> None:
            restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        try:
            for name, func, on_call, on_result in self._function_table():
                patch_function(func, self.wrap(name, func, on_call, on_result))
            game_cls = aggsplit.game.GameSpec
            patch_attr(
                game_cls,
                "project_each",
                self.wrap("game.project_each", game_cls.project_each),
            )
            patch_attr(
                game_cls,
                "load",
                classmethod(self.wrap("game.load", game_cls.load.__func__)),
            )
            engine_cls = aggsplit.engine.DrEngine
            patch_attr(engine_cls, "step", self.wrap("engine.step", engine_cls.step))
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    def _function_table(self):
        """(span name, function, on_call, on_result) for every traced function."""

        def count_rows(span, args, kwargs):
            span.rows = int(args[0].shape[0]) if args else int(kwargs["v"].shape[0])
            return args, kwargs

        def count_grads(span, args, kwargs):
            grad = args[0] if args else kwargs.pop("grad")
            args = args[1:]

            def counted(z):
                span.grad_evals += 1
                return grad(z)

            return (counted, *args), kwargs

        def record_rounds(span, trace):
            span.rounds = trace.iterations

        def record_reference(span, result):
            span.budget_hit = result[1].stop_reason == "max_iters"

        bm, eng, gm = aggsplit.benchmark, aggsplit.engine, aggsplit.game
        ops, proj, res = aggsplit.operators, aggsplit.projections, aggsplit.resolvents
        return [
            ("cli.main", aggsplit.cli.main, None, None),
            ("game.validate", gm.validate_game, None, None),
            ("game.phase1", gm.find_feasible_point, None, None),
            ("projections.box_simplex", proj.project_box_simplex_batch, count_rows, None),
            ("projections.fista", proj.fista_minimize, count_grads, None),
            ("projections.dykstra", proj.dykstra_projection, None, None),
            ("resolvents.batched_prox", res.batched_quadratic_prox, None, None),
            ("resolvents.local_prox", res.local_prox, None, None),
            ("engine.dr_init", eng.dr_init, None, None),
            ("engine.coordinator", eng.coordinator_update, None, None),
            ("engine.run_dr", eng.run_dr, None, record_rounds),
            ("engine.run_pfb", eng.run_pfb, None, record_rounds),
            ("operators.kkt", ops.kkt_residual, None, None),
            ("operators.probe", ops.monotonicity_probe, None, None),
            ("benchmark.generate", bm.generate_benchmark, None, None),
            ("benchmark.reference", bm.ground_truth_point, None, record_reference),
            ("benchmark.nash_gap", bm.epsilon_nash_gap, None, None),
        ]


# -- per-layer metrics ----------------------------------------------------------------------

# metric name -> unit; the order is the order of BENCHMARK.json
LAYER_UNITS = {
    "cli.self_s": "s",
    "game.load_s": "s",
    "game.validate_s": "s",
    "game.validate_calls": "count",
    "game.phase1_s": "s",
    "game.phase1_project_calls": "count",
    "game.project_each_calls": "count",
    "projections.box_simplex_s": "s",
    "projections.box_simplex_calls": "count",
    "projections.box_simplex_rows": "count",
    "projections.rows_per_call": "rows/call",
    "projections.fista_s": "s",
    "projections.fista_calls": "count",
    "projections.fista_grad_evals": "count",
    "projections.dykstra_calls": "count",
    "resolvents.batched_prox_s": "s",
    "resolvents.batched_prox_calls": "count",
    "resolvents.local_prox_s": "s",
    "resolvents.local_prox_calls": "count",
    "engine.dr_init_s": "s",
    "engine.dr_init_calls": "count",
    "engine.step_s": "s",
    "engine.dr_rounds": "count",
    "engine.pfb_rounds": "count",
    "engine.pfb_s": "s",
    "engine.coordinator_s": "s",
    "engine.loop_s": "s",
    "operators.kkt_s": "s",
    "operators.kkt_calls": "count",
    "operators.probe_s": "s",
    "benchmark.generate_s": "s",
    "benchmark.reference_self_s": "s",
    "benchmark.reference_budget_hits": "count",
    "benchmark.nash_gap_self_s": "s",
    "trace.overhead_frac": "ratio",
}

# counts that must repeat exactly across runs of one seed
EXACT_COUNTS = (
    "engine.dr_rounds",
    "engine.pfb_rounds",
    "projections.box_simplex_calls",
    "projections.box_simplex_rows",
    "projections.fista_grad_evals",
    "operators.kkt_calls",
)


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Fold one operation's spans into the per-layer metrics.

    ``benchmark.generate_s`` and ``trace.overhead_frac`` describe set-up
    and the comparison with untraced runs; the caller fills them in.
    """
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for span in spans:
        total_ns[span.name] = total_ns.get(span.name, 0) + span.ns
        self_ns[span.name] = self_ns.get(span.name, 0) + span.self_ns
        calls[span.name] = calls.get(span.name, 0) + 1

    def seconds(table: dict[str, int], name: str) -> float:
        return table.get(name, 0) * 1e-9

    def of(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    kernel_calls = calls.get("projections.box_simplex", 0)
    kernel_rows = sum(s.rows for s in of("projections.box_simplex"))
    return {
        "cli.self_s": seconds(self_ns, "cli.main"),
        "game.load_s": seconds(total_ns, "game.load"),
        "game.validate_s": seconds(total_ns, "game.validate"),
        "game.validate_calls": calls.get("game.validate", 0),
        "game.phase1_s": seconds(total_ns, "game.phase1"),
        "game.phase1_project_calls": sum(
            1 for s in of("game.project_each") if _has_ancestor(spans, s, "game.phase1")
        ),
        "game.project_each_calls": calls.get("game.project_each", 0),
        "projections.box_simplex_s": seconds(total_ns, "projections.box_simplex"),
        "projections.box_simplex_calls": kernel_calls,
        "projections.box_simplex_rows": kernel_rows,
        "projections.rows_per_call": kernel_rows / kernel_calls if kernel_calls else 0.0,
        "projections.fista_s": seconds(total_ns, "projections.fista"),
        "projections.fista_calls": calls.get("projections.fista", 0),
        "projections.fista_grad_evals": sum(s.grad_evals for s in of("projections.fista")),
        "projections.dykstra_calls": calls.get("projections.dykstra", 0),
        "resolvents.batched_prox_s": seconds(total_ns, "resolvents.batched_prox"),
        "resolvents.batched_prox_calls": calls.get("resolvents.batched_prox", 0),
        "resolvents.local_prox_s": seconds(total_ns, "resolvents.local_prox"),
        "resolvents.local_prox_calls": calls.get("resolvents.local_prox", 0),
        "engine.dr_init_s": seconds(total_ns, "engine.dr_init"),
        "engine.dr_init_calls": calls.get("engine.dr_init", 0),
        "engine.step_s": seconds(total_ns, "engine.step"),
        "engine.dr_rounds": sum(s.rounds for s in of("engine.run_dr")),
        "engine.pfb_rounds": sum(s.rounds for s in of("engine.run_pfb")),
        "engine.pfb_s": seconds(total_ns, "engine.run_pfb"),
        "engine.coordinator_s": seconds(total_ns, "engine.coordinator"),
        "engine.loop_s": seconds(self_ns, "engine.run_dr") + seconds(self_ns, "engine.run_pfb"),
        "operators.kkt_s": seconds(total_ns, "operators.kkt"),
        "operators.kkt_calls": calls.get("operators.kkt", 0),
        "operators.probe_s": seconds(total_ns, "operators.probe"),
        "benchmark.generate_s": seconds(total_ns, "benchmark.generate"),
        "benchmark.reference_self_s": seconds(self_ns, "benchmark.reference"),
        "benchmark.reference_budget_hits": sum(
            1 for s in of("benchmark.reference") if s.budget_hit
        ),
        "benchmark.nash_gap_self_s": seconds(self_ns, "benchmark.nash_gap"),
        "trace.overhead_frac": 0.0,
    }

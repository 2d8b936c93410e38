"""Benchmark of the aggsplit solver: one workload per invocation.

    python3 bench/run.py --workload certify-paper --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --smoke            # all workloads at tiny scale, both modes

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  The load is a
closed loop with one client in one process: each operation starts when
the previous one ends, until ``--seconds`` have passed.  A run sets up
the workload's number of instances from its seed and reports the median
set-up time.  It then runs whole cycles, one operation on each
instance in turn (at least one cycle), and reports each stage time as the
mean over the instances of the instance's median.

With ``--trace 0`` the run reports the end-to-end metrics, timed with
tracing off.  With ``--trace 1`` it sets up the first instance only,
alternates untraced and traced operations on it, and reports per-layer
metrics of one operation (see ``tracing.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
Seed 12345 is held out: use it to confirm a claim, never to tune one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
HELD_OUT_SEED = 12345


def _limit_threads() -> None:
    """BLAS/OpenMP pools: one thread unless the caller chose a count, never above nproc.

    Must run before numpy is imported.
    """
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(min(max(wanted, 1), nproc))


def _import_checkout() -> None:
    """Import ``aggsplit`` from this checkout's ``src/``, or exit with status 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import aggsplit
    except ImportError as exc:
        sys.exit(f"bench: cannot import aggsplit from {src}: {exc}")
    if not Path(aggsplit.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: aggsplit was imported from {aggsplit.__file__}, not {src}")


if __name__ == "__main__":
    _limit_threads()
    _import_checkout()

import numpy as np  # noqa: E402  (after the thread limits)

from tracing import EXACT_COUNTS, LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END_UNITS,
    PAPER_SCALE,
    SMOKE_SCALE,
    STAGES,
    WORKLOADS,
    Instance,
    OpResult,
)

from aggsplit.errors import AggsplitError  # noqa: E402


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (percent, value)."""
    if len(values) <= 10:
        return None
    ordered = sorted(values)
    k = len(ordered) - 10
    return 100.0 * k / len(ordered), ordered[k - 1]


def source_digest() -> str:
    """Digest of everything the exact counts depend on: the package and the benchmark."""
    h = hashlib.sha256()
    paths = sorted((ROOT / "src" / "aggsplit").glob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Run:
    """One benchmark run: set-up, then operations in a closed loop."""

    def __init__(self, workload: str, seed: int, seconds: float, scale, outroot: Path):
        self.workload = WORKLOADS[workload](scale=scale, outdir=outroot / f"{workload}-{seed}")
        self.seed = seed
        self.seconds = seconds
        self.outroot = outroot
        self.ops: list[OpResult] = []
        self.flags: list[str] = []

    def _operate(self, instance: Instance) -> OpResult:
        try:
            result = self.workload.operate(instance)
        except AggsplitError as exc:
            result = OpResult(answer_failures=[f"{type(exc).__name__}: {exc}"])
        self.ops.append(result)
        stages = " ".join(f"{name}={value:.4f}" for name, value in result.stages.items())
        print(f"op {len(self.ops)}: {stages}")
        for message in result.budget_failures + result.answer_failures:
            print(f"op {len(self.ops)} failed: {message}")
        return result

    def _setup(self, count: int) -> tuple[list[Instance], list[float]]:
        """Set up the first ``count`` instances of this seed; returns them and their times.

        Instance seeds are disjoint across run seeds: with ``k`` instances
        a run, seed ``s`` owns ``k * s`` to ``k * s + k - 1``.
        """
        k = self.workload.instances
        instances, times = [], []
        for j in range(count):
            t0 = time.perf_counter()
            instances.append(self.workload.prepare(k * self.seed + j))
            times.append(time.perf_counter() - t0)
        return instances, times

    def _rounds(self, body) -> None:
        """Call ``body`` until ``--seconds`` have passed; at least once.

        A round starts only if it is expected (from the one before) to end
        inside the window, so every round completes.
        """
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            body()
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > self.seconds:
                return

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        instances, setup_times = self._setup(self.workload.instances)
        per_instance: list[list[OpResult]] = [[] for _ in instances]

        def cycle() -> None:
            for instance, results in zip(instances, per_instance):
                results.append(self._operate(instance))

        self._rounds(cycle)
        out = {"setup_s": (statistics.median(setup_times), len(setup_times))}
        for name in STAGES:
            medians = []
            for results in per_instance:
                values = [op.stages[name] for op in results if name in op.stages]
                if values:
                    medians.append(statistics.median(values))
            if len(medians) < len(instances):
                self.flags.append(f"{name}: no sample on {len(instances) - len(medians)} instance(s)")
                continue
            # each instance weighs the same, however its operations ended
            out[name] = (statistics.fmean(medians), sum(len(r) for r in per_instance))
            extra = tail([op.stages[name] for op in self.ops if name in op.stages])
            if extra is not None:
                print(f"{name}: p{extra[0]:.0f} {extra[1]:.6f} s")
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        return out

    def per_layer(self) -> dict[str, tuple[float, int]]:
        (instance,), _ = self._setup(1)
        tracer = Tracer()
        with tracer.installed():
            self._setup(1)
        generate_s = layer_metrics(tracer.spans)["benchmark.generate_s"]

        untraced, traced, layers = [], [], []

        def pair() -> None:
            # always the first instance, so that counts repeat across runs
            untraced.append(sum(self._operate(instance).stages.values()))
            tracer.reset()
            with tracer.installed():
                traced.append(sum(self._operate(instance).stages.values()))
            layers.append(layer_metrics(tracer.spans))

        self._rounds(pair)
        self._check_counts(layers)

        out = {}
        for name in LAYER_UNITS:
            out[name] = (statistics.median(layer[name] for layer in layers), len(layers))
        out["benchmark.generate_s"] = (generate_s, 1)
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        out["trace.overhead_frac"] = (overhead, len(traced))
        return out

    def _check_counts(self, layers: list[dict]) -> None:
        """Exact counts must repeat across operations and across runs of one seed."""
        counts = {name: layers[0][name] for name in EXACT_COUNTS}
        for k, layer in enumerate(layers[1:], start=2):
            for name in EXACT_COUNTS:
                if layer[name] != counts[name]:
                    self.flags.append(
                        f"count {name}: traced operation {k} counted {layer[name]}, the first {counts[name]}"
                    )
        scale = "smoke" if self.workload.scale is SMOKE_SCALE else "paper"
        key = f"counts-{self.workload.name}-{scale}-{self.seed}-{source_digest()}.json"
        path = self.outroot / key
        if path.exists():
            earlier = json.loads(path.read_text())
            for name in EXACT_COUNTS:
                if earlier.get(name) != counts[name]:
                    self.flags.append(f"count {name}: {counts[name]} here, {earlier.get(name)} in an earlier run")
        else:
            self.outroot.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(counts))

    def execute(self, trace: bool) -> dict:
        measured = self.per_layer() if trace else self.end_to_end()
        units = LAYER_UNITS if trace else END_TO_END_UNITS
        failed = sum(op.failed for op in self.ops)
        print(f"workload {self.workload.name} seed {self.seed}: {len(self.ops)} operations, {failed} failed")
        for name, (value, count) in measured.items():
            print(f"{name}: {value:.6g} {units[name]} (from {count} samples)")
        for flag in self.flags:
            print(f"FLAG {flag}")
        correct = not self.flags and not any(op.answer_failures for op in self.ops)
        return {
            "correct": correct,
            "attempted": len(self.ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in measured.items()},
        }


def smoke(outroot: Path, workloads: list[str], seed: int) -> int:
    """Every workload, both modes, tiny scale; every named metric must be present."""
    ok = True
    for name in workloads:
        for trace, units in ((False, END_TO_END_UNITS), (True, LAYER_UNITS)):
            result = Run(name, seed, 0.0, SMOKE_SCALE, outroot).execute(trace)
            missing = sorted(set(units) - set(result["metrics"]))
            ok &= result["correct"] and not missing
            print("SMOKE " + json.dumps({"workload": name, "trace": int(trace), "missing": missing, "result": result}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scale, all workloads unless one is named")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out", help="scratch directory for outputs")
    args = parser.parse_args(argv)
    print("ENV " + json.dumps(environment(args.seed)))
    if args.smoke:
        return smoke(args.out, [args.workload] if args.workload else sorted(WORKLOADS), args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    run = Run(args.workload, args.seed, args.seconds, PAPER_SCALE, args.out)
    print(json.dumps(run.execute(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

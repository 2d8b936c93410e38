"""Command-line front end: generate, solve, compare, verify.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 non-convergence, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .benchmark import BenchmarkParams, benchmark_steps, generate_benchmark, run_comparison
from .engine import RunConfig, run_dr, run_pfb
from .errors import AggsplitError, InvalidStepSizes, MaxItersExceeded
from .game import GameSpec
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3
EXIT_USAGE = 64

PRESETS = {
    # full-scale experiment configuration
    "paper": BenchmarkParams(N=1000, n=10),
    # small instance that finishes in seconds
    "desk": BenchmarkParams(N=50, n=5),
    # aggregate-independent costs: monotone on the extended space, so all
    # operator-theoretic suites are expected to pass
    "toy": BenchmarkParams(N=20, n=5, q_range=(0.0, 0.0), qbar_range=(0.0, 0.0)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _bounded(kind: type, low: float, high: float, expected: str):
    """An argparse type: a ``kind`` number strictly between ``low`` and ``high``, NaN excluded."""

    def number(value: str):  # argparse names it in "invalid number value" when ``kind`` rejects the text
        x = kind(value)
        if not low < x < high:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
        return x

    return number


_positive_int = _bounded(int, 0, math.inf, "a positive integer")
_nonnegative_int = _bounded(int, -1, math.inf, "a nonnegative integer")
_positive_float = _bounded(float, 0.0, math.inf, "a positive finite number")
_fraction = _bounded(float, 0.0, 1.0, "a number in (0, 1)")


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
    p.add_argument("--N", type=_positive_int, help="number of agents")
    p.add_argument("--n", type=_positive_int, help="decision dimension per agent")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="instance seed")


def _add_step_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=1.0, help="per-agent step size")
    p.add_argument("--alpha", type=float, default=1.0, help="aggregate step size")
    p.add_argument("--delta-c", type=float, default=0.5, help="central coupling step")
    p.add_argument("--beta-c", type=float, default=0.5, help="central consensus step")


def _params_from_args(args) -> BenchmarkParams:
    sizes = {name: size for name, size in (("N", args.N), ("n", args.n)) if size is not None}
    return replace(PRESETS.get(args.preset, BenchmarkParams(N=50, n=5)), seed=args.seed, **sizes)


# -- subcommands -------------------------------------------------------------------------


def _load_game(path: str) -> GameSpec:
    """The game in file ``path``; exits with EXIT_INPUT_ERROR after saying why it cannot be read."""
    try:
        return GameSpec.load(path)
    except (OSError, ValueError, KeyError, AggsplitError) as exc:
        print(f"failed to read game file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR) from None


def cmd_generate(args) -> int:
    params = _params_from_args(args)
    game = generate_benchmark(params)  # raises GenerationFailed unless the game validates
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    game.save(out)
    print(f"OK: wrote {out} (N={params.N}, n={params.n}, seed={params.seed})")
    return EXIT_OK


def cmd_solve(args) -> int:
    game = _load_game(args.game)
    steps = benchmark_steps(game.dims.N, args.gamma, args.alpha, args.delta_c, args.beta_c)
    config = RunConfig(
        steps=steps,
        relaxation=args.relaxation,
        max_iters=args.max_iters,
        stop_tol=args.tol,
        record_every=args.record_every,
    )
    runner = run_dr if args.method == "dr" else run_pfb
    code = EXIT_OK
    try:
        trace = runner(game, config)
    except MaxItersExceeded as exc:
        trace = exc.trace
        code = EXIT_NO_CONVERGENCE
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "trace.csv").write_text(trace.to_csv())
    (outdir / "report.json").write_text(json.dumps(trace.to_json_dict(), indent=2))
    kkt = trace.final_kkt.max_value()
    print(
        f"{args.method}: {'converged' if trace.converged else 'stopped'} "
        f"({trace.stop_reason}) after "
        f"{trace.iterations} iterations, terminal residual {kkt:.3e}"
    )
    return code


def cmd_compare(args) -> int:
    params = _params_from_args(args)
    try:
        report = run_comparison(
            params,
            num_seeds=args.seeds,
            tol=args.tol,
            max_iters=args.max_iters,
            workers=args.threads,
        )
    except AggsplitError as exc:
        print(f"comparison produced no usable seed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    outdir = Path(args.out)
    report.save(outdir)
    for rec in report.records:
        if rec.error:
            print(f"seed {rec.seed}: FAILED ({rec.error})")
            continue
        cells = ", ".join(
            f"{name}: {res.iters_to_tol if res.iters_to_tol is not None else '>max'} iters"
            for name, res in rec.results.items()
        )
        print(f"seed {rec.seed}: {cells}")
    if report.speed_ratio is not None:
        print(f"mean pfb/dr iteration ratio: {report.speed_ratio:.2f}")
    print(f"wrote {outdir}/report.json, summary.csv and mean curves")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.game:
        game = _load_game(args.game)
    else:
        params = _params_from_args(args)
        game = generate_benchmark(params)
    suites = tuple(args.suite) if args.suite else None
    steps = benchmark_steps(game.dims.N, args.gamma, args.alpha, args.delta_c, args.beta_c)
    results = run_suites(game, steps, suites=suites)
    all_ok = True
    for res in results:
        status = "SKIP" if res.skipped else ("PASS" if res.passed else "FAIL")
        all_ok &= res.ok
        print(f"{res.suite:<12} {status}  {res.detail}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aggsplit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="draw a benchmark instance and write it as JSON")
    _add_instance_args(p_gen)
    p_gen.add_argument("-o", "--out", required=True, help="output game file")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="solve a game file and write trace + report")
    p_solve.add_argument("game", help="game JSON file")
    p_solve.add_argument("--method", choices=("dr", "pfb"), default="dr")
    p_solve.add_argument("--tol", type=_positive_float, default=1e-8)
    p_solve.add_argument("--max-iters", type=_positive_int, default=100_000)
    p_solve.add_argument("--relaxation", type=float, default=1.0)
    p_solve.add_argument("--record-every", type=_positive_int, default=1)
    p_solve.add_argument("-o", "--out", default="run_out")
    _add_step_args(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="multi-seed comparison of the two methods")
    _add_instance_args(p_cmp)
    p_cmp.add_argument("--seeds", type=_positive_int, required=True)
    p_cmp.add_argument("--tol", type=_fraction, default=1e-6)
    p_cmp.add_argument("--max-iters", type=_positive_int, default=200_000)
    p_cmp.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1)
    p_cmp.add_argument("-o", "--out", default="compare_out")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="check the resolvents, firmness, trajectory and KKT point on a game")
    _add_instance_args(p_ver)
    p_ver.add_argument("--game", help="game JSON file (overrides preset)")
    p_ver.add_argument(
        "--suite", action="append", choices=SUITES, help="run only this suite (repeatable)"
    )
    _add_step_args(p_ver)
    p_ver.set_defaults(func=cmd_verify, preset="toy")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidStepSizes as exc:
        print(f"invalid step sizes: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MaxItersExceeded:
        return EXIT_NO_CONVERGENCE
    except AggsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

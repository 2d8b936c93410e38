import base64
import dataclasses
import json
import sys

import numpy as np
import pytest

import aggsplit.game
from aggsplit.benchmark import BenchmarkParams
from aggsplit.cli import PRESETS, main


def run_cli(argv):
    """Invoke the CLI in-process; usage errors surface as SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestGenerate:
    def test_writes_game_and_reports_ok(self, tmp_path, capsys):
        out = tmp_path / "game.json"
        code = run_cli(["generate", "--N", "8", "--n", "4", "--seed", "7", "-o", str(out)])
        assert code == 0
        assert out.exists()
        assert "OK" in capsys.readouterr().out

    def test_same_seed_regenerates_byte_identical_file(self, tmp_path):
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        run_cli(["generate", "--N", "8", "--n", "4", "--seed", "7", "-o", str(f1)])
        run_cli(["generate", "--N", "8", "--n", "4", "--seed", "7", "-o", str(f2)])
        assert f1.read_bytes() == f2.read_bytes()

    def test_validates_the_game_once(self, tmp_path, monkeypatch):
        real, calls = aggsplit.game.validate_game, []

        def spy(game):
            calls.append(game)
            return real(game)

        for module in [m for name, m in sys.modules.items() if name.startswith("aggsplit")]:
            if getattr(module, "validate_game", None) is real:
                monkeypatch.setattr(module, "validate_game", spy)
        assert run_cli(["generate", "--N", "8", "--n", "4", "-o", str(tmp_path / "game.json")]) == 0
        assert len(calls) == 1

    def test_zero_agents_is_a_usage_error(self, tmp_path):
        code = run_cli(["generate", "--N", "0", "-o", str(tmp_path / "x.json")])
        assert code == 64

    def test_a_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli(["generate", "--seed", "-1", "-o", str(tmp_path / "g.json")]) == 64
        argv = ["compare", "--preset", "toy", "--seeds", "1", "--seed", "-3", "-o", str(tmp_path / "c")]
        assert run_cli(argv) == 64
        assert "expected a nonnegative integer, got -3" in capsys.readouterr().err
        assert not (tmp_path / "g.json").exists() and not (tmp_path / "c").exists()


@pytest.fixture()
def game_file(tmp_path):
    path = tmp_path / "game.json"
    assert run_cli(["generate", "--N", "8", "--n", "4", "--seed", "3", "-o", str(path)]) == 0
    return path


def _with_column(payload, name, **field):
    """``payload`` with the fields of game file column ``name`` replaced."""
    stacks = {**payload["stacks"], name: {**payload["stacks"][name], **field}}
    return {**payload, "stacks": stacks}


def _with_entry(payload, name, value):
    """``payload`` with the first entry of column ``name`` set to ``value``."""
    col = np.frombuffer(base64.b64decode(payload["stacks"][name]["f8"]), "<f8").copy()
    col[0] = value
    return _with_column(payload, name, f8=base64.b64encode(col.tobytes()).decode("ascii"))


# id -> (payload -> malformed payload, text the error message must hold)
MALFORMED = {
    "not-an-object": (lambda p: [], "must hold a JSON object"),
    "dims-not-an-object": (lambda p: {**p, "dims": "x"}, "field dims"),
    "dims-missing": (lambda p: {"stacks": p["stacks"]}, "field dims"),
    "dims-not-integers": (lambda p: {**p, "dims": {**p["dims"], "N": "8"}}, "dims must give integers"),
    "stacks-missing": (lambda p: {"dims": p["dims"]}, "field stacks"),
    "stacks-not-an-object": (lambda p: {**p, "stacks": []}, "field stacks"),
    "column-missing": (
        lambda p: {**p, "stacks": {k: v for k, v in p["stacks"].items() if k != "Q"}},
        "field stacks.Q",
    ),
    "column-not-an-object": (lambda p: {**p, "stacks": {**p["stacks"], "A": None}}, "field stacks.A"),
    "shape-off-the-dims": (lambda p: _with_column(p, "b", shape=[8, 1]), "stacks.b needs shape [8, 4]"),
    "bytes-off-the-shape": (
        lambda p: _with_column(p, "total", f8=base64.b64encode(bytes(56)).decode("ascii")),
        "stacks.total holds 56 bytes",
    ),
    "bytes-not-base64": (lambda p: _with_column(p, "a", f8="@@@@"), "failed to read game file"),
    "old-layout": (lambda p: {"dims": "x", "agents": []}, "aggsplit generate"),
    "old-layout-null-agents": (lambda p: {"dims": p["dims"], "agents": None}, "aggsplit generate"),
    "nan-coupling-entry": (lambda p: _with_entry(p, "A", np.nan), "must be finite"),
    "inf-cap": (lambda p: _with_entry(p, "upper", np.inf), "must be finite"),
}


class TestSolve:
    def test_dr_converges_and_writes_outputs(self, tmp_path, game_file):
        out = tmp_path / "run"
        code = run_cli(
            ["solve", str(game_file), "--method", "dr", "--tol", "1e-8", "-o", str(out)]
        )
        assert code == 0
        assert (out / "trace.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True

    def test_prints_the_stop_reason(self, tmp_path, game_file, capsys):
        code = run_cli(["solve", str(game_file), "--tol", "1e-8", "-o", str(tmp_path / "run")])
        assert code == 0
        assert "dr: converged (stop_tol) after" in capsys.readouterr().out

    def test_pfb_also_converges(self, tmp_path, game_file):
        out = tmp_path / "run_pfb"
        code = run_cli(
            ["solve", str(game_file), "--method", "pfb", "--tol", "1e-7", "-o", str(out)]
        )
        assert code == 0

    def test_pfb_refuses_a_relaxation(self, tmp_path, game_file, capsys):
        out = tmp_path / "o"
        assert run_cli(["solve", str(game_file), "--method", "pfb", "--relaxation", "0.3", "-o", str(out)]) == 2
        assert "relaxation" in capsys.readouterr().err
        assert not out.exists()  # a refused run writes nothing

    def test_iteration_cap_exits_three_with_partial_trace(self, tmp_path, game_file):
        out = tmp_path / "short"
        code = run_cli(
            ["solve", str(game_file), "--tol", "1e-14", "--max-iters", "1", "-o", str(out)]
        )
        assert code == 3
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(lines) >= 2  # header plus at least the recorded iterations

    def test_malformed_input_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["solve", str(bad), "-o", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("mutate, expected", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_wrong_shaped_game_file_exits_two(self, tmp_path, game_file, capsys, mutate, expected):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutate(json.loads(game_file.read_text()))))
        for command in (["solve", str(bad), "-o", str(tmp_path / "o")], ["verify", "--game", str(bad)]):
            assert run_cli(command) == 2
            err = capsys.readouterr().err
            assert expected in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "-1e-8", "0", "inf"])
    def test_nan_or_negative_tolerance_is_a_usage_error(self, tmp_path, game_file, tol):
        assert run_cli(["solve", str(game_file), f"--tol={tol}", "-o", str(tmp_path / "o")]) == 64
        assert run_cli(["compare", "--seeds", "1", f"--tol={tol}", "-o", str(tmp_path / "c")]) == 64

    def test_a_bad_row_names_the_file_and_the_agent(self, tmp_path, game_file, capsys):
        payload = json.loads(game_file.read_text())
        total = np.frombuffer(base64.b64decode(payload["stacks"]["total"]["f8"]), "<f8").copy()
        total[7] = 5.0  # agent 7's caps sum to 2: its local set is empty
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_with_column(payload, "total", f8=base64.b64encode(total.tobytes()).decode())))
        for command in (["solve", str(bad), "-o", str(tmp_path / "o")], ["verify", "--game", str(bad)]):
            assert run_cli(command) == 2
            err = capsys.readouterr().err
            assert f"failed to read game file {bad}: local set of agent 7 is empty" in err

    def test_missing_file_exits_two(self, tmp_path):
        assert run_cli(["solve", str(tmp_path / "absent.json"), "-o", str(tmp_path / "o")]) == 2


class TestCompare:
    def test_smoke_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli(
            [
                "compare",
                "--N", "10",
                "--n", "4",
                "--seeds", "2",
                "--tol", "1e-5",
                "--threads", "1",
                "-o", str(out),
            ]
        )
        assert code == 0
        assert (out / "summary.csv").exists()
        assert (out / "curve_dr.csv").exists()
        assert (out / "curve_pfb.csv").exists()
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == "seed,method,iters_to_tol,final_kkt,wall_ms"
        assert len(summary) == 1 + 2 * 2

    def test_report_names_the_instance_family(self, tmp_path):
        # the toy preset differs from the default family only in its aggregate-coupling ranges
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--preset", "toy", "--seeds", "1", "--threads", "1", "-o", str(out)]) == 0
        params = json.loads((out / "report.json").read_text())["params"]
        want = dataclasses.replace(PRESETS["toy"], seed=0)
        for field in dataclasses.fields(BenchmarkParams):
            got = params[field.name]
            assert (tuple(got) if isinstance(got, list) else got) == getattr(want, field.name), field.name

    def test_zero_seeds_is_a_usage_error(self, tmp_path):
        assert run_cli(["compare", "--seeds", "0", "-o", str(tmp_path)]) == 64

    @pytest.mark.parametrize("tol", ["1", "2.5"])
    def test_a_tolerance_of_one_or_more_is_a_usage_error(self, tmp_path, tol):
        argv = ["compare", "--preset", "toy", "--seeds", "1", "--threads", "1", f"--tol={tol}"]
        assert run_cli([*argv, "-o", str(tmp_path / "c")]) == 64

    def test_unusable_instances_exit_three(self, tmp_path):
        # n = 1 cannot satisfy the cap law, so every seed fails to generate
        code = run_cli(
            ["compare", "--N", "4", "--n", "1", "--seeds", "2", "-o", str(tmp_path / "x")]
        )
        assert code == 3


class TestVerify:
    def test_default_instance_passes_all_suites(self, capsys):
        assert run_cli(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_suite_filtering(self, capsys):
        assert run_cli(["verify", "--suite", "resolvents"]) == 0
        out = capsys.readouterr().out
        assert "resolvents" in out
        assert "trajectory" not in out

    def test_unknown_suite_name_rejected(self, desk_game, desk_steps):
        from aggsplit.verify import run_suites

        with pytest.raises(ValueError):
            run_suites(desk_game, desk_steps, suites=("kkt", "no-such-suite"))

    @pytest.mark.parametrize("suite", ["splitting", "skew", "step-sizes"])
    def test_removed_suite_names_are_usage_errors(self, suite, capsys):
        assert run_cli(["verify", "--suite", suite]) == 64
        assert "invalid choice" in capsys.readouterr().err

    def test_out_of_range_central_step_fails_verification(self, capsys):
        assert run_cli(["verify", "--delta-c", "1.0"]) == 2
        assert "invalid step sizes" in capsys.readouterr().err

    def test_aggregate_coupled_instance_skips_firmness_but_passes(self, tmp_path, capsys):
        # firm nonexpansiveness is inapplicable when costs track the aggregate
        game = tmp_path / "coupled.json"
        run_cli(["generate", "--preset", "desk", "--seed", "42", "-o", str(game)])
        capsys.readouterr()
        assert run_cli(["verify", "--game", str(game)]) == 0
        out = capsys.readouterr().out
        assert "SKIP" in out and "FAIL" not in out

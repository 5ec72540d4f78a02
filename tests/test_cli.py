"""Command line surface: files, summary lines, and exit codes."""

import csv
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from congames import cli, hardness, verify
from congames.hardness import flip_instance_to_dict, FlipInstance
from congames.serialize import (
    game_from_dict,
    game_to_dict,
    read_instance,
    write_instance,
    write_state,
)
from congames import CongestionGame

FIXTURES = Path(__file__).parent / "fixtures"


def run(argv):
    return cli.main(argv)


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "inst.json"
    assert run([
        "gen", "--seed", "7", "--n", "4", "--resources", "6", "--d", "1",
        "--strategies", "3", "--out", str(path),
    ]) == 0
    return path


class TestGen:
    def test_round_trip_lossless(self, tmp_path, instance):
        game, _ = read_instance(str(instance))
        again = tmp_path / "again.json"
        write_instance(game, str(again))
        assert instance.read_bytes() == again.read_bytes()

    def test_invalid_flags_exit_2(self, tmp_path, capsys):
        code = run([
            "gen", "--seed", "1", "--n", "3", "--resources", "2",
            "--size-max", "5", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_symmetric_flag_reflected(self, tmp_path):
        path = tmp_path / "sym.json"
        assert run([
            "gen", "--seed", "3", "--n", "4", "--resources", "6",
            "--symmetric", "--out", str(path),
        ]) == 0
        game, _ = read_instance(str(path))
        assert all(p == game.players[0] for p in game.players)

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--seed", "9", "--n", "8", "--resources", "8"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def test_disjoint_no_moves(self, tmp_path, capsys):
        path = tmp_path / "disjoint.json"
        game = CongestionGame(
            [[0, 1], [0, 2], [0, 3], [0, 5]],
            [[[0]], [[1]], [[2]], [[3]]],
        )
        write_instance(game, str(path))
        assert run(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "moves=0" in out and "ok=true" in out

    def test_summary_line_and_bound(self, instance, capsys):
        assert run(["solve", str(instance)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("moves=")
        assert "rho_star=" in out and "bound=" in out and "ok=true" in out

    def test_trace_deterministic(self, instance, tmp_path):
        t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
        assert run(["solve", str(instance), "--trace", str(t1)]) == 0
        assert run(["solve", str(instance), "--trace", str(t2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_successive_calls_share_no_options(self, tmp_path):
        # The parser is built once per process; a later call must not see
        # the options of an earlier one.
        assert cli.build_parser() is cli.build_parser()
        path = str(FIXTURES / "random_d1.json")
        scan, rand, again = (tmp_path / f"{k}.json" for k in ("scan", "rand", "again"))
        assert run(["solve", path, "--trace", str(scan)]) == 0
        assert run([
            "solve", path, "--scheduler", "random", "--seed", "5",
            "--trace", str(rand),
        ]) == 0
        assert run(["solve", path, "--trace", str(again)]) == 0
        assert rand.read_bytes() != scan.read_bytes()
        assert again.read_bytes() == scan.read_bytes()

    def test_degree_two_without_theta_exits_2(self, tmp_path, capsys):
        path = tmp_path / "d2.json"
        assert run([
            "gen", "--seed", "5", "--n", "4", "--resources", "6", "--d", "2",
            "--out", str(path),
        ]) == 0
        assert run(["solve", str(path)]) == 2
        assert "theta override" in capsys.readouterr().err

    def test_degree_two_with_theta(self, tmp_path, capsys):
        path = tmp_path / "d2.json"
        run(["gen", "--seed", "5", "--n", "4", "--resources", "6", "--d", "2",
             "--out", str(path)])
        assert run(["solve", str(path), "--theta", "3"]) == 0
        assert "ok=true" in capsys.readouterr().out

    def test_small_instance_parameter_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        write_instance(CongestionGame([[0, 1]], [[[0]], [[0]]]), str(path))
        assert run(["solve", str(path)]) == 2

    def test_single_player_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        write_instance(CongestionGame([[0, 1], [2]], [[[0], [1]]]), str(path))
        assert run(["solve", str(path)]) == 2
        assert "need at least 2 players" in capsys.readouterr().err

    def test_cap_breach_exits_4(self, tmp_path):
        path = tmp_path / "cap.json"
        assert run(["gen", "--seed", "3", "--n", "12", "--resources", "4",
                    "--strategies", "3", "--out", str(path)]) == 0
        code = run(["solve", str(path), "--move-cap", "0"])
        assert code in (0, 4)  # 4 whenever the schedule needs any move
        if code == 0:
            pytest.skip("seed needs no moves; cap cannot be breached")


class TestVerifyBrute:
    def test_verify_state(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        write_instance(CongestionGame([[4], [1]], [[[0], [1]]]), str(inst))
        st = tmp_path / "s.json"
        write_state([0], str(st))
        assert run(["verify", str(inst), str(st), "--rho", "2"]) == 0
        out = capsys.readouterr().out
        assert "rho_star=4" in out and "ok=false" in out
        assert run(["verify", str(inst), str(st), "--rho", "inf"]) == 0
        assert "ok=true" in capsys.readouterr().out
        assert run(["verify", str(inst), str(st), "--rho", "1"]) == 0
        assert "ok=false" in capsys.readouterr().out

    @pytest.mark.parametrize("rho", ["0", "-5", "1/2"])
    def test_verify_rho_below_one_exit_2(self, tmp_path, capsys, rho):
        inst = tmp_path / "i.json"
        write_instance(CongestionGame([[4], [1]], [[[0], [1]]]), str(inst))
        st = tmp_path / "s.json"
        write_state([0], str(st))
        assert run(["verify", str(inst), str(st), "--rho", rho]) == 2
        captured = capsys.readouterr()
        assert "rho must be >= 1" in captured.err
        assert captured.out == ""

    def test_verify_report_file(self, tmp_path):
        inst = tmp_path / "i.json"
        write_instance(CongestionGame([[4], [1]], [[[0], [1]]]), str(inst))
        st = tmp_path / "s.json"
        write_state([0], str(st))
        rep = tmp_path / "r.json"
        assert run(["verify", str(inst), str(st), "--report", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["rho_star"] == "4"

    def test_brute_hand_check(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        # players on shared f(x)=x: min potential splits them
        write_instance(
            CongestionGame([[0, 1], [0, 1]], [[[0], [1]], [[0], [1]]]), str(inst)
        )
        assert run(["brute", str(inst)]) == 0
        out = capsys.readouterr().out
        assert "phi_star=2" in out and "state=0,1" in out

    def test_brute_budget_refusal_exit_3(self, instance, capsys):
        assert run(["brute", str(instance), "--budget", "2"]) == 3
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_brute_budget_below_one_exit_2(self, instance, capsys, budget):
        assert run(["brute", str(instance), "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert "budget must be at least 1" in captured.err
        assert captured.out == ""


class TestMalformedInput:
    """Malformed files exit 2 with a message, never with a traceback."""

    @pytest.fixture
    def game_file(self, tmp_path):
        path = tmp_path / "i.json"
        write_instance(CongestionGame([[4], [1]], [[[0], [1]], [[0]]]), str(path))
        return path

    def write_instance_doc(self, tmp_path, strategies):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "mode": "standard",
            "resources": [{"coeffs": ["0", "1"]}, {"coeffs": ["2"]}],
            "players": [{"strategies": strategies}, {"strategies": [[0]]}],
        }))
        return path

    @pytest.mark.parametrize(
        "strategies", [[["a"]], [[1.5]], [[0], [1.5]], 3, [[True]]]
    )
    def test_bad_strategy_exit_2(self, tmp_path, capsys, strategies):
        # `brute`, not `solve`: solve refuses any two-player game here as
        # too small for psi, with exit 2 of its own.
        path = self.write_instance_doc(tmp_path, strategies)
        assert run(["brute", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "state", [[0, "x"], 3, [0, 1.5], [1.0, 0.5], [True, False]]
    )
    def test_bad_state_exit_2(self, tmp_path, game_file, capsys, state):
        st = tmp_path / "s.json"
        st.write_text(json.dumps({"state": state}))
        assert run(["verify", str(game_file), str(st)]) == 2
        assert "error" in capsys.readouterr().err

    def test_integral_float_state_accepted(self, tmp_path, game_file, capsys):
        st = tmp_path / "s.json"
        st.write_text(json.dumps({"state": [1.0, 0]}))
        assert run(["verify", str(game_file), str(st)]) == 0
        assert "rho_star=1" in capsys.readouterr().out


class TestEmptyAndOversizedInput:
    """Empty player lists and values beyond Python's 4300-digit integer string
    limit exit 2 promptly and leave no output file behind."""

    def write_doc(self, tmp_path, coeffs, players):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "mode": "standard",
            "resources": [{"coeffs": c} for c in coeffs],
            "players": [{"strategies": s} for s in players],
        }))
        return path

    @pytest.mark.parametrize("command", ["solve", "verify", "audit", "brute"])
    def test_no_players_exit_2(self, tmp_path, capsys, command):
        path = self.write_doc(tmp_path, [["1"]], [])
        argv = [command, str(path)]
        if command == "verify":
            st = tmp_path / "s.json"
            st.write_text('{"state": []}')
            argv.append(str(st))
        assert run(argv) == 2
        assert "at least one player" in capsys.readouterr().err

    @pytest.mark.parametrize("coeff", ["1e4000000", "1e-4000000"])
    def test_huge_exponent_exit_2_quickly(self, tmp_path, capsys, coeff):
        path = self.write_doc(tmp_path, [[coeff]], [[[0]], [[0]]])
        start = time.perf_counter()
        assert run(["solve", str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert "4300-digit limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "brute"])
    def test_integer_coefficient_beyond_digit_limit(self, tmp_path, capsys, command):
        path = self.write_doc(tmp_path, [["0", "1" * 4301]], [[[0]], [[0]]])
        assert run([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", [
        "1" * 5000, "1" * 5000 + "/3", "0." + "1" * 5000, "1e" + "1" * 5000,
    ], ids=["integer", "rational", "decimal", "exponent"])
    @pytest.mark.parametrize("command", ["solve", "brute"])
    def test_long_coefficient_error_is_short_and_names_limit(
        self, tmp_path, capsys, command, value
    ):
        path = self.write_doc(tmp_path, [["0", value]], [[[0]], [[0]]])
        assert run([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 200
        assert "more than 4300 digits" in err

    def test_solve_trace_beyond_digit_limit(self, tmp_path, capsys):
        big = "9" * 4300
        path = self.write_doc(
            tmp_path, [["0", big], ["0", big]], [[[0], [1]]] * 8
        )
        trace = tmp_path / "t.json"
        assert run(["solve", str(path), "--trace", str(trace)]) == 2
        assert "more than 4300 digits" in capsys.readouterr().err
        assert not trace.exists()

    def test_solve_trace_parameters_beyond_digit_limit(
        self, instance, tmp_path, capsys
    ):
        # base and move_cap of a 4-player trace at psi 2000 are integers
        trace = tmp_path / "t.json"
        argv = ["solve", str(instance), "--psi", "2000", "--trace", str(trace)]
        assert run(argv) == 2
        assert "more than 4300 digits" in capsys.readouterr().err
        assert not trace.exists()

    def test_bench_move_bound_beyond_digit_limit(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        argv = ["bench", "--n-list", "4", "--seeds", "1", "--psi", "2000",
                "--out", str(out)]
        assert run(argv) == 2
        assert "more than 4300 digits" in capsys.readouterr().err
        assert not out.exists()

    def test_flip_gen_beyond_digit_limit(self, tmp_path, capsys):
        # M^5 = alpha^100 for a one-gate circuit: over 4300 digits here
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps(
            flip_instance_to_dict(FlipInstance(1, [(("x", 0), ("x", 0))], [0]))
        ))
        out, bundle = tmp_path / "game.json", tmp_path / "bundle.json"
        argv = ["flip-gen", str(circ), "--alpha", str(10**50),
                "--out", str(out), "--bundle-out", str(bundle)]
        assert run(argv) == 2
        assert "more than 4300 digits" in capsys.readouterr().err
        assert not out.exists() and not bundle.exists()

    def test_flip_gen_digit_limit_checked_before_build(
        self, tmp_path, capsys, monkeypatch
    ):
        def build_flip_game(*args):
            raise AssertionError("the game was built")

        monkeypatch.setattr(hardness, "build_flip_game", build_flip_game)
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps(
            flip_instance_to_dict(FlipInstance(1, [(("x", 0), ("x", 0))], [0]))
        ))
        out = tmp_path / "game.json"
        argv = ["flip-gen", str(circ), "--alpha", str(10**50), "--out", str(out)]
        assert run(argv) == 2
        assert "more than 4300 digits" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--alpha", "--rho"])
    def test_flip_gen_digit_limit_checked_before_ladder(
        self, tmp_path, capsys, monkeypatch, flag
    ):
        def evaluated(*args):
            raise AssertionError("the scale ladder or M^5 was computed")

        monkeypatch.setattr(hardness.GadgetParams, "__post_init__", evaluated)
        monkeypatch.setattr(hardness.GadgetParams, "largest_value", property(evaluated))
        # 4 inputs, a NAND chain of 30 gates, 3 outputs: 591 bundle gates.
        gates = [(("x", 0), ("x", 1))]
        gates += [(("g", k - 1), ("x", k % 4)) for k in range(1, 30)]
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps(
            flip_instance_to_dict(FlipInstance(4, gates, [27, 28, 29]))
        ))
        out = tmp_path / "game.json"
        argv = ["flip-gen", str(circ), flag, str(10**1000), "--out", str(out)]
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1
        assert "more than 4300 digits" in capsys.readouterr().err

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit"
    )
    def test_flip_gen_without_digit_limit(self, tmp_path):
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps(
            flip_instance_to_dict(FlipInstance(1, [(("x", 0), ("x", 0))], [0]))
        ))
        out = tmp_path / "game.json"
        argv = ["flip-gen", str(circ), "--alpha", str(10**50), "--out", str(out)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert run(argv) == 0
        finally:
            sys.set_int_max_str_digits(limit)
        assert out.exists()


class TestAudit:
    def test_instance_audit_clean(self, instance, capsys):
        assert run(["audit", str(instance), "--trials", "200"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_violations"] == 0

    def test_default_corpus(self, capsys):
        assert run(["audit", "--trials", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_violations"] == 0
        assert doc["rosenthal"]["trials"] >= 50

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, instance, capsys, trials):
        for argv in (["audit"], ["audit", str(instance)]):
            assert run([*argv, "--trials", trials]) == 2
            captured = capsys.readouterr()
            assert "--trials must be at least 1" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_exit_2(self, instance, capsys, budget):
        for argv in (["audit"], ["audit", str(instance)]):
            assert run([*argv, "--trials", "50", "--budget", budget]) == 2
            captured = capsys.readouterr()
            assert "budget must be at least 1" in captured.err
            assert captured.out == ""

    def test_violation_exit_4(self, instance, monkeypatch, capsys):
        # a sandwich that fails on every trial: latency sum above the potential
        monkeypatch.setattr(
            verify,
            "aggregate_metrics",
            lambda game, state: (Fraction(3, 2), Fraction(1), Fraction(5, 3)),
        )
        assert run(["audit", str(instance), "--trials", "5"]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_violations"] == len(doc["sandwich"]["violations"]) == 5
        example = doc["sandwich"]["violations"][0]
        assert list(example) == [
            "instance", "state", "latency_sum", "potential", "total_cost"
        ]
        assert [example[k] for k in list(example)[2:]] == ["3/2", "1", "5/3"]
        game, _labels = game_from_dict(example["instance"])
        assert game_to_dict(game) == game_to_dict(read_instance(str(instance))[0])


class TestFlipGen:
    def test_one_gate_circuit(self, tmp_path, capsys):
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps(
            flip_instance_to_dict(FlipInstance(1, [(("x", 0), ("x", 0))], [0]))
        ))
        out = tmp_path / "game.json"
        bundle = tmp_path / "bundle.json"
        assert run(["flip-gen", str(circ), "--out", str(out),
                    "--bundle-out", str(bundle)]) == 0
        assert "structural_ok=true" in capsys.readouterr().out
        game, labels = read_instance(str(out))
        assert game.mode == "hardness"
        assert labels and "players" in labels
        assert json.loads(bundle.read_text())["inputs"] == 1

    @pytest.mark.parametrize("text", [
        '{"inputs": 2, "gates": [{"a": {"x": 0.5}, "b": {"x": 1}}], "outputs": [0]}',
        '{"inputs": 2, "gates": [{"a": {"x": 0}, "b": {"x": 1}}], "outputs": [0.7]}',
        '{"inputs": 2, "gates": [{"a": {"x": "a"}, "b": {"x": 1}}], "outputs": [0]}',
        '{"inputs": "x", "gates": [{"a": {"x": 0}, "b": {"x": 1}}], "outputs": [0]}',
        '{"inputs": 2, "gates": [{"a": {"y": 0}, "b": {"x": 1}}], "outputs": [0]}',
        '{"inputs": 2, "gates": [',
        '{"inputs": 2, "gates": [{"a": {"x": true}, "b": {"x": 1}}], "outputs": [0]}',
    ])
    def test_malformed_circuit_exit_2(self, tmp_path, capsys, text):
        circ = tmp_path / "circ.json"
        circ.write_text(text)
        out = tmp_path / "game.json"
        assert run(["flip-gen", str(circ), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["0", "-5", "1/2"])
    def test_rho_below_one_exit_2(self, tmp_path, capsys, rho):
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps(
            flip_instance_to_dict(FlipInstance(1, [(("x", 0), ("x", 0))], [0]))
        ))
        out = tmp_path / "game.json"
        assert run(["flip-gen", str(circ), "--rho", rho, "--out", str(out)]) == 2
        assert "rho must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps(
            flip_instance_to_dict(FlipInstance(2, [(("x", 0), ("x", 1))], [0]))
        ))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["flip-gen", str(circ), "--out", str(a)]) == 0
        assert run(["flip-gen", str(circ), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_csv_schema_and_success(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--n-list", "4,8", "--seeds", "3",
                    "--resources", "6", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == [
            "n", "d", "psi", "seed", "moves", "phases", "ms",
            "rho_star", "bound", "ok", "move_bound",
        ]
        assert len(rows) == 1 + 2 * 3
        header = rows[0]
        for row in rows[1:]:
            record = dict(zip(header, row))
            assert record["ok"] == "true"
            assert int(record["moves"]) <= int(record["move_bound"])
            assert "." not in record["rho_star"]  # exact rational, not float

    def test_parallel_workers_same_records(self, tmp_path):
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        args = ["bench", "--n-list", "4,8", "--seeds", "2", "--resources", "6"]
        assert run(args + ["--out", str(seq)]) == 0
        assert run(args + ["--out", str(par), "--workers", "2"]) == 0

        def strip_ms(path):
            rows = [r.split(",") for r in path.read_text().splitlines()]
            return [r[:6] + r[7:] for r in rows]  # wall time may differ

        assert strip_ms(seq) == strip_ms(par)

    @pytest.mark.parametrize("cpus, expected", [(3, [3]), (None, [])])
    def test_workers_clamped_to_cpu_count(self, tmp_path, monkeypatch, cpus, expected):
        created = []

        class RecordingPool:
            """Stands in for the process pool: records its size, runs in-process."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        out = tmp_path / "bench.csv"
        assert run(["bench", "--n-list", "4", "--seeds", "2", "--resources", "6",
                    "--workers", "64", "--out", str(out)]) == 0
        assert created == expected
        assert len(out.read_text().splitlines()) == 1 + 2

    def test_non_integer_n_list_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--n-list", "a", "--out", str(out)]) == 2
        assert "--n-list" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--seeds", "0"], "--seeds must be at least 1"),
        (["--seeds", "-3"], "--seeds must be at least 1"),
        (["--n-list", ","], "--n-list names no player count"),
        (["--n-list", ""], "--n-list names no player count"),
        (["--workers", "0"], "--workers must be at least 1"),
        (["--workers", "-2"], "--workers must be at least 1"),
    ])
    def test_empty_sweep_or_no_workers_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--n-list", "4", "--seeds", "1", "--resources", "6"]
        assert run([*argv, *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_missing_instance_file(self, tmp_path):
        assert run(["solve", str(tmp_path / "nope.json")]) == 2


class TestExitCodeContract:
    """One input per error source: the exit code and the stderr prefix."""

    @pytest.mark.parametrize("argv, code, prefix", [
        # ValidationError
        (["verify", "random_d1.json", "state.json", "--rho", "1/2"], 2, "error: "),
        # ParameterError
        (["solve", "random_d2.json"], 2, "error: "),
        # GenerationError
        (["gen", "--seed", "1", "--n", "3", "--resources", "1",
          "--strategies", "3", "--size-max", "1", "--out", "OUT"], 2, "error: "),
        # BudgetExceededError
        (["brute", "random_d1.json"], 3, "budget refused: "),
        # ContractViolationError
        (["solve", "random_d1.json", "--move-cap", "0"], 4, "contract violation: "),
        # OSError
        (["solve", "nope.json"], 2, "error: "),
    ])
    def test_exit_code_and_prefix(self, tmp_path, capsys, argv, code, prefix):
        st = tmp_path / "s.json"
        write_state([0] * 16, str(st))
        paths = {
            "random_d1.json": str(FIXTURES / "random_d1.json"),
            "random_d2.json": str(FIXTURES / "random_d2.json"),
            "state.json": str(st),
            "nope.json": str(tmp_path / "nope.json"),
            "OUT": str(tmp_path / "out.json"),
        }
        assert run([paths.get(arg, arg) for arg in argv]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix)
        assert captured.out == ""

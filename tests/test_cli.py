"""Command line surface: files, summary lines, and exit codes."""

import csv
import json
import time

import pytest

from congames import cli
from congames.hardness import flip_instance_to_dict, FlipInstance
from congames.serialize import read_instance, write_instance, write_state
from congames import CongestionGame


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

    def test_bad_budget_env_exit_2(self, instance, monkeypatch, capsys):
        monkeypatch.setenv("CONGAMES_ENUM_BUDGET", "abc")
        assert run(["brute", str(instance)]) == 2
        assert "CONGAMES_ENUM_BUDGET" in capsys.readouterr().err


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

    @pytest.mark.parametrize("strategies", [[["a"]], [[1.5]], [[0], [1.5]], 3])
    def test_bad_strategy_exit_2(self, tmp_path, capsys, strategies):
        path = self.write_instance_doc(tmp_path, strategies)
        assert run(["solve", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("state", [[0, "x"], 3, [0, 1.5], [1.0, 0.5]])
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

    def test_solve_trace_beyond_digit_limit(self, tmp_path, capsys):
        big = "9" * 4300
        path = self.write_doc(
            tmp_path, [["0", big], ["0", big]], [[[0], [1]]] * 8
        )
        trace = tmp_path / "t.json"
        assert run(["solve", str(path), "--trace", str(trace)]) == 2
        assert "more than 4300 digits" in capsys.readouterr().err
        assert not trace.exists()

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
    ])
    def test_malformed_circuit_exit_2(self, tmp_path, capsys, text):
        circ = tmp_path / "circ.json"
        circ.write_text(text)
        out = tmp_path / "game.json"
        assert run(["flip-gen", str(circ), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
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

    def test_missing_instance_file(self, tmp_path):
        assert run(["solve", str(tmp_path / "nope.json")]) == 2

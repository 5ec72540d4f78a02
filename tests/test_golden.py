"""Golden traces: solver and dynamics runs must reproduce recorded bytes.

Each case pairs an instance file under `tests/fixtures/` with the trace JSON
it produced when the fixture was recorded.  The instances are a d=1 random
game, a d=2 game with fractional coefficients (solved with theta 3), and a
three-tier game whose solve runs moves in two phases.  The flip cases pair
a circuit file with the game and bundle JSON that `congames flip-gen` wrote
for it: y = x1 AND x2, and a one-input circuit with two outputs.  The flip
digest cases keep only sha256 digests of the game and bundle JSON, because
their games run to hundreds of kilobytes: seeded circuits with 2-3 inputs
and 2 outputs, whose bundles hold comparison circuits for both outputs.
The verifier cases pair fixed command lines with what they printed or
wrote: `congames audit` JSON for the d=1 and d=2 random games (their state
spaces exceed the enumeration budget, so the potential-ratio check is
skipped and marked so), for a six-player d=2 game whose ratio is recorded but not
asserted, and for the default corpus, whose d=1 ratios are asserted; and
`congames verify --report` JSON for a fixed state of the d=1 game and for
a two-player game whose report has an infinite ratio.
The oracle digest cases keep, for seeded games of the benchmark's oracle
shape, the sha256 of each sorted `enumerate_equilibria` choice list at
rho = 1, (n+1)/n and None, and `brute_min_potential`'s choices and phi.
Rewrite the fixtures with `PYTHONPATH=src python tests/test_golden.py`, and
only for an intended change of output; every trace must pass `check_trace`.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from congames import (
    CongestionGame,
    GenSpec,
    SolverConfig,
    brute_min_potential,
    enumerate_equilibria,
    epsilon_br_dynamics,
    generate,
    solve,
)
from congames.cli import main
from congames.serialize import read_instance, write_instance, write_state
from trace_check import check_trace

FIXTURES = Path(__file__).parent / "fixtures"


def _solve(scheduler, theta=None):
    seed = 7 if scheduler == "random" else None
    config = SolverConfig(
        psi=1, theta_override=theta, scheduler=scheduler, seed=seed
    )
    return lambda game: solve(game, config)


def _eps_br(game):
    start = game.state([0] * game.n_players)
    return epsilon_br_dynamics(
        game, start, Fraction(1, 10), order="random", seed=5
    )


# trace file -> (instance file, run)
CASES = {
    "random_d1.solve_scan.trace.json": ("random_d1.json", _solve("scan")),
    "random_d1.solve_random.trace.json": ("random_d1.json", _solve("random")),
    "random_d2.solve_scan.trace.json": ("random_d2.json", _solve("scan", 3)),
    "random_d2.solve_random.trace.json": ("random_d2.json", _solve("random", 3)),
    "tiered.solve_scan.trace.json": ("tiered.json", _solve("scan")),
    "tiered.solve_random.trace.json": ("tiered.json", _solve("random")),
    "random_d1.eps_br.trace.json": ("random_d1.json", _eps_br),
}


def run_case(name):
    instance, run = CASES[name]
    game, _labels = read_instance(str(FIXTURES / instance))
    trace = run(game)
    errors = check_trace(game, trace, Fraction(11, 10) if run is _eps_br else None)
    assert not errors, f"{name} fails the exact replay: {errors}"
    return game, trace


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_bytes_unchanged(name):
    recorded = (FIXTURES / name).read_bytes()
    assert run_case(name)[1].to_json().encode("utf-8") == recorded


@pytest.mark.parametrize(
    "mutation", ["cost_after", "phase_label", "dropped_move", "base"]
)
def test_replay_reports_mutation(mutation):
    game, trace = run_case("tiered.solve_scan.trace.json")
    moves = trace.moves
    if mutation == "base":
        trace.parameters["base"] += 1
    elif mutation == "cost_after":
        moves[0] = replace(moves[0], cost_after=moves[0].cost_after + 1)
    elif mutation == "phase_label":
        moves[-1] = replace(moves[-1], phase=moves[-1].phase + 2)
    else:
        del moves[max(k for k, m in enumerate(moves) if m.phase == 1)]
        trace.phases[0]["moves"] -= 1
    assert check_trace(game, trace)


FLIP_CASES = ("flip_and_xy", "flip_two_outputs")


def flip_gen(name, out_dir):
    """Run flip-gen on a fixture circuit; return the game and bundle paths."""
    game, bundle = out_dir / f"{name}.game.json", out_dir / f"{name}.bundle.json"
    circuit = str(FIXTURES / f"{name}.circuit.json")
    code = main(["flip-gen", circuit, "--out", str(game), "--bundle-out", str(bundle)])
    assert code == 0
    return game, bundle


@pytest.mark.parametrize("name", FLIP_CASES)
def test_flip_gen_bytes_unchanged(name, tmp_path):
    for path in flip_gen(name, tmp_path):
        assert path.read_bytes() == (FIXTURES / path.name).read_bytes()


DIGESTS = FIXTURES / "flip_digests.json"
DIGEST_SEEDS = range(6)


def digest_circuit(seed):
    """Circuit document: 2-3 inputs, 3-5 NAND gates, 2 distinct outputs."""
    rng = random.Random(seed)
    n_inputs, n_gates = rng.randint(2, 3), rng.randint(3, 5)
    gates = []
    for k in range(n_gates):
        refs = [{"x": i} for i in range(n_inputs)] + [{"g": j} for j in range(k)]
        gates.append({"a": rng.choice(refs), "b": rng.choice(refs)})
    return {"inputs": n_inputs, "gates": gates, "outputs": rng.sample(range(n_gates), 2)}


def flip_digests(circuit, out_dir):
    """sha256 of the game and bundle JSON that flip-gen writes for `circuit`."""
    path = out_dir / "circuit.json"
    path.write_text(json.dumps(circuit), encoding="utf-8")
    game, bundle = out_dir / "game.json", out_dir / "bundle.json"
    code = main(["flip-gen", str(path), "--out", str(game), "--bundle-out", str(bundle)])
    assert code == 0
    return {
        "game_sha256": hashlib.sha256(game.read_bytes()).hexdigest(),
        "bundle_sha256": hashlib.sha256(bundle.read_bytes()).hexdigest(),
    }


def record_digests(out_dir):
    cases = []
    for seed in DIGEST_SEEDS:
        circuit = digest_circuit(seed)
        cases.append({"seed": seed, "circuit": circuit, **flip_digests(circuit, out_dir)})
    lines = ",\n".join(json.dumps(case) for case in cases)
    DIGESTS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


@pytest.mark.parametrize("seed", DIGEST_SEEDS)
def test_flip_gen_digests_unchanged(seed, tmp_path):
    case = json.loads(DIGESTS.read_text(encoding="utf-8"))[seed]
    assert case["seed"] == seed and case["circuit"] == digest_circuit(seed)
    digests = flip_digests(case["circuit"], tmp_path)
    assert digests == {k: case[k] for k in ("game_sha256", "bundle_sha256")}


@pytest.mark.parametrize("scheduler", ["scan", "random"])
def test_tiered_case_has_several_phases(scheduler):
    _game, trace = run_case(f"tiered.solve_{scheduler}.trace.json")
    assert trace.parameters["m"] >= 3
    assert sum(1 for p in trace.phases if p["moves"] > 0) >= 2


# audit output file -> audit arguments, instance files under fixtures/
AUDIT_CASES = {
    "random_d1.audit.json": ["random_d1.json", "--trials", "40", "--seed", "1"],
    "random_d2.audit.json": ["random_d2.json", "--trials", "40", "--seed", "1"],
    "small_d2.audit.json": ["small_d2.json", "--trials", "40", "--seed", "1"],
    "default_corpus.audit.json": ["--trials", "100", "--seed", "3"],
}


def audit_output(name):
    argv = [
        str(FIXTURES / a) if a.endswith(".json") else a for a in AUDIT_CASES[name]
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["audit", *argv])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(AUDIT_CASES))
def test_audit_bytes_unchanged(name):
    recorded = (FIXTURES / name).read_bytes()
    assert audit_output(name).encode("utf-8") == recorded


# Player 0 pays 0 and has a free deviation (0/0 counts as 1); player 1 pays
# 2 and could move to the free resource (2/0 is infinite).
ZERO_COST_GAME = CongestionGame([[0], [2]], [[[0], [0]], [[1], [0]]])

# report file -> (instance file under fixtures/ or a game, state)
VERIFY_CASES = {
    "random_d1.verify.json": ("random_d1.json", [u % 4 for u in range(16)]),
    "zero_cost.verify.json": (ZERO_COST_GAME, [0, 0]),
}


def verify_report(name, out_dir):
    """Run `congames verify --report` on a case; return the report path."""
    instance, choices = VERIFY_CASES[name]
    if isinstance(instance, CongestionGame):
        path = out_dir / "instance.json"
        write_instance(instance, str(path))
    else:
        path = FIXTURES / instance
    state, report = out_dir / "state.json", out_dir / name
    write_state(choices, str(state))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", str(path), str(state), "--report", str(report)])
    assert code == 0
    return report


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_report_bytes_unchanged(name, tmp_path):
    recorded = (FIXTURES / name).read_bytes()
    assert verify_report(name, tmp_path).read_bytes() == recorded


ORACLE_DIGESTS = FIXTURES / "oracle_digests.json"
ORACLE_SEEDS = range(12)


def oracle_game(seed):
    """9-12 players, 6 resources, two strategies of two resources, d 1 or 2."""
    n, d = 9 + seed % 4, 1 + seed // 4 % 2
    spec = GenSpec(
        seed=seed,
        n_players=n,
        n_resources=6,
        strategies_per_player=2,
        strategy_size=(2, 2),
        degree=d,
        coeff_range=(0, 6),
    )
    return generate(spec)


def oracle_digests(game):
    """Digests of the enumerations at rho = 1, (n+1)/n and None; the brute force."""
    n = game.n_players
    enum = {}
    for name, rho in (("1", Fraction(1)), ("q", Fraction(n + 1, n)), ("none", None)):
        choices = sorted(s.choices for s in enumerate_equilibria(game, rho=rho))
        enum[name] = hashlib.sha256(json.dumps(choices).encode()).hexdigest()
    state, phi = brute_min_potential(game)
    return {"enum_sha256": enum, "brute": {"choices": list(state.choices), "phi": str(phi)}}


def record_oracle_digests():
    cases = [{"seed": seed, **oracle_digests(oracle_game(seed))} for seed in ORACLE_SEEDS]
    lines = ",\n".join(json.dumps(case) for case in cases)
    ORACLE_DIGESTS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_oracle_digests_unchanged(seed):
    case = json.loads(ORACLE_DIGESTS.read_text(encoding="utf-8"))[seed]
    assert case["seed"] == seed
    assert oracle_digests(oracle_game(seed)) == {k: case[k] for k in ("enum_sha256", "brute")}


if __name__ == "__main__":
    for name, (_game, trace) in [(name, run_case(name)) for name in CASES]:
        (FIXTURES / name).write_text(trace.to_json(), encoding="utf-8")
    for name in FLIP_CASES:
        flip_gen(name, FIXTURES)
    for name in AUDIT_CASES:
        (FIXTURES / name).write_text(audit_output(name), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        record_digests(Path(tmp))
        for name in VERIFY_CASES:
            report = verify_report(name, Path(tmp)).read_bytes()
            (FIXTURES / name).write_bytes(report)
    record_oracle_digests()

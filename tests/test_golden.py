"""Golden traces: solver and dynamics runs must reproduce recorded bytes.

Each case pairs an instance file under `tests/fixtures/` with the trace JSON
it produced when the fixture was recorded.  The instances are a d=1 random
game, a d=2 game with fractional coefficients (solved with theta 3), and a
three-tier game whose solve runs moves in two phases.  The flip cases pair
a circuit file with the game and bundle JSON that `congames flip-gen` wrote
for it: y = x1 AND x2, and a one-input circuit with two outputs.  Rewrite
the fixtures with `PYTHONPATH=src python tests/test_golden.py`, and only for
an intended change of output.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from congames import SolverConfig, epsilon_br_dynamics, solve
from congames.cli import main
from congames.serialize import read_instance

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
    return run(game)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_bytes_unchanged(name):
    recorded = (FIXTURES / name).read_bytes()
    assert run_case(name).to_json().encode("utf-8") == recorded


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


@pytest.mark.parametrize("scheduler", ["scan", "random"])
def test_tiered_case_has_several_phases(scheduler):
    trace = run_case(f"tiered.solve_{scheduler}.trace.json")
    assert trace.parameters["m"] >= 3
    assert sum(1 for p in trace.phases if p["moves"] > 0) >= 2


if __name__ == "__main__":
    for name in CASES:
        (FIXTURES / name).write_text(run_case(name).to_json(), encoding="utf-8")
    for name in FLIP_CASES:
        flip_gen(name, FIXTURES)

"""Best-response oracles, threshold moves, and the baseline dynamics."""

import io
import random
import re
from fractions import Fraction as F

import pytest

from congames import (
    CongestionGame,
    GenSpec,
    LatencyFunction,
    ValidationError,
    best_response,
    epsilon_br_dynamics,
    find_threshold_move,
    generate,
    optimistic_cost,
)
from congames.verify import approximation_factor, enumerate_equilibria
from trace_check import check_trace


def random_game(seed, n=4):
    return generate(
        GenSpec(
            seed=seed,
            n_players=n,
            n_resources=6,
            strategies_per_player=3,
            strategy_size=(1, 2),
            degree=1,
            coeff_range=(0, 4),
        )
    )


class TestOptimisticCost:
    def test_two_way_min(self):
        g = CongestionGame([[0, 1], [0, 3]], [[[0], [1]]])
        assert optimistic_cost(g, 0) == (1, 0)

    def test_single_strategy(self):
        g = CongestionGame([[2], [0, 3]], [[[0, 1]]])
        assert optimistic_cost(g, 0) == (5, 0)

    def test_zero_latency_strategy(self):
        g = CongestionGame([[0, 0], [1]], [[[1], [0]]])
        assert optimistic_cost(g, 0) == (0, 1)

    def test_tie_breaks_low_index(self):
        g = CongestionGame([[1], [1]], [[[0], [1]]])
        assert optimistic_cost(g, 0) == (1, 0)

    def test_requires_standard_mode(self):
        g = CongestionGame([[-1, 1]], [[[0]]], mode="hardness")
        with pytest.raises(ValidationError):
            optimistic_cost(g, 0)

    def test_integral_game_gives_int(self):
        g = CongestionGame([[0, 1], [0, 3]], [[[0], [1]]])
        cost, _ = optimistic_cost(g, 0)
        assert type(cost) is int and cost == 1

    def test_rational_game_gives_fraction(self):
        g = CongestionGame([["1/2", 1], [0, 3]], [[[0], [1]]])
        cost, idx = optimistic_cost(g, 0)
        assert type(cost) is F and (cost, idx) == (F(3, 2), 0)


class TestBestResponse:
    def test_already_minimal(self):
        g = CongestionGame([[0, 1], [5]], [[[0], [1]]])
        s = g.state([0])
        assert best_response(g, s, 0) == (0, 1)

    def test_enumeration(self):
        g = CongestionGame([[2], [3]], [[[0], [1]]])
        assert best_response(g, g.state([1]), 0) == (0, 2)

    def test_exact_tie_low_index(self):
        g = CongestionGame([[2], [5], [2]], [[[0], [1], [2]]])
        s = g.state([1])
        assert best_response(g, s, 0) == (0, 2)

    def test_scaling_invariance(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_game(rng.randrange(10_000))
            factor = F(rng.randrange(1, 20), rng.randrange(1, 20))
            scaled = CongestionGame(
                [LatencyFunction([c * factor for c in f.coeffs]) for f in g.resources],
                g.players,
            )
            s = g.state([rng.randrange(len(p)) for p in g.players])
            s2 = scaled.state(s.choices)
            u = rng.randrange(g.n_players)
            idx, cost = best_response(g, s, u)
            idx2, cost2 = best_response(scaled, s2, u)
            assert idx == idx2
            assert cost2 == cost * factor


class TestFindThresholdMove:
    def test_single_strategy_none(self):
        g = CongestionGame([[7]], [[[0]]])
        assert find_threshold_move(g, g.state([0]), 0, F(1)) is None

    def test_factor_two_found(self):
        # current cost 4, best response 1: 1 < 4/2 strictly
        g = CongestionGame([[4], [1]], [[[0], [1]]])
        assert find_threshold_move(g, g.state([0]), 0, F(2)) == (1, 1)

    def test_strictness_boundary(self):
        # current cost 4, best response 2: 2 < 4/2 fails
        g = CongestionGame([[4], [2]], [[[0], [1]]])
        assert find_threshold_move(g, g.state([0]), 0, F(2)) is None
        assert find_threshold_move(g, g.state([0]), 0, F(1)) == (1, 2)

    def test_zero_cost_never_moves(self):
        g = CongestionGame([[0, 0], [0, 0]], [[[0], [1]]])
        assert find_threshold_move(g, g.state([0]), 0, F(1)) is None

    def test_q_below_one_rejected(self):
        g = CongestionGame([[1]], [[[0]]])
        with pytest.raises(ValidationError):
            find_threshold_move(g, g.state([0]), 0, F(1, 2))

    @pytest.mark.parametrize("q, message", [
        (True, "not a rational: True"),
        ("1/2", "q must be >= 1, got 1/2"),
        (0.5, "not a rational: 0.5"),
        (F(1, 2), "q must be >= 1, got 1/2"),
    ])
    def test_q_refused_unless_a_factor(self, q, message):
        g = CongestionGame([[4], [1]], [[[0], [1]]])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            find_threshold_move(g, g.state([0]), 0, q)

    @pytest.mark.parametrize("q, found", [("3/2", (1, 1)), (2, (1, 1)), (4, None)])
    def test_q_read_like_its_fraction(self, q, found):
        g = CongestionGame([[4], [1]], [[[0], [1]]])
        assert find_threshold_move(g, g.state([0]), 0, q) == found
        assert find_threshold_move(g, g.state([0]), 0, F(q)) == found

    def test_q_one_iff_not_best_response(self):
        rng = random.Random(23)
        for _ in range(300):
            g = random_game(rng.randrange(10_000))
            s = g.state([rng.randrange(len(p)) for p in g.players])
            u = rng.randrange(g.n_players)
            found = find_threshold_move(g, s, u, F(1))
            _, br_cost = best_response(g, s, u)
            improvable = br_cost < g.player_cost(s, u)
            assert (found is not None) == improvable


class TestEpsilonDynamics:
    def test_equilibrium_start_empty_trace(self):
        g = CongestionGame([[1], [1]], [[[0]], [[1]]])
        trace = epsilon_br_dynamics(g, g.state([0, 0]), F(1, 2))
        assert trace.n_moves == 0
        assert trace.final_state == (0, 0)

    def test_converges_to_unique_equilibrium(self):
        # antisymmetric toy: the only exact equilibrium separates the players
        g = CongestionGame([[0, 1], [0, 1]], [[[0], [1]], [[0]]])
        eqs = enumerate_equilibria(g, rho=1)
        assert [s.choices for s in eqs] == [(1, 0)]
        trace = epsilon_br_dynamics(g, g.state([0, 0]), F(1, 10))
        assert trace.final_state == (1, 0)

    def test_reaches_q_approximate_state(self):
        rng = random.Random(31)
        eps = F(1, 2)
        for _ in range(50):
            g = random_game(rng.randrange(10_000))
            trace = epsilon_br_dynamics(
                g, g.state([rng.randrange(len(p)) for p in g.players]), eps
            )
            assert not trace.truncated
            assert check_trace(g, trace, 1 + eps) == []

    def test_potential_strictly_decreasing_and_identity(self):
        rng = random.Random(37)
        for _ in range(50):
            g = random_game(rng.randrange(10_000))
            s0 = g.state([rng.randrange(len(p)) for p in g.players])
            trace = epsilon_br_dynamics(g, s0, F(1, 4))
            assert trace.initial_state == s0.choices
            assert check_trace(g, trace, F(5, 4)) == []

    def test_cap_sets_truncated_flag(self):
        g = CongestionGame([[0, 1], [0, 1]], [[[0], [1]], [[0], [1]]])
        trace = epsilon_br_dynamics(g, g.state([0, 0]), F(1, 10), move_cap=1)
        assert trace.truncated
        assert trace.n_moves == 1

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cap):
        g = CongestionGame([[0, 1], [0, 1]], [[[0], [1]], [[0], [1]]])
        with pytest.raises(ValidationError, match="move_cap"):
            epsilon_br_dynamics(g, g.state([0, 0]), F(1, 10), move_cap=cap)

    @pytest.mark.parametrize("cap", [True, 2.5, "5", None, float("inf")])
    def test_cap_must_be_integer(self, cap):
        g = CongestionGame([[0, 1], [0, 1]], [[[0], [1]], [[0], [1]]])
        with pytest.raises(ValidationError, match="move_cap must be an integer"):
            epsilon_br_dynamics(g, g.state([0, 0]), F(1, 10), move_cap=cap)

    def test_random_order_deterministic_in_seed(self):
        g = random_game(77, n=6)
        s0 = g.state([0] * 6)
        t1 = epsilon_br_dynamics(g, s0, F(1, 3), order="random", seed=5)
        t2 = epsilon_br_dynamics(g, s0, F(1, 3), order="random", seed=5)
        assert t1.to_json() == t2.to_json()

    def test_epsilon_must_be_positive(self):
        g = CongestionGame([[1]], [[[0]]])
        with pytest.raises(ValidationError):
            epsilon_br_dynamics(g, g.state([0]), F(0))

    @pytest.mark.parametrize("mode, order, message", [
        pytest.param("hardness", "roundrobin", "standard-mode game", id="hardness-game"),
        pytest.param("standard", "fifo", "unknown order", id="unknown-order"),
    ])
    def test_bad_call_rejected(self, mode, order, message):
        g = CongestionGame([[1, 0]], [[[0]]], mode=mode)
        with pytest.raises(ValidationError, match=message):
            epsilon_br_dynamics(g, g.state([0]), F(1, 10), order=order)


class TestTraceExport:
    def test_csv_columns(self):
        g = CongestionGame([[0, 1], [0, 1]], [[[0], [1]], [[0]]])
        trace = epsilon_br_dynamics(g, g.state([0, 0]), F(1, 10))
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "step,player,cost_before,cost_after,potential"
        assert len(lines) == trace.n_moves + 1

    def test_json_summary(self):
        g = CongestionGame([[0, 1], [0, 1]], [[[0], [1]], [[0]]])
        trace = epsilon_br_dynamics(g, g.state([0, 0]), F(1, 10))
        doc = trace.to_dict()
        assert doc["summary"]["moves"] == trace.n_moves
        assert doc["summary"]["final_state"] == list(trace.final_state)
        assert doc["moves"][0]["step"] == 0
        # exact rationals serialized as strings, never floats
        assert isinstance(doc["summary"]["final_potential"], str)

    def test_final_state_verifies(self):
        g = random_game(12)
        trace = epsilon_br_dynamics(g, g.state([0] * 4), F(1, 2))
        report = approximation_factor(g, g.state(trace.final_state))
        assert report.is_approx(F(3, 2))

"""Model-level tests: latencies, loads, costs, potential, subgame views."""

import random
from fractions import Fraction as F

import pytest

from congames import (
    CongestionGame,
    GenSpec,
    LatencyFunction,
    State,
    SubgameView,
    ValidationError,
    aggregate_metrics,
    deviation_cost,
    generate,
    load_profile,
    player_cost,
    rosenthal_potential,
)

M2 = 2**40  # stands in for a squared big constant in hardness-style pairs


def shared_resource_game():
    # two players, both forced onto one f(x) = x resource
    return CongestionGame([[0, 1]], [[[0]], [[0]]])


def two_resource_game():
    # f1(x) = x, f2(x) = 2x; player0: {e1}, player1: {e1, e2}
    return CongestionGame([[0, 1], [0, 2]], [[[0]], [[0, 1]]])


def random_game(seed, n=4, degree=1):
    return generate(
        GenSpec(
            seed=seed,
            n_players=n,
            n_resources=6,
            strategies_per_player=3,
            strategy_size=(1, 3),
            degree=degree,
            coeff_range=(0, 4),
        )
    )


class TestEvalLatency:
    def test_identity_polynomial(self):
        assert LatencyFunction([0, 1]).eval(2) == 2

    def test_quadratic_by_hand(self):
        # 1 + 2x + 3x^2 at x=2: 1 + 4 + 12
        assert LatencyFunction([1, 2, 3]).eval(2) == 17

    def test_hardness_pair_zero_at_one(self):
        f = LatencyFunction([-M2, M2])  # value pair 0 / M^2
        assert f.eval(1) == 0
        assert f.eval(2) == M2

    @pytest.mark.parametrize("load", [0, -1, -7])
    def test_invalid_load(self, load):
        with pytest.raises(ValidationError):
            LatencyFunction([1]).eval(load)

    def test_fractional_coefficients_exact(self):
        f = LatencyFunction([F(1, 3), F(2, 7)])
        assert f.eval(5) == F(1, 3) + F(10, 7)

    def test_degree_ignores_trailing_zeros(self):
        assert LatencyFunction([1, 2, 0, 0]).degree == 1
        assert LatencyFunction([0]).degree == 0
        assert LatencyFunction([0, 0, 5]).degree == 2


class TestLoadProfile:
    def test_both_on_shared(self):
        g = shared_resource_game()
        assert load_profile(g, g.state([0, 0])) == (2,)

    def test_mixed(self):
        g = two_resource_game()
        assert load_profile(g, g.state([0, 0])) == (2, 1)

    def test_disjoint_loads_at_most_one(self):
        g = CongestionGame([[0, 1]] * 3, [[[0]], [[1]], [[2]]])
        assert all(k <= 1 for k in load_profile(g, g.state([0, 0, 0])))

    def test_load_sum_matches_strategy_sizes(self):
        for seed in range(20):
            g = random_game(seed)
            rng = random.Random(seed)
            s = g.state([rng.randrange(len(p)) for p in g.players])
            total = sum(load_profile(g, s))
            assert total == sum(len(g.players[u][c]) for u, c in enumerate(s.choices))

    def test_cached_loads_match_recompute(self):
        g = random_game(3)
        s = g.state([0, 1, 2, 0])
        assert s.loads == load_profile(g, s)
        s2 = s.apply(g, 2, 0)
        assert s2.loads == load_profile(g, s2)


class TestPlayerCost:
    def test_shared_linear(self):
        g = shared_resource_game()
        assert player_cost(g, g.state([0, 0]), 0) == 2

    def test_two_resources(self):
        g = two_resource_game()
        assert player_cost(g, g.state([0, 0]), 1) == 4

    def test_hardness_pair_alone_is_zero(self):
        g = CongestionGame([[-M2, M2]], [[[0]], [[0]], [[0]]], mode="hardness")
        alone = CongestionGame([[-M2, M2]], [[[0]]], mode="hardness")
        assert player_cost(alone, alone.state([0]), 0) == 0
        assert player_cost(g, g.state([0, 0, 0]), 0) == 2 * M2


class TestDeviationCost:
    def test_noop_deviation(self):
        g = two_resource_game()
        s = g.state([0, 0])
        assert deviation_cost(g, s, 1, 0) == player_cost(g, s, 1)

    def test_move_to_empty_resource(self):
        # off a shared f(x)=x resource onto an empty f(x)=3x one
        g = CongestionGame([[0, 1], [0, 3]], [[[0], [1]], [[0]]])
        s = g.state([0, 0])
        assert deviation_cost(g, s, 0, 1) == 3

    def test_bad_index(self):
        g = shared_resource_game()
        with pytest.raises(ValidationError):
            deviation_cost(g, g.state([0, 0]), 0, 5)

    def test_incremental_matches_full_recompute(self):
        rng = random.Random(42)
        checked = 0
        while checked < 1000:
            g = random_game(rng.randrange(10_000), n=rng.choice((3, 4, 5)))
            s = g.state([rng.randrange(len(p)) for p in g.players])
            u = rng.randrange(g.n_players)
            alt = rng.randrange(len(g.players[u]))
            full = player_cost(g, s.apply(g, u, alt), u)
            assert deviation_cost(g, s, u, alt) == full
            checked += 1


class TestRosenthalPotential:
    def test_two_on_one_resource(self):
        g = shared_resource_game()
        assert rosenthal_potential(g, g.state([0, 0])) == 3

    def test_two_resources(self):
        g = two_resource_game()
        assert rosenthal_potential(g, g.state([0, 0])) == 5

    def test_subgame_modified_latency(self):
        g = shared_resource_game()
        s = g.state([0, 0])
        view = SubgameView.freeze(g, s, [0])
        # one frozen player on the resource: f^F(x) = x + 1, one active user
        assert rosenthal_potential(view, s) == 2

    def test_move_identity_exact(self):
        rng = random.Random(7)
        for _ in range(300):
            g = random_game(rng.randrange(10_000))
            s = g.state([rng.randrange(len(p)) for p in g.players])
            u = rng.randrange(g.n_players)
            alt = rng.randrange(len(g.players[u]))
            moved = s.apply(g, u, alt)
            dphi = rosenthal_potential(g, moved) - rosenthal_potential(g, s)
            dcost = player_cost(g, moved, u) - player_cost(g, s, u)
            assert dphi == dcost

    def test_move_identity_in_subgame(self):
        rng = random.Random(8)
        for _ in range(100):
            g = random_game(rng.randrange(10_000))
            s = g.state([rng.randrange(len(p)) for p in g.players])
            active = [u for u in range(g.n_players) if rng.random() < 0.6]
            if not active:
                continue
            view = SubgameView.freeze(g, s, active)
            u = rng.choice(active)
            alt = rng.randrange(len(g.players[u]))
            moved = s.apply(g, u, alt)
            dphi = view.potential(moved) - view.potential(s)
            dcost = view.player_cost(moved, u) - view.player_cost(s, u)
            assert dphi == dcost


class TestAggregateMetrics:
    def test_hand_example(self):
        g = shared_resource_game()
        assert aggregate_metrics(g, g.state([0, 0])) == (2, 3, 4)

    def test_disjoint_all_equal(self):
        g = CongestionGame([[1, 1], [0, 2], [3]], [[[0]], [[1]], [[2]]])
        lat, pot, tot = aggregate_metrics(g, g.state([0, 0, 0]))
        assert lat == pot == tot

    def test_sandwich_on_random_standard_games(self):
        rng = random.Random(11)
        for _ in range(1000):
            g = random_game(rng.randrange(10_000), degree=rng.choice((1, 2)))
            s = g.state([rng.randrange(len(p)) for p in g.players])
            lat, pot, tot = aggregate_metrics(g, s)
            assert lat <= pot <= tot

    def test_unused_constant_resource_not_counted(self):
        g = CongestionGame([[0, 1], [7]], [[[0]]])
        lat, pot, tot = aggregate_metrics(g, g.state([0]))
        assert (lat, pot, tot) == (1, 1, 1)


class TestSubgameView:
    def test_cost_and_best_response_set_match_base_game(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_game(rng.randrange(10_000))
            s = g.state([rng.randrange(len(p)) for p in g.players])
            active = [u for u in range(g.n_players) if rng.random() < 0.5]
            if not active:
                continue
            view = SubgameView.freeze(g, s, active)
            u = rng.choice(active)
            assert view.player_cost(s, u) == player_cost(g, s, u)
            base = [deviation_cost(g, s, u, a) for a in range(len(g.players[u]))]
            sub = [view.deviation_cost(s, u, a) for a in range(len(g.players[u]))]
            assert base == sub

    def test_subadditivity_and_monotonicity(self):
        rng = random.Random(17)
        for _ in range(500):
            g = random_game(rng.randrange(10_000))
            s = g.state([rng.randrange(len(p)) for p in g.players])
            subset = frozenset(u for u in range(g.n_players) if rng.random() < 0.5)
            rest = frozenset(range(g.n_players)) - subset
            phi = rosenthal_potential(g, s)
            phi_f = SubgameView.freeze(g, s, subset).potential(s)
            phi_rest = SubgameView.freeze(g, s, rest).potential(s)
            assert phi <= phi_f + phi_rest
            assert phi >= phi_f

    def test_full_and_empty_subsets(self):
        g = two_resource_game()
        s = g.state([0, 0])
        assert SubgameView.freeze(g, s, [0, 1]).potential(s) == rosenthal_potential(g, s)
        assert SubgameView.freeze(g, s, []).potential(s) == 0

    def test_frozen_player_cost_rejected(self):
        g = two_resource_game()
        s = g.state([0, 0])
        view = SubgameView.freeze(g, s, [0])
        with pytest.raises(ValidationError):
            view.player_cost(s, 1)


class TestGrowthBounds:
    def test_step_and_solo_bounds(self):
        rng = random.Random(19)
        n = 6
        for _ in range(300):
            d = rng.choice((0, 1, 2, 3))
            f = LatencyFunction([rng.randrange(5) for _ in range(d + 1)])
            dd = f.degree
            for x in range(1, n):
                assert f.eval(x + 1) <= 2**dd * f.eval(x)
                assert f.eval(x) <= n**dd * f.eval(1)


class TestValidation:
    def test_empty_strategy(self):
        with pytest.raises(ValidationError):
            CongestionGame([[1]], [[[]]])

    def test_bad_resource_index(self):
        with pytest.raises(ValidationError):
            CongestionGame([[1]], [[[3]]])

    def test_no_strategies(self):
        with pytest.raises(ValidationError):
            CongestionGame([[1]], [[]])

    def test_negative_coefficient_standard(self):
        with pytest.raises(ValidationError):
            CongestionGame([[-1, 2]], [[[0]]])

    def test_negative_offset_allowed_in_hardness(self):
        g = CongestionGame([[-1, 1]], [[[0]]], mode="hardness")
        assert g.resources[0].eval(1) == 0

    def test_hardness_rejects_negative_values(self):
        with pytest.raises(ValidationError):
            CongestionGame([[-3, 1]], [[[0]], [[0]]], mode="hardness")

    def test_hardness_rejects_negative_value_at_n_only(self):
        # f(x) = 5 - x is non-negative at load 1 and negative only at load 6
        with pytest.raises(ValidationError, match="at load 6"):
            CongestionGame([[5, -1]], [[[0]]] * 6, mode="hardness")
        CongestionGame([[5, -1]], [[[0]]] * 5, mode="hardness")

    def test_non_integral_resource_index(self):
        with pytest.raises(ValidationError):
            CongestionGame([[1], [1]], [[[1.5]]])
        with pytest.raises(ValidationError):
            CongestionGame([[1]], [[["a"]]])

    def test_hardness_rejects_degree_two(self):
        with pytest.raises(ValidationError):
            CongestionGame([[0, 0, 1]], [[[0]]], mode="hardness")

    def test_hardness_rejects_fractions(self):
        with pytest.raises(ValidationError):
            CongestionGame([[F(1, 2), 1]], [[[0]]], mode="hardness")

    def test_zero_latency_allowed(self):
        g = CongestionGame([[0, 0]], [[[0]], [[0]]])
        assert player_cost(g, g.state([0, 0]), 0) == 0

    def test_state_length_mismatch(self):
        g = shared_resource_game()
        with pytest.raises(ValidationError):
            State.of(g, [0])

    def test_duplicate_resources_in_strategy_collapse(self):
        g = CongestionGame([[0, 1]], [[[0, 0]]])
        assert g.players[0][0] == (0,)

"""Model-level tests: latencies, loads, costs, potential, subgame views, input rules,
and the package's public names."""

import random
import re
from fractions import Fraction as F

import pytest

import congames
from congames import (
    CongestionGame,
    FlipInstance,
    GadgetParams,
    GenSpec,
    LatencyFunction,
    SolverConfig,
    State,
    SubgameView,
    ValidationError,
    aggregate_metrics,
    approximation_factor,
    audit_identities,
    brute_min_potential,
    derive_subcircuits,
    enumerate_equilibria,
    epsilon_br_dynamics,
    generate,
    load_profile,
    positivize,
    theta,
)
from congames.core import to_factor, to_integer

M2 = 2**40  # stands in for a squared big constant in hardness-style pairs
HUGE = 10**5000  # more digits than Python's 4300-digit limit on integer text


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
        assert g.player_cost(g.state([0, 0]), 0) == 2

    def test_two_resources(self):
        g = two_resource_game()
        assert g.player_cost(g.state([0, 0]), 1) == 4

    def test_hardness_pair_alone_is_zero(self):
        g = CongestionGame([[-M2, M2]], [[[0]], [[0]], [[0]]], mode="hardness")
        alone = CongestionGame([[-M2, M2]], [[[0]]], mode="hardness")
        assert alone.player_cost(alone.state([0]), 0) == 0
        assert g.player_cost(g.state([0, 0, 0]), 0) == 2 * M2


class TestDeviationCost:
    def test_noop_deviation(self):
        g = two_resource_game()
        s = g.state([0, 0])
        assert g.deviation_cost(s, 1, 0) == g.player_cost(s, 1)

    def test_move_to_empty_resource(self):
        # off a shared f(x)=x resource onto an empty f(x)=3x one
        g = CongestionGame([[0, 1], [0, 3]], [[[0], [1]], [[0]]])
        s = g.state([0, 0])
        assert g.deviation_cost(s, 0, 1) == 3

    def test_bad_index(self):
        g = shared_resource_game()
        with pytest.raises(ValidationError):
            g.deviation_cost(g.state([0, 0]), 0, 5)

    def test_incremental_matches_full_recompute(self):
        rng = random.Random(42)
        checked = 0
        while checked < 1000:
            g = random_game(rng.randrange(10_000), n=rng.choice((3, 4, 5)))
            s = g.state([rng.randrange(len(p)) for p in g.players])
            u = rng.randrange(g.n_players)
            alt = rng.randrange(len(g.players[u]))
            full = g.player_cost(s.apply(g, u, alt), u)
            assert g.deviation_cost(s, u, alt) == full
            checked += 1


class TestRosenthalPotential:
    def test_two_on_one_resource(self):
        g = shared_resource_game()
        assert g.potential(g.state([0, 0])) == 3

    def test_two_resources(self):
        g = two_resource_game()
        assert g.potential(g.state([0, 0])) == 5

    def test_subgame_modified_latency(self):
        g = shared_resource_game()
        s = g.state([0, 0])
        view = SubgameView.freeze(g, s, [0])
        # one frozen player on the resource: f^F(x) = x + 1, one active user
        assert view.potential(s) == 2

    def test_move_identity_exact(self):
        rng = random.Random(7)
        for _ in range(300):
            g = random_game(rng.randrange(10_000))
            s = g.state([rng.randrange(len(p)) for p in g.players])
            u = rng.randrange(g.n_players)
            alt = rng.randrange(len(g.players[u]))
            moved = s.apply(g, u, alt)
            dphi = g.potential(moved) - g.potential(s)
            dcost = g.player_cost(moved, u) - g.player_cost(s, u)
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
            assert view.player_cost(s, u) == g.player_cost(s, u)
            base = [g.deviation_cost(s, u, a) for a in range(len(g.players[u]))]
            sub = [view.deviation_cost(s, u, a) for a in range(len(g.players[u]))]
            assert base == sub

    def test_subadditivity_and_monotonicity(self):
        rng = random.Random(17)
        for _ in range(500):
            g = random_game(rng.randrange(10_000))
            s = g.state([rng.randrange(len(p)) for p in g.players])
            subset = frozenset(u for u in range(g.n_players) if rng.random() < 0.5)
            rest = frozenset(range(g.n_players)) - subset
            phi = g.potential(s)
            phi_f = SubgameView.freeze(g, s, subset).potential(s)
            phi_rest = SubgameView.freeze(g, s, rest).potential(s)
            assert phi <= phi_f + phi_rest
            assert phi >= phi_f

    def test_full_and_empty_subsets(self):
        g = two_resource_game()
        s = g.state([0, 0])
        assert SubgameView.freeze(g, s, [0, 1]).potential(s) == g.potential(s)
        assert SubgameView.freeze(g, s, []).potential(s) == 0

    def test_frozen_player_cost_rejected(self):
        g = two_resource_game()
        s = g.state([0, 0])
        view = SubgameView.freeze(g, s, [0])
        with pytest.raises(ValidationError):
            view.player_cost(s, 1)

    @pytest.mark.parametrize("player", [2, -1])
    def test_unknown_active_player_rejected(self, player):
        g = two_resource_game()
        with pytest.raises(ValidationError, match="unknown player"):
            SubgameView.freeze(g, g.state([0, 0]), [0, player])


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

    @pytest.mark.parametrize(
        "mode, coeffs, message",
        [
            ("standard", [-1, F(1, 2)],
             "standard mode requires non-negative coefficients; resource 1 has -1, 1/2"),
            ("hardness", [F(-1), "1/2"],
             "hardness mode requires integer latency values; resource 1 has -1, 1/2"),
            ("hardness", [0, 0, 1],
             "hardness mode requires affine latencies; resource 1 has degree 2"),
            ("hardness", [-3, 1], "resource 1 has negative latency -2 at load 1"),
        ],
        ids=["standard-sign", "hardness-integer", "hardness-degree", "hardness-value"],
    )
    def test_coefficient_errors_name_the_first_resource(self, mode, coeffs, message):
        # resources 1 and 3 share the failing function and are checked once
        ok, bad = LatencyFunction([1, 1]), LatencyFunction(coeffs)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            CongestionGame([ok, bad, ok, bad], [[[0, 1, 2, 3]]], mode=mode)

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
        assert g.player_cost(g.state([0, 0]), 0) == 0

    def test_state_length_mismatch(self):
        g = shared_resource_game()
        with pytest.raises(ValidationError):
            State.of(g, [0])

    def test_duplicate_resources_in_strategy_collapse(self):
        g = CongestionGame([[0, 1]], [[[0, 0]]])
        assert g.players[0][0] == (0,)


class TestInputRules:
    """Each input rule of `core` refuses a bad value at every entry point."""

    @staticmethod
    def bundle():
        return derive_subcircuits(FlipInstance(1, [(("x", 0), ("x", 0))], [0]))

    @staticmethod
    def hardness_game():
        return CongestionGame([[1, 0]], [[[0]]], mode="hardness")

    @staticmethod
    def spec(**fields):
        base = dict(seed=0, n_players=4, n_resources=6, strategies_per_player=3,
                    strategy_size=(1, 3), degree=1, coeff_range=(0, 4))
        return GenSpec(**{**base, **fields})

    @staticmethod
    def eps_br(seed):
        g = two_resource_game()
        return epsilon_br_dynamics(g, g.state([0, 0]), F(1, 2), order="random",
                                   seed=seed)

    @staticmethod
    def report():
        g = two_resource_game()
        return approximation_factor(g, g.state([0, 0]))

    CASES = [
        *(
            (f"for_bundle-alpha-{v!r}", "alpha must be an integer",
             lambda v=v: GadgetParams.for_bundle(TestInputRules.bundle(), alpha=v))
            for v in (2.5, "3")
        ),
        *(
            (f"positivize-alpha-{v!r}", "alpha must be an integer",
             lambda v=v: positivize(TestInputRules.hardness_game(), alpha=v))
            for v in (2.5, "3")
        ),
        *(
            (f"GenSpec-{name}-{v!r}", f"{name} must be an integer",
             lambda name=name, v=v: TestInputRules.spec(**{name: v}))
            for name in ("seed", "n_players", "n_resources",
                         "strategies_per_player", "degree")
            for v in (2.5, True)
        ),
        *(
            (f"GenSpec-{name}-{pair!r}", f"{name} must be an integer",
             lambda name=name, pair=pair: TestInputRules.spec(**{name: pair}))
            for name, pairs in (("strategy_size", [(1, 2.5), (True, 2)]),
                                ("coeff_range", [(0, 2.5), (True, 4)]))
            for pair in pairs
        ),
        *(
            (f"{oracle.__name__}-budget-{v!r}", "budget must be an integer",
             lambda oracle=oracle, v=v: oracle(random_game(0), budget=v))
            for oracle in (brute_min_potential, enumerate_equilibria)
            for v in (True, 2.5, "10")
        ),
        ("enumerate_equilibria-order-[True, False]", "order entry must be",
         lambda: enumerate_equilibria(two_resource_game(), order=[True, False])),
        *(
            (f"audit_identities-trials-{v!r}", "trials must be (an integer|at least 1)",
             lambda v=v: audit_identities(two_resource_game(), seed=0, trials=v))
            for v in (2.5, True, -1)
        ),
        *(
            (f"{entry}-seed-{v!r}", "seed must be an integer", call)
            for v in (True, 2.5, "7")
            for entry, call in (
                ("SolverConfig",
                 lambda v=v: SolverConfig(seed=v, scheduler="random")),
                ("epsilon_br_dynamics",
                 lambda v=v: TestInputRules.eps_br(seed=v)),
                ("audit_identities",
                 lambda v=v: audit_identities(two_resource_game(), seed=v, trials=1)),
            )
        ),
        *(
            (f"is_approx-{v!r}", "rho must be >= 1",
             lambda v=v: TestInputRules.report().is_approx(v))
            for v in (F(1, 2), "1/2")
        ),
    ]

    @pytest.mark.parametrize(
        "message, call", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_bad_value_is_validation_error(self, message, call):
        with pytest.raises(ValidationError, match=message):
            call()

    # Each message quotes a value past the digit limit, which is refused like
    # any other over-limit value.
    PAST_LIMIT = {
        "standard-negative-coefficient":
            lambda: CongestionGame([[-HUGE, 1]], [[[0]]]),
        "hardness-negative-latency":
            lambda: CongestionGame([[-HUGE, 1]], [[[0]]], mode="hardness"),
        "hardness-fraction-coefficient":
            lambda: CongestionGame([[F(1, HUGE), 1]], [[[0]]], mode="hardness"),
        "to_integer-below-least": lambda: to_integer(-HUGE, "x", least=0),
        "to_integer-fraction": lambda: to_integer(F(HUGE, 3), "x"),
        "to_factor": lambda: to_factor(F(1, HUGE), "rho"),
        "SolverConfig-theta_override":
            lambda: SolverConfig(theta_override=F(1, HUGE)),
        "theta-q": lambda: theta(1, F(HUGE)),
        "GadgetParams-ladder": lambda: GadgetParams(2, HUGE, 3, 4),
        "epsilon_br_dynamics-epsilon": lambda g=two_resource_game():
            epsilon_br_dynamics(g, g.state([0, 0]), -F(1, HUGE)),
    }

    @pytest.mark.parametrize("call", PAST_LIMIT.values(), ids=PAST_LIMIT)
    def test_value_past_digit_limit_in_message(self, call):
        with pytest.raises(ValidationError, match="over the 4300-digit limit"):
            call()

    @pytest.mark.parametrize("value, text", [(F(5, 2), "5/2"), (True, "True")])
    def test_to_integer_quotes_exact_text(self, value, text):
        with pytest.raises(ValidationError, match=f"^x must be an integer, got {text}$"):
            to_integer(value, "x")

    def test_integral_float_accepted_as_int(self):
        params = GadgetParams.for_bundle(self.bundle(), alpha=3.0)
        assert type(params.alpha) is int
        assert params == GadgetParams.for_bundle(self.bundle(), alpha=3)
        game = self.hardness_game()
        assert positivize(game, alpha=3.0) == positivize(game, alpha=3)
        names = ("seed", "n_players", "n_resources", "strategies_per_player", "degree")
        spec = self.spec(**{name: 3.0 for name in names},
                         strategy_size=(1.0, 3.0), coeff_range=(0.0, 4.0))
        assert all(type(getattr(spec, name)) is int for name in names)
        assert all(type(v) is int for v in spec.strategy_size + spec.coeff_range)
        assert generate(spec) == generate(self.spec(**{name: 3 for name in names}))
        g = random_game(0)
        for oracle in (brute_min_potential, enumerate_equilibria):
            assert oracle(g, budget=100.0) == oracle(g, budget=100)
        assert enumerate_equilibria(g, order=[1.0, 0, 2, 3]) == enumerate_equilibria(g)
        assert audit_identities(g, seed=0, trials=3.0).rosenthal.trials == 3
        assert type(SolverConfig(seed=3.0).seed) is int
        assert self.eps_br(seed=3.0).to_json() == self.eps_br(seed=3).to_json()
        assert audit_identities(g, seed=3.0, trials=3) == audit_identities(
            g, seed=3, trials=3
        )

    @pytest.mark.parametrize("bad", [2, -1])
    @pytest.mark.parametrize("entry", [
        "deviation_cost", "State.of", "State.apply", "SubgameView.deviation_cost",
    ])
    def test_missing_strategy_index(self, entry, bad):
        g = two_resource_game()
        state = g.state([0, 0])
        calls = {
            "deviation_cost": lambda: g.deviation_cost(state, 1, bad),
            "State.of": lambda: State.of(g, [0, bad]),
            "State.apply": lambda: state.apply(g, 1, bad),
            "SubgameView.deviation_cost": lambda: SubgameView.freeze(
                g, state, [1]
            ).deviation_cost(state, 1, bad),
        }
        with pytest.raises(ValidationError, match=f"player 1 has no strategy {bad}"):
            calls[entry]()


def test_public_names_resolve():
    # `from congames import *` imports every name in __all__
    missing = [name for name in congames.__all__ if not hasattr(congames, name)]
    assert missing == []
    assert len(set(congames.__all__)) == len(congames.__all__)

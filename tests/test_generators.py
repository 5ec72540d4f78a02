"""Seeded random instance families."""

import pytest

from congames import (
    CongestionGame,
    GenSpec,
    GenerationError,
    ValidationError,
    generate,
)
from congames.serialize import game_to_dict
from congames.verify import enumerate_equilibria, state_space_size


def spec(**kw):
    base = dict(
        seed=0,
        n_players=4,
        n_resources=6,
        strategies_per_player=2,
        strategy_size=(1, 2),
        degree=1,
        coeff_range=(0, 4),
    )
    base.update(kw)
    return GenSpec(**base)


def test_same_seed_identical_games():
    a = generate(spec(seed=11))
    b = generate(spec(seed=11))
    assert game_to_dict(a) == game_to_dict(b)
    assert a == b


def test_different_seeds_differ():
    assert generate(spec(seed=1)) != generate(spec(seed=2))


def test_symmetric_players_share_strategies():
    g = generate(spec(symmetric=True, seed=5))
    assert all(strats == g.players[0] for strats in g.players)


def test_all_zero_coefficients_every_state_equilibrium():
    g = generate(spec(coeff_range=(0, 0), n_players=3, seed=9))
    assert len(enumerate_equilibria(g, rho=1)) == state_space_size(g)


def test_generated_games_validate():
    for seed in range(30):
        g = generate(spec(seed=seed, degree=2, strategies_per_player=3))
        assert isinstance(g, CongestionGame)
        assert g.mode == "standard"
        for strats in g.players:
            assert len(set(strats)) == len(strats)  # distinct strategies
            for strat in strats:
                assert strat


def test_strategy_size_exceeding_resources_rejected():
    with pytest.raises(ValidationError):
        spec(strategy_size=(1, 7))


@pytest.mark.parametrize("name, pair", [("strategy_size", (2, 1)), ("coeff_range", (4, 0))])
def test_reversed_range_rejected(name, pair):
    with pytest.raises(ValidationError, match="bad .*range"):
        spec(**{name: pair})


def test_rejection_sampling_cap():
    # only one distinct singleton exists, so two strategies cannot be drawn
    with pytest.raises(GenerationError):
        generate(spec(n_resources=1, strategy_size=(1, 1), strategies_per_player=2))


def test_degree_zero_constant_latencies():
    g = generate(spec(degree=0, seed=3))
    assert g.degree == 0

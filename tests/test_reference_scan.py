"""The incremental threshold scan against full-rescan reference implementations.

`reference_solve` and `reference_eps_br` re-check every player before every
move, with a `Fraction` best response, as the solver and the dynamics did
before they kept an eligibility cache and compared integer table sums.  They
log their own moves and recompute every potential from the state, where the
package updates it by the mover's cost change.  Their traces must match the
package's byte for byte.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import CongestionGame, SolverConfig, epsilon_br_dynamics, solve
from congames.dynamics import (
    MoveRecord,
    RunTrace,
    find_threshold_move,
    optimistic_cost,
)
from congames.errors import ContractViolationError, ParameterError
from congames.serialize import format_rational, read_instance
from congames.solver import (
    approximation_bound,
    default_move_cap,
    parameters,
    partition_blocks,
)

FIXTURES = Path(__file__).parent / "fixtures"


def reference_threshold_move(game, state, u, q):
    """find_threshold_move with every cost a Fraction."""
    current = game.player_cost(state, u)
    if current == 0:
        return None
    best_idx, best_cost = None, None
    for idx in range(len(game.players[u])):
        cost = game.deviation_cost(state, u, idx)
        if best_cost is None or cost < best_cost:
            best_idx, best_cost = idx, cost
    if best_cost * q < current:
        return best_idx, best_cost
    return None


def reference_move(game, state, u, found, moves, phase=None):
    """Move u as `found` says and log it with recomputed potentials."""
    idx, new_cost = found
    new_state = state.apply(game, u, idx)
    old_cost = game.player_cost(state, u)
    moves.append(
        MoveRecord(
            u, state.choices[u], idx, old_cost, new_cost,
            game.potential(state), game.potential(new_state), phase,
        )
    )
    return new_state


def reference_solve(game, config):
    """The phased solver with a full rescan of both blocks after every move."""
    n = game.n_players
    d = max(1, game.degree)
    psi = config.psi
    rng = random.Random(config.seed)

    ells, initial_choices = [], []
    for u in range(n):
        ell, idx = optimistic_cost(game, u)
        ells.append(ell)
        initial_choices.append(idx)
    state = game.state(initial_choices)

    params = {"n": n, "d": d, "psi": psi, "scheduler": config.scheduler}
    if config.seed is not None:
        params["seed"] = config.seed
    base, blocks = partition_blocks(ells, n, d, psi)
    params["base"] = base
    params["m"] = len(blocks)
    params["block_of"] = [
        next((i for i, block in enumerate(blocks, 1) if u in block), None)
        for u in range(n)
    ]
    params["zero_players"] = [u for u, ell in enumerate(ells) if ell == 0]
    if not blocks:
        params["degenerate"] = True
        return RunTrace(
            state.choices, state.choices, game.potential(state), [],
            phases=[], parameters=params,
        )

    q, p, th = parameters(n, d, config)
    cap = config.move_cap
    if cap is None:
        cap = default_move_cap(n, d, psi)
    params.update(
        {
            "q": format_rational(q),
            "p": format_rational(p),
            "theta": format_rational(th),
            "bound": format_rational(approximation_bound(n, psi, p)),
            "move_cap": cap,
        }
    )

    moves, phases = [], []

    def eligible_moves(members, factor):
        for u in members:
            found = reference_threshold_move(game, state, u, factor)
            if found is not None:
                yield u, found

    for i, block_i in enumerate(blocks, 1):
        if not block_i:
            continue
        block_next = blocks[i] if i < len(blocks) else []
        phase_moves = 0
        while True:
            chosen = None
            if config.scheduler == "scan":
                chosen = next(eligible_moves(block_i, p), None)
                if chosen is None:
                    chosen = next(eligible_moves(block_next, q), None)
            else:
                candidates = list(eligible_moves(block_i, p))
                candidates += list(eligible_moves(block_next, q))
                if candidates:
                    chosen = candidates[rng.randrange(len(candidates))]
            if chosen is None:
                break
            u, found = chosen
            if len(moves) + 1 > cap:
                raise ContractViolationError(
                    f"move cap {cap} exceeded in phase {i}; the schedule "
                    "should terminate well below it"
                )
            state = reference_move(game, state, u, found, moves, phase=i)
            phase_moves += 1
        phases.append({"i": i, "block_size": len(block_i), "moves": phase_moves})

    return RunTrace(
        tuple(initial_choices), state.choices, game.potential(state), moves,
        phases=phases, parameters=params,
    )


def reference_eps_br(
    game, state0, epsilon, move_cap=100_000, order="roundrobin", seed=None
):
    """(1+eps)-dynamics re-checking every player of every sweep."""
    q = 1 + epsilon
    rng = random.Random(seed)
    state = state0
    moves = []
    truncated = False
    while True:
        players = list(range(game.n_players))
        if order == "random":
            rng.shuffle(players)
        moved = False
        for u in players:
            found = reference_threshold_move(game, state, u, q)
            if found is None:
                continue
            state = reference_move(game, state, u, found, moves)
            moved = True
            if len(moves) >= move_cap:
                truncated = True
                break
        if truncated or not moved:
            break
    return RunTrace(
        state0.choices, state.choices, game.potential(state), moves,
        truncated=truncated,
    )


def outcome(run, *args, **kwargs):
    """Trace JSON of a run, or the type and message of what it raised."""
    try:
        return run(*args, **kwargs).to_json()
    except (ContractViolationError, ParameterError) as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_solve_matches(game, config):
    assert outcome(solve, game, config) == outcome(reference_solve, game, config)


def assert_eps_br_matches(game, state0, epsilon, **kwargs):
    got = outcome(epsilon_br_dynamics, game, state0, epsilon, **kwargs)
    assert got == outcome(reference_eps_br, game, state0, epsilon, **kwargs)


@st.composite
def tiered_games(draw):
    """Small games with up to three tiers of latencies, a block base apart.

    Every player of a tier has the tier's hub as strategy 0, and the others
    cost at least as much alone, so all players start on their hub and the
    crowded hubs make moves.  Some strategies also use a resource of the next
    tier, so a move in one block changes loads that another block sees.
    Degree 2 games carry fractional coefficients and need a theta override.
    """
    n = draw(st.integers(5, 12))
    degree = draw(st.integers(1, 2))
    base = 2 ** (degree + 1) * n ** (degree + 3)
    n_tiers = draw(st.integers(1, 3))
    top = st.fractions(min_value=0, max_value=2, max_denominator=2)
    resources, hubs, others = [], [], []
    for t in range(n_tiers):
        scale = base ** (n_tiers - 1 - t)
        square = [draw(top) * scale] if degree == 2 else []
        hubs.append(len(resources))
        resources.append([0, scale, *square])
        others.append([])
        for _ in range(draw(st.integers(1, 3))):
            others[t].append(len(resources))
            offset, slope = draw(st.integers(0, 2)), draw(st.integers(1, 3))
            resources.append([offset * scale, slope * scale, *square])
    players = []
    for _ in range(n):
        t = draw(st.integers(0, n_tiers - 1))
        reach = others[t] + (others[t + 1] if t + 1 < n_tiers else [])
        alternative = st.lists(
            st.sampled_from(reach), min_size=1, max_size=2, unique=True
        )
        alternatives = draw(st.lists(alternative, min_size=1, max_size=3))
        players.append([[hubs[t]], *alternatives])
    return CongestionGame(resources, players)


@st.composite
def tie_games(draw):
    """Few resources and fractional, possibly zero, coefficients.

    Players often hold two strategies of equal cost (identical resource sets
    among them), so a current strategy ties with a lower-index best response,
    and some players pay nothing at all.
    """
    n_resources = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=0, max_value=3, max_denominator=3)
    resources = draw(
        st.lists(st.lists(coeff, min_size=1, max_size=3), min_size=n_resources,
                 max_size=n_resources)
    )
    strategy = st.lists(
        st.integers(0, n_resources - 1), min_size=1, max_size=n_resources,
        unique=True,
    )
    players = draw(
        st.lists(st.lists(strategy, min_size=1, max_size=4), min_size=1, max_size=5)
    )
    return CongestionGame(resources, players)


@settings(max_examples=300, deadline=None)
@given(st.one_of(tie_games(), tiered_games()), st.data())
def test_threshold_move_matches_reference(game, data):
    """The early return on a best response equal to the current strategy
    changes no answer, for q given as an int, a string or a Fraction."""
    choices = [data.draw(st.integers(0, len(s) - 1)) for s in game.players]
    state = game.state(choices)
    q = data.draw(
        st.one_of(
            st.just(Fraction(1)),
            st.fractions(min_value=1, max_value=4, max_denominator=12),
        )
    )
    forms = [q, str(q)] + ([int(q)] if q.denominator == 1 else [])
    given_q = data.draw(st.sampled_from(forms))
    for u in range(game.n_players):
        expected = reference_threshold_move(game, state, u, q)
        assert find_threshold_move(game, state, u, given_q) == expected


def test_threshold_move_none_on_tie_with_lower_index():
    # player 0 sits on strategy 1, which costs what strategy 0 costs
    game = CongestionGame([[0, Fraction(1, 2)], [0, 1]], [[[0], [0], [1]], [[1]]])
    state = game.state([1, 0])
    assert game.cost_sums(state, 0) == [Fraction(1, 2), Fraction(1, 2), 2]
    for q in (1, "1", Fraction(1)):
        assert find_threshold_move(game, state, 0, q) is None
        assert reference_threshold_move(game, state, 0, Fraction(q)) is None


@settings(max_examples=150, deadline=None)
@given(tiered_games(), st.sampled_from(["scan", "random"]), st.integers(0, 3))
def test_solve_matches_full_rescan(game, scheduler, seed):
    theta = 3 if game.degree >= 2 else None
    config = SolverConfig(psi=1, theta_override=theta, scheduler=scheduler, seed=seed)
    assert_solve_matches(game, config)


@settings(max_examples=150, deadline=None)
@given(
    tiered_games(),
    st.sampled_from(["roundrobin", "random"]),
    st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(3)]),
    st.integers(0, 3),
    st.data(),
)
def test_eps_br_matches_full_rescan(game, order, epsilon, seed, data):
    choices = [data.draw(st.integers(0, len(s) - 1)) for s in game.players]
    cap = data.draw(st.sampled_from([1, 3, 100_000]))
    assert_eps_br_matches(
        game, game.state(choices), epsilon, move_cap=cap, order=order, seed=seed
    )


@pytest.mark.parametrize(
    "instance", ["tiered.json", "random_d1.json", "random_d2.json"]
)
@pytest.mark.parametrize("scheduler", ["scan", "random"])
def test_fixture_solve_matches_full_rescan(instance, scheduler):
    game, _labels = read_instance(str(FIXTURES / instance))
    theta = 3 if game.degree >= 2 else None
    for seed in (0, 7):
        config = SolverConfig(
            psi=1, theta_override=theta, scheduler=scheduler, seed=seed
        )
        assert_solve_matches(game, config)


@pytest.mark.parametrize("instance", ["tiered.json", "random_d1.json"])
@pytest.mark.parametrize("order", ["roundrobin", "random"])
def test_fixture_eps_br_matches_full_rescan(instance, order):
    game, _labels = read_instance(str(FIXTURES / instance))
    start = game.state([0] * game.n_players)
    assert_eps_br_matches(game, start, Fraction(1, 10), order=order, seed=5)

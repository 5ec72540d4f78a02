"""The per-game value table against direct latency evaluation.

Every cost and potential is a sum of table entries; these properties
recompute each one from `LatencyFunction.eval` over `load_profile`, and
`eval` itself, the integer kernel, is checked against a power sum of
`Fraction`s, as the stored coefficients are against their `Fraction`s.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from congames import (
    CongestionGame,
    LatencyFunction,
    SolverConfig,
    SubgameView,
    best_response,
    epsilon_br_dynamics,
    load_profile,
    solve,
)
from trace_check import check_trace

thousand_bits = st.integers(-(2**1000), 2**1000)
small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
# Every input form the constructor accepts: ints, Fractions, "p/q" and digit
# strings, and decimal strings.
any_coefficient = st.one_of(
    small_fractions,
    thousand_bits,
    small_fractions.map(str),
    st.integers(0, 2**1000).map(str),
    st.decimals(-1000, 1000, places=3).map(str),
)


def power_sum(coeffs, load):
    return sum((Fraction(c) * load**k for k, c in enumerate(coeffs)), Fraction(0))


@settings(max_examples=500, deadline=None)
@given(
    st.lists(any_coefficient, max_size=5),
    st.one_of(st.integers(1, 100), st.integers(1, 2**1000)),
)
def test_eval_matches_power_sum(coeffs, load):
    value = LatencyFunction(coeffs).eval(load)
    assert exact_value(value, power_sum(coeffs, load))


@settings(max_examples=300, deadline=None)
@given(st.lists(any_coefficient, max_size=5))
def test_coefficients_are_ints_exactly_when_integral(coeffs):
    f = LatencyFunction(coeffs)
    exact = [Fraction(c) for c in coeffs] or [Fraction(0)]
    assert all(exact_value(c, x) for c, x in zip(f.coeffs, exact, strict=True))
    # equal to, and hashing as, the same coefficients all held as Fractions
    assert f.coeffs == tuple(exact) and hash(f.coeffs) == hash(tuple(exact))
    g = LatencyFunction(exact)
    assert f == g and hash(f) == hash(g)


@settings(max_examples=200, deadline=None)
@given(thousand_bits, st.integers(1, 2**1000), st.integers(1, 64))
def test_affine_eval_with_negative_offset(slope, offset, load):
    coeffs = [-offset, slope]
    value = LatencyFunction(coeffs).eval(load)
    assert exact_value(value, power_sum(coeffs, load))


def exact_value(value, expected):
    """`value` equals the Fraction `expected`, as an int exactly when integral."""
    kind = int if expected.denominator == 1 else Fraction
    return type(value) is kind and value == expected


# Denominators up to 3 give both integral and fractional latency values.
coefficient = st.fractions(min_value=0, max_value=4, max_denominator=3)


@st.composite
def games(draw):
    n_res = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 2))
    resources = [
        draw(st.lists(coefficient, min_size=degree + 1, max_size=degree + 1))
        for _ in range(n_res)
    ]
    strategy = st.lists(
        st.integers(0, n_res - 1), min_size=1, max_size=n_res, unique=True
    )
    players = draw(
        st.lists(st.lists(strategy, min_size=1, max_size=3), min_size=1, max_size=5)
    )
    game = CongestionGame(resources, players)
    choices = [draw(st.integers(0, len(s) - 1)) for s in game.players]
    active = draw(st.sets(st.integers(0, game.n_players - 1)))
    return game, game.state(choices), active


def direct_cost(game, loads, strat):
    return sum((game.resources[e].eval(loads[e]) for e in strat), Fraction(0))


def direct_potential(game, loads, offsets=None):
    offsets = offsets or [0] * game.n_resources
    return sum(
        (
            game.resources[e].eval(offsets[e] + j)
            for e, k in enumerate(loads)
            for j in range(1, k + 1)
        ),
        Fraction(0),
    )


def exact(value, expected):
    return type(value) is Fraction and value == expected


@settings(max_examples=300, deadline=None)
@given(games())
def test_game_costs_match_direct_evaluation(case):
    game, state, _active = case
    loads = load_profile(game, state)
    assert exact(game.potential(state), direct_potential(game, loads))
    for u, strats in enumerate(game.players):
        mine = strats[state.choices[u]]
        assert exact(game.player_cost(state, u), direct_cost(game, loads, mine))
        expected = check_deviations(game, game, state, u)
        sums = game.cost_sums(state, u)
        assert sums == expected
        if all(type(v) is int for col in game.latency_table for v in col):
            assert all(type(c) is int for c in sums)
        best = min(expected)
        assert best_response(game, state, u) == (expected.index(best), best)


def check_deviations(game, view, state, u):
    """deviation_cost of `view` against moved states; returns the costs."""
    expected = []
    for alt, strat in enumerate(game.players[u]):
        moved = game.state([alt if v == u else c for v, c in enumerate(state.choices)])
        expected.append(direct_cost(game, load_profile(game, moved), strat))
        assert exact(view.deviation_cost(state, u, alt), expected[-1])
    return expected


@settings(max_examples=300, deadline=None)
@given(games())
def test_subgame_costs_match_direct_evaluation(case):
    game, state, active = case
    view = SubgameView.freeze(game, state, active)
    loads = load_profile(game, state)
    active_loads = [0] * game.n_resources
    for u in active:
        for e in game.players[u][state.choices[u]]:
            active_loads[e] += 1
    frozen = [k - a for k, a in zip(loads, active_loads)]
    assert list(view.frozen_loads) == frozen
    assert exact(view.potential(state), direct_potential(game, active_loads, frozen))
    for u in active:
        mine = game.players[u][state.choices[u]]
        assert exact(view.player_cost(state, u), direct_cost(game, loads, mine))
        check_deviations(game, view, state, u)


@settings(max_examples=100, deadline=None)
@given(games())
def test_table_entries(case):
    game, _state, _active = case
    for e, (f, col) in enumerate(zip(game.resources, game.latency_table)):
        users = {u for u, ss in enumerate(game.players) if any(e in s for s in ss)}
        assert game.users[e] == users
        assert len(col) == len(users) + 1
        assert col[0] == 0
        for k in range(1, len(col)):
            value = f.eval(k)
            assert col[k] == value
            assert type(col[k]) is (int if value.denominator == 1 else Fraction)


@st.composite
def walk_games(draw):
    """Games of 1 to 7 players, integral or not, with a start state."""
    n_res = draw(st.integers(1, 5))
    degree = draw(st.integers(0, 2))
    coeff = draw(st.sampled_from([st.integers(0, 6), coefficient]))
    resources = [
        draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
        for _ in range(n_res)
    ]
    strategy = st.lists(
        st.integers(0, n_res - 1), min_size=1, max_size=n_res, unique=True
    )
    players = draw(
        st.lists(st.lists(strategy, min_size=1, max_size=3), min_size=1, max_size=7)
    )
    game = CongestionGame(resources, players)
    choices = [draw(st.integers(0, len(s) - 1)) for s in game.players]
    return game, game.state(choices)


def assert_integral_records(game, trace):
    """An integral game records its costs and potentials as ints.

    `check_trace` compares every recorded value with the `Fraction`
    reference, which equal ints match, so only the type is checked here.
    """
    if all(type(v) is int for col in game.latency_table for v in col):
        for m in trace.moves:
            values = (m.cost_before, m.cost_after, m.potential_before, m.potential_after)
            assert all(type(v) is int for v in values)


@settings(max_examples=200, deadline=None)
@given(walk_games(), st.sampled_from([Fraction(1, 100), Fraction(1, 3), Fraction(2)]))
def test_dynamics_records_match_reference(case, epsilon):
    game, state = case
    trace = epsilon_br_dynamics(game, state, epsilon)
    assert check_trace(game, trace, 1 + epsilon) == []
    assert_integral_records(game, trace)


@st.composite
def crowded_games(draw):
    """Games of 12 to 24 players on 2 to 4 rising latencies, integral or not.

    The solver starts every player on her solo best response and moves her
    only when she gains a factor p, which is 20 at n = 4 and falls toward 2 as
    n grows.  Here each player picks one resource from a subset, so the
    players crowd onto the cheap ones first and then have moves to make.
    """
    n_res = draw(st.integers(2, 4))
    degree = draw(st.integers(1, 2))
    integral = draw(st.booleans())
    offset = st.integers(0, 6) if integral else coefficient
    slope = st.integers(1, 6) if integral else st.fractions(1, 4, max_denominator=3)
    resources = [
        [draw(offset), *draw(st.lists(slope, min_size=degree, max_size=degree))]
        for _ in range(n_res)
    ]
    subset = st.lists(st.integers(0, n_res - 1), min_size=1, unique=True)
    players = draw(st.lists(subset, min_size=12, max_size=24))
    return CongestionGame(resources, [[[e] for e in p] for p in players])


@settings(max_examples=200, deadline=None)
@given(crowded_games())
def test_solve_records_match_reference(game):
    config = SolverConfig(theta_override=Fraction(3) if game.degree > 1 else None)
    trace = solve(game, config)
    assert check_trace(game, trace) == []
    assert_integral_records(game, trace)

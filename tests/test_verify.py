"""Exact verification, brute-force oracles, and the randomized audits."""

import gc
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from congames import (
    BudgetExceededError,
    CongestionGame,
    GenSpec,
    State,
    ValidationError,
    approximation_factor,
    audit_identities,
    brute_min_potential,
    enumerate_equilibria,
    generate,
)
from congames.hardness import enumeration_order
from congames.verify import (
    AuditReport,
    _search_order,
    _tests,
    naive_state_scan,
    state_space_size,
)
from test_hardness import AND_XY, NAND_XY, NOT_X, build


def random_game(seed, n=4, strategies=3, degree=1):
    return generate(
        GenSpec(
            seed=seed,
            n_players=n,
            n_resources=5,
            strategies_per_player=strategies,
            strategy_size=(1, 2),
            degree=degree,
            coeff_range=(0, 4),
        )
    )


class TestApproximationFactor:
    def test_exact_equilibrium(self):
        g = CongestionGame([[1], [1]], [[[0]], [[1]]])
        report = approximation_factor(g, g.state([0, 0]))
        assert report.rho_star == 1

    def test_witness_ratio(self):
        # cost 4 with a deviation to cost 1
        g = CongestionGame([[4], [1]], [[[0], [1]]])
        report = approximation_factor(g, g.state([0]))
        assert report.rho_star == 4
        assert report.witness == (0, 1)

    def test_zero_cost_deviation_infinite(self):
        g = CongestionGame([[4], [0, 0]], [[[0], [1]]])
        report = approximation_factor(g, g.state([0]))
        assert report.rho_star is None
        assert report.rho_star_str() == "inf"
        assert not report.is_approx(F(10**9))
        assert report.is_approx(None)

    def test_zero_over_zero_is_one(self):
        g = CongestionGame([[0, 0], [0, 0]], [[[0], [1]]])
        report = approximation_factor(g, g.state([0]))
        assert report.rho_star == 1

    def test_per_player_ratios(self):
        g = CongestionGame([[4], [1], [2]], [[[0], [1]], [[2]]])
        report = approximation_factor(g, g.state([0, 0]))
        assert report.per_player == [4, 1]

    def test_rho_star_at_least_one(self):
        rng = random.Random(2)
        for _ in range(100):
            g = random_game(rng.randrange(10_000))
            s = g.state([rng.randrange(len(p)) for p in g.players])
            report = approximation_factor(g, s)
            assert report.rho_star is None or report.rho_star >= 1


def reference_approximation_factor(game, state):
    """(rho_star, infinite, witness, per_player) from one Fraction per pair.

    Ratio cur/dev, with 0/0 = 1 and positive/0 = infinity (None); the
    witness is the first infinite pair, else the first pair at the maximum.
    """
    ratios = []
    for u in range(game.n_players):
        cur = game.player_cost(state, u)
        for alt in range(len(game.players[u])):
            dev = game.deviation_cost(state, u, alt)
            if dev == 0:
                ratios.append((u, alt, F(1) if cur == 0 else None))
            else:
                ratios.append((u, alt, cur / dev))
    per_player = []
    for u in range(game.n_players):
        mine = [r for v, _, r in ratios if v == u]
        per_player.append(None if None in mine else max(mine))
    infinite = [(u, alt) for u, alt, r in ratios if r is None]
    if infinite:
        return None, True, infinite[0], per_player
    top = max(r for _, _, r in ratios)
    witness = next((u, alt) for u, alt, r in ratios if r == top)
    return top, False, witness, per_player


@st.composite
def games_with_zero_costs(draw):
    """Small games whose zero latencies make 0/0 and x/0 ratios common."""
    n_res = draw(st.integers(1, 4))
    coeffs = st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=1, max_size=2)
    resources = [draw(coeffs) for _ in range(n_res)]
    strategy = st.lists(st.integers(0, n_res - 1), min_size=1, max_size=n_res)
    players = draw(
        st.lists(st.lists(strategy, min_size=1, max_size=3), min_size=1, max_size=4)
    )
    game = CongestionGame(resources, players)
    choices = [draw(st.integers(0, len(p) - 1)) for p in game.players]
    return game, game.state(choices)


class TestApproximationFactorReference:
    @settings(max_examples=300, deadline=None)
    @given(games_with_zero_costs())
    def test_matches_per_pair_fractions(self, game_state):
        game, state = game_state
        report = approximation_factor(game, state)
        rho_star, infinite, witness, per_player = reference_approximation_factor(
            game, state
        )
        assert (report.rho_star is None) == infinite
        assert report.rho_star == rho_star
        assert report.witness == witness
        assert report.per_player == per_player

    def test_zero_over_zero_and_positive_over_zero(self):
        # player 0 pays 0 with a free deviation (0/0); player 1 pays 2 and
        # could move to the free resource (2/0)
        g = CongestionGame([[0], [2]], [[[0], [0]], [[1], [0]]])
        state = g.state([0, 0])
        report = approximation_factor(g, state)
        assert report.per_player == [1, None]
        assert report.rho_star is None and report.witness == (1, 1)
        assert reference_approximation_factor(g, state)[1:] == (
            True, (1, 1), [1, None]
        )


class TestBruteMinPotential:
    def test_two_state_enumeration(self):
        g = CongestionGame([[3], [6]], [[[0], [1]]])
        state, phi = brute_min_potential(g)
        assert (state.choices, phi) == ((0,), 3)

    def test_all_zero_ties_lexicographic(self):
        g = CongestionGame([[0, 0], [0, 0]], [[[0], [1]], [[1], [0]]])
        state, phi = brute_min_potential(g)
        assert phi == 0
        assert state.choices == (0, 0)

    def test_matches_independent_enumeration(self):
        for seed in range(20):
            g = random_game(seed, n=3, strategies=2)
            state, phi = brute_min_potential(g)
            ranked = sorted(
                (g.potential(g.state(c)), c)
                for c in itertools.product(*[range(len(p)) for p in g.players])
            )
            assert phi == ranked[0][0]
            best = min(c for v, c in ranked if v == phi)
            assert state.choices == best

    def test_budget_refusal(self):
        g = random_game(0)
        with pytest.raises(BudgetExceededError):
            brute_min_potential(g, budget=state_space_size(g) - 1)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        g = random_game(0)
        for oracle in (brute_min_potential, enumerate_equilibria):
            with pytest.raises(ValidationError, match="budget must be at least 1"):
                oracle(g, budget=budget)


class TestEnumerateEquilibria:
    def test_single_player_game(self):
        g = CongestionGame([[2], [1], [1]], [[[0], [1], [2]]])
        eqs = enumerate_equilibria(g, rho=1)
        assert [s.choices for s in eqs] == [(1,), (2,)]

    def test_standard_games_have_equilibria(self):
        for seed in range(30):
            g = random_game(seed)
            assert enumerate_equilibria(g, rho=1)

    def test_rho_none_gives_all_states(self):
        g = random_game(1, n=3, strategies=2)
        assert len(enumerate_equilibria(g, rho=None)) == state_space_size(g)

    def test_matches_naive_scan(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_game(rng.randrange(10_000), n=rng.choice((3, 4)))
            rho = rng.choice([F(1), F(3, 2), F(2), None])
            fast = enumerate_equilibria(g, rho=rho)
            slow = naive_state_scan(g, rho)
            assert [s.choices for s in fast] == [s.choices for s in slow]

    def test_explicit_order_matches(self):
        g = random_game(4)
        base = enumerate_equilibria(g, rho=1)
        permuted = enumerate_equilibria(g, rho=1, order=[3, 1, 0, 2])
        assert [s.choices for s in base] == [s.choices for s in permuted]

    def test_rejects_bad_inputs(self):
        g = random_game(4)
        with pytest.raises(ValidationError):
            enumerate_equilibria(g, rho=F(1, 2))
        with pytest.raises(ValidationError):
            enumerate_equilibria(g, rho=1, order=[0, 0, 1, 2])
        with pytest.raises(BudgetExceededError):
            enumerate_equilibria(g, rho=1, budget=2)


@st.composite
def latencies(draw, kind, n_res, n):
    """Coefficient lists, lowest degree first, for one of five latency kinds.

    "hardness" draws decreasing affine latencies that stay >= 0 up to load n;
    "quadratic" draws d = 2 latencies with fractional coefficients; "zero"
    and "constant" make ties common.
    """
    if kind == "zero":
        return [[0]] * n_res
    if kind == "constant":
        return [[draw(st.integers(0, 2))] for _ in range(n_res)]
    if kind == "linear":
        return [draw(st.lists(st.integers(0, 3), min_size=2, max_size=2)) for _ in range(n_res)]
    if kind == "hardness":
        out = []
        for _ in range(n_res):
            slope, floor = draw(st.integers(-4, 0)), draw(st.integers(0, 4))
            out.append([floor - slope * n, slope])
        return out
    fraction = st.builds(F, st.integers(0, 4), st.sampled_from([1, 2, 3]))
    return [draw(st.lists(fraction, min_size=3, max_size=3)) for _ in range(n_res)]


@st.composite
def crowded_games(draw, kinds, players=(5, 7), resources=(2, 3), strategies=2):
    """Many players on few resources, so load vectors repeat within a search."""
    kind = draw(st.sampled_from(kinds))
    n_res = draw(st.integers(*resources))
    n = draw(st.integers(*players))
    strategy = st.lists(st.integers(0, n_res - 1), min_size=1, max_size=n_res)
    strats = st.lists(strategy, min_size=1, max_size=strategies)
    mode = "hardness" if kind == "hardness" else "standard"
    return CongestionGame(
        draw(latencies(kind, n_res, n)),
        [draw(strats) for _ in range(n)],
        mode=mode,
    )


@st.composite
def sparse_games(draw, kinds, crowded=False):
    """Games whose resources have at most two users, or some three or more.

    Every player owns one private resource and may use each resource drawn
    for her; a resource is drawn for one or two players (for two to five
    when `crowded`), so without `crowded` no resource has three users.
    """
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(3, 5))
    owners = [[u] for u in range(n)]
    for _ in range(draw(st.integers(2, 7))):
        size = draw(st.integers(1, min(n, 5 if crowded else 2)))
        owners.append(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)))
    players = []
    for u in range(n):
        mine = [e for e, who in enumerate(owners) if u in who]
        strategy = st.lists(st.sampled_from(mine), min_size=1, max_size=3)
        players.append(draw(st.lists(strategy, min_size=1, max_size=3)))
    mode = "hardness" if kind == "hardness" else "standard"
    return CongestionGame(draw(latencies(kind, len(owners), n)), players, mode=mode)


@st.composite
def full_field_games(draw):
    """Games that fill the search code's bit fields to their top bit.

    Four of the eight players use resource 0 in every strategy, and all of
    them use the last resource, so those loads reach 4 and 8; the players
    have 1 to 5 strategies, so choice fields are 0 to 3 bits wide.  A field
    one bit too narrow carries into the next one.
    """
    kind = draw(st.sampled_from(["linear", "hardness", "quadratic"]))
    n, n_res = 8, 5
    four = draw(st.sets(st.integers(0, n - 1), min_size=4, max_size=4))
    counts = draw(st.permutations([1, 2, 3, 4, 5, 1, 2, 2]))
    middle = st.sets(st.integers(1, n_res - 2), max_size=2)
    players = [
        [
            sorted(s | {n_res - 1} | ({0} if u in four else set()))
            for s in draw(st.lists(middle, min_size=k, max_size=k))
        ]
        for u, k in enumerate(counts)
    ]
    mode = "hardness" if kind == "hardness" else "standard"
    return CongestionGame(draw(latencies(kind, n_res, n)), players, mode=mode)


class TestOraclesAgainstScans:
    @settings(max_examples=150, deadline=None)
    @given(
        st.booleans().flatmap(
            lambda crowded: sparse_games(["linear", "hardness", "quadratic"], crowded)
        ),
        st.data(),
    )
    def test_enumeration_matches_naive_scan_on_sparse_games(self, game, data):
        # Two-user resources are where the search tests placed players
        # against bounds before all their resources close.
        assume(any(len(users) == 2 for users in game.users))
        order = data.draw(st.permutations(range(game.n_players)))
        for rho in (F(1), F(3, 2), F(2), None):
            slow = [s.choices for s in naive_state_scan(game, rho)]
            for o in (None, order, order[::-1]):
                fast = enumerate_equilibria(game, rho=rho, order=o)
                assert [s.choices for s in fast] == slow

    @settings(max_examples=100, deadline=None)
    @given(crowded_games(["linear", "hardness", "quadratic"]), st.data())
    def test_enumeration_matches_naive_scan(self, game, data):
        order = data.draw(st.permutations(range(game.n_players)))
        for rho in (F(1), F(3, 2), F(2), None):
            slow = [s.choices for s in naive_state_scan(game, rho)]
            for o in (None, order):
                fast = enumerate_equilibria(game, rho=rho, order=o)
                assert [s.choices for s in fast] == slow

    @settings(max_examples=25, deadline=None)
    @given(full_field_games())
    def test_enumeration_matches_naive_scan_with_full_bit_fields(self, game):
        assert (len(game.users[0]), len(game.users[-1])) == (4, 8)
        assert sorted(map(len, game.players)) == [1, 1, 2, 2, 2, 3, 4, 5]
        backward = list(range(game.n_players))[::-1]
        for rho in (F(1), F(3, 2), None):
            slow = [s.choices for s in naive_state_scan(game, rho)]
            for o in (None, backward):
                fast = enumerate_equilibria(game, rho=rho, order=o)
                assert [s.choices for s in fast] == slow

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(crowded_games(["linear", "hardness", "quadratic"]), full_field_games()))
    def test_enumerated_states_equal_checked_states(self, game):
        # The enumeration decodes choices and loads from its search code
        # instead of building each state through State.of.
        for rho in (F(1), None):
            for s in enumerate_equilibria(game, rho=rho):
                assert s == State.of(game, s.choices)

    @settings(max_examples=200, deadline=None)
    @given(
        crowded_games(
            ["zero", "constant", "linear", "hardness", "quadratic"],
            players=(2, 5),
            resources=(1, 4),
            strategies=3,
        )
    )
    def test_brute_matches_product_scan(self, game):
        state, phi = brute_min_potential(game)
        ranked = [
            (game.potential(game.state(c)), c)
            for c in itertools.product(*[range(len(p)) for p in game.players])
        ]
        assert (phi, state.choices) == min(ranked)


def _with_order(game):
    return st.tuples(st.just(game), st.permutations(range(game.n_players)))


def _flip_case(circuit):
    _bundle, _params, game, labels = build(circuit)
    return game, enumeration_order(labels)


class TestEnumerationTestDepths:
    @settings(max_examples=150, deadline=None)
    @given(
        st.booleans()
        .flatmap(lambda crowded: sparse_games(["linear"], crowded))
        .flatmap(_with_order)
    )
    @example(_flip_case(NOT_X))
    @example(_flip_case(NAND_XY))
    @example(_flip_case(AND_XY))
    def test_players_are_tested_where_their_resources_close(self, case):
        game, order = case
        r = game.n_resources
        position = {u: t for t, u in enumerate(order)}
        users = game.users
        last = [max((position[v] for v in us), default=0) for us in users]
        # one bit per field: a read's or a mask's shift names its field
        bits = [(i, 1) for i in range(r + game.n_players)]
        for u, strats in enumerate(game.players):
            mine = {e for s in strats for e in s}
            tests = list(_tests(game, u, position[u], last, bits))
            depths = [t for t, _, _ in tests]
            # first test: once every open resource of hers has two users
            assert depths[0] == min(
                t
                for t in range(position[u], len(order))
                if all(len(users[e]) <= 2 for e in mine if last[e] > t)
            )
            # then every depth that places a player sharing a resource with her
            sharers = set().union(*(users[e] for e in mine))
            assert depths == [t for t in range(depths[0], len(order)) if order[t] in sharers]
            opened = [o for _, o, _ in tests]
            assert opened == [{e for e in mine if last[e] > t} for t in depths]
            assert all(later < earlier for earlier, later in zip(opened, opened[1:]))
            assert [bool(o) for o in opened] == [True] * (len(tests) - 1) + [False]
            assert depths[-1] == max(last[e] for e in mine)
            # a check's mask is her choice field plus the fields its reads
            # name, and no read names an open resource
            for _, o, (mask, verdicts, (shift, _, per_choice)) in tests:
                assert verdicts == {} and shift == r + u
                read = {
                    s
                    for bounds in per_choice
                    for _, reads in [bounds[0], *bounds[1]]
                    for s, _, _ in reads
                }
                assert mask == sum(1 << i for i in read | {r + u})
                assert read == mine - o


class TestSearchOrder:
    @settings(max_examples=150, deadline=None)
    @given(
        st.booleans()
        .flatmap(lambda crowded: sparse_games(["linear"], crowded))
        .flatmap(_with_order)
    )
    @example(_flip_case(NOT_X))
    @example(_flip_case(NAND_XY))
    @example(_flip_case(AND_XY))
    def test_next_player_has_the_most_placed_sharers(self, case):
        game, priority = case
        order = _search_order(game, priority)
        assert sorted(order) == list(range(game.n_players))
        assert order[0] == priority[0]
        users = game.users
        sharers = [
            {v for s in strats for e in s for v in users[e]} - {u}
            for u, strats in enumerate(game.players)
        ]
        for t in range(1, len(order)):
            placed = set(order[:t])
            counts = {v: len(sharers[v] & placed) for v in order[t:]}
            most = max(counts.values())
            assert counts[order[t]] == most
            assert order[t] == next(v for v in priority if counts.get(v) == most)
        # no priority: more sharers first, lower index on ties
        hubs_first = sorted(range(game.n_players), key=lambda u: (-len(sharers[u]), u))
        assert _search_order(game, None) == _search_order(game, hubs_first)

    @pytest.mark.parametrize(
        "order",
        [[0, 0, 1, 2], [0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 2, 4], [0, 1, 2, 2.5], [0, 1, 2, "3"]],
        ids=["repeat", "short", "long", "outside", "fraction", "string"],
    )
    def test_bad_order_is_refused_before_the_search_order(self, order, monkeypatch):
        def refine(game, priority):
            raise AssertionError("an unchecked order reached _search_order")

        monkeypatch.setattr("congames.verify._search_order", refine)
        with pytest.raises(ValidationError) as info:
            enumerate_equilibria(random_game(4), rho=1, order=order)
        assert info.value.exit_code == 2


class TestOraclesLeaveNoCycles:
    def test_no_cyclic_garbage_after_each_call(self):
        # Anything an oracle leaves in a reference cycle (its recursive search
        # closure and all it captures, the verdict cache included) would live
        # until the cyclic collector runs.
        g = random_game(3, n=5)
        calls = [
            lambda: brute_min_potential(g),
            lambda: enumerate_equilibria(g, rho=1),
            lambda: enumerate_equilibria(g, rho=F(3, 2), order=[4, 3, 2, 1, 0]),
            lambda: enumerate_equilibria(g, rho=None),
        ]
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestAuditIdentities:
    def test_zero_violations_on_linear_corpus(self):
        total = AuditReport()
        for seed in range(10):
            g = random_game(seed, n=4, strategies=2)
            total.merge(audit_identities(g, seed=seed, trials=50))
        assert total.total_violations == 0
        assert total.rosenthal.trials == 500

    def test_ratio_check_within_linear_bound(self):
        report = audit_identities(random_game(3), seed=0, trials=10)
        assert report.potential_ratio.violations == []
        if report.max_ratio_observed is not None:
            assert report.max_ratio_observed <= 6

    def test_degree_two_ratio_recorded_not_asserted(self):
        g = random_game(5, degree=2)
        report = audit_identities(g, seed=1, trials=10)
        assert report.potential_ratio.violations == []

    def test_report_serializes(self):
        report = audit_identities(random_game(6), seed=2, trials=5)
        doc = report.to_dict()
        assert set(doc) >= {
            "rosenthal",
            "sandwich",
            "subadditivity",
            "subgame_consistency",
            "potential_ratio",
            "total_violations",
        }

    def test_ratio_check_skipped_over_budget(self):
        g = random_game(6)
        over = audit_identities(g, seed=2, trials=5, budget=state_space_size(g) - 1)
        assert over.potential_ratio.to_dict() == {
            "trials": 0, "violations": [], "skipped": 1
        }
        within = audit_identities(g, seed=2, trials=5)
        assert within.potential_ratio.skipped == 0
        assert "skipped" not in within.to_dict()["potential_ratio"]
        within.merge(over)
        over.merge(over)
        assert (within.potential_ratio.skipped, over.potential_ratio.skipped) == (1, 2)

    def test_requires_standard_mode(self):
        g = CongestionGame([[-1, 1]], [[[0]]], mode="hardness")
        with pytest.raises(ValidationError):
            audit_identities(g, seed=0, trials=1)


class TestLinearPotentialRatio:
    def test_exact_equilibria_within_factor_two(self):
        # every exact equilibrium of a small linear game stays within twice
        # the optimal potential
        for seed in range(40):
            g = random_game(seed, n=4, strategies=3)
            _, phi_min = brute_min_potential(g)
            for s in enumerate_equilibria(g, rho=1):
                assert g.potential(s) <= 2 * phi_min

"""Parameter computation, block partition, and the phased schedule."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import (
    CongestionGame,
    ContractViolationError,
    GenSpec,
    ParameterError,
    SolverConfig,
    ValidationError,
    approximation_bound,
    generate,
    move_bound,
    parameters,
    partition_blocks,
    solve,
    theta,
)
from congames.verify import approximation_factor
from trace_check import check_trace


def seeded_game(seed, n=8, degree=1, coeff_max=5):
    return generate(
        GenSpec(
            seed=seed,
            n_players=n,
            n_resources=8,
            strategies_per_player=3,
            strategy_size=(1, 2),
            degree=degree,
            coeff_range=(0, coeff_max),
        )
    )


class TestTheta:
    def test_linear_at_one(self):
        assert theta(1, F(1)) == 2

    def test_linear_exact_rational(self):
        assert theta(1, F(17, 16)) == F(34, 15)

    def test_linear_rejects_q_at_two(self):
        with pytest.raises(ParameterError):
            theta(1, F(2))

    def test_missing_override_names_degree(self):
        with pytest.raises(ParameterError, match="theta override"):
            theta(2, F(3, 2))


class TestParameters:
    def test_n16(self):
        q, p, th = parameters(16, 1, SolverConfig(psi=1))
        assert (q, p, th) == (F(17, 16), F(272, 103), F(34, 15))

    def test_n4(self):
        q, p, th = parameters(4, 1, SolverConfig(psi=1))
        assert (q, p) == (F(5, 4), 20)
        assert th == F(10, 3)

    def test_n2_too_small(self):
        with pytest.raises(ParameterError, match="too small"):
            parameters(2, 1, SolverConfig(psi=1))

    def test_single_player_rejected(self):
        with pytest.raises(ParameterError):
            parameters(1, 1, SolverConfig(psi=1))

    def test_override_pass_through(self):
        config = SolverConfig(psi=1, theta_override=F(3))
        assert parameters(16, 3, config)[2] == 3
        # a linear game ignores the override
        assert parameters(16, 1, config)[2] == F(34, 15)

    def test_p_positive_whenever_returned(self):
        for n in (4, 8, 12, 16, 32):
            for psi in (1, 2):
                _, p, _ = parameters(n, 1, SolverConfig(psi=psi))
                assert p > 1


class TestSolverConfig:
    def test_psi_must_be_positive_integer(self):
        with pytest.raises(ValidationError):
            SolverConfig(psi=0)

    @pytest.mark.parametrize(
        "name, value",
        [("psi", True), ("psi", 1.5), ("psi", "2"), ("psi", None),
         ("psi", F(5, 2)), ("psi", float("nan")),
         ("move_cap", True), ("move_cap", 2.5), ("move_cap", "5"),
         ("move_cap", float("inf"))],
    )
    def test_psi_and_move_cap_must_be_integers(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            SolverConfig(**{name: value})

    def test_integral_psi_and_move_cap_become_ints(self):
        config = SolverConfig(psi=1.0, move_cap=F(500))
        assert type(config.psi) is int and type(config.move_cap) is int
        g = CongestionGame([[0, 1], [0, 1]], [[[0], [1]]] * 4)
        params = solve(g, config).parameters
        assert (params["psi"], params["move_cap"]) == (1, 500)
        assert type(params["psi"]) is int and type(params["move_cap"]) is int

    def test_unknown_scheduler(self):
        with pytest.raises(ValidationError):
            SolverConfig(scheduler="fifo")

    def test_theta_override_validated(self):
        with pytest.raises(ValidationError):
            SolverConfig(theta_override=F(1, 2))


class TestPartitionBlocks:
    def test_all_equal_single_block(self):
        assert partition_blocks([F(3)] * 5, 5, 1, 1) == (2**2 * 5**4, [[0, 1, 2, 3, 4]])

    def test_boundary_example(self):
        # d=1, psi=1, n=4: base 1024; max 1024, value 1 lands in block 2
        assert partition_blocks([F(1024), F(1)], 4, 1, 1) == (1024, [[0], [1]])

    def test_last_block_may_be_empty(self):
        # 1000/1 < 1024 still needs m = 2, but 1 * 1024 > 1000 puts 1 in block 1
        assert partition_blocks([F(1000), F(1)], 4, 1, 1) == (1024, [[0, 1], []])

    def test_upper_end_inclusive(self):
        # value exactly on the second boundary goes to block 2
        _, blocks = partition_blocks([F(1024**2), F(1024)], 4, 1, 1)
        assert blocks[1] == [1]

    def test_zero_players_separated(self):
        _, blocks = partition_blocks([F(0), F(5), F(0)], 3, 1, 1)
        assert blocks == [[1]]

    def test_all_zero_degenerate(self):
        assert partition_blocks([F(0), F(0)], 2, 1, 1) == (2**2 * 2**4, [])

    @pytest.mark.parametrize("ells", [[3, -1], [F(1, 2), F(-1, 3)]])
    def test_negative_cost_rejected(self, ells):
        with pytest.raises(ValidationError, match="non-negative"):
            partition_blocks(ells, 4, 1, 1)

    def test_nonempty_blocks_at_most_n(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(2, 9)
            ells = [F(rng.randrange(1, 10**6)) for _ in range(n)]
            base, blocks = partition_blocks(ells, n, 1, 1)
            assert sum(1 for b in blocks if b) <= n
            assert sorted(u for b in blocks for u in b) == list(range(n))
            top = max(ells)
            for i, block in enumerate(blocks, 1):
                assert block == sorted(block)
                for u in block:
                    assert top / base**i < ells[u] <= top / base ** (i - 1)

    def test_exact_beyond_float_range(self):
        # A quotient 10**400 / 1024**i of ints would overflow a float.
        top = 10**400
        ells = [top, top // 1024, top // 1024 + 1, 1]
        expected = [[0, 2], [1]] + [[]] * 130 + [[3], []]
        assert partition_blocks(ells, 4, 1, 1) == (1024, expected)
        assert partition_blocks([F(e) for e in ells], 4, 1, 1) == (1024, expected)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(0, 50), st.integers(0, 2**300)), max_size=8),
        st.integers(1, 8),
        st.integers(1, 3),
        st.integers(1, 2),
    )
    def test_int_costs_match_fraction_costs_and_reference(self, ells, n, d, psi):
        result = partition_blocks(ells, n, d, psi)
        assert result == partition_blocks([F(e) for e in ells], n, d, psi)
        assert result == (result[0], reference_blocks(ells, result[0]))


def reference_blocks(ells, base):
    """Block i holds the costs in (l_max B^-i, l_max B^(1-i)], in Fractions.

    m is the least m >= 1 with l_min >= l_max B^(1-m), that is
    1 + ceil(log_B(l_max / l_min)).
    """
    positive = [ell for ell in ells if ell]
    if not positive:
        return []
    top, low = max(positive), min(positive)
    m = 1
    while low < F(top, base ** (m - 1)):
        m += 1
    bounds = [F(top, base**i) for i in range(m + 1)]
    return [
        [u for u, ell in enumerate(ells) if bounds[i] < ell <= bounds[i - 1]]
        for i in range(1, m + 1)
    ]


class TestSolve:
    def test_disjoint_solo_optima_no_moves(self):
        g = CongestionGame(
            [[0, 1], [0, 2], [0, 3], [0, 4]],
            [[[0]], [[1]], [[2]], [[3]]],
        )
        trace = solve(g, SolverConfig(psi=1))
        assert trace.n_moves == 0
        assert check_trace(g, trace) == []
        report = approximation_factor(g, g.state(trace.final_state))
        assert report.rho_star == 1

    @pytest.mark.parametrize("n, seed", [(n, s) for n, seeds in (
        (8, range(30)), (12, (0, 5, 9)), (10, range(10))) for s in seeds])
    def test_seeded_traces_replay_exactly(self, n, seed):
        g = seeded_game(seed, n=n)
        assert check_trace(g, solve(g, SolverConfig(psi=1))) == []

    def test_deterministic_traces(self):
        g = seeded_game(21, n=12)
        t1 = solve(g, SolverConfig(psi=1))
        t2 = solve(g, SolverConfig(psi=1))
        assert t1.to_json() == t2.to_json()

    def test_random_scheduler_meets_bound(self):
        g = seeded_game(33, n=8)
        for seed in range(5):
            trace = solve(g, SolverConfig(psi=1, scheduler="random", seed=seed))
            assert check_trace(g, trace) == []
        a = solve(g, SolverConfig(psi=1, scheduler="random", seed=3))
        b = solve(g, SolverConfig(psi=1, scheduler="random", seed=3))
        assert a.to_json() == b.to_json()

    def test_move_cap_breach_is_contract_violation(self):
        for seed in range(30):
            g = generate(
                GenSpec(seed=seed, n_players=12, n_resources=4,
                        strategies_per_player=3, strategy_size=(1, 2),
                        degree=1, coeff_range=(0, 5))
            )
            baseline = solve(g, SolverConfig(psi=1))
            if baseline.n_moves == 0:
                continue
            with pytest.raises(ContractViolationError):
                solve(g, SolverConfig(psi=1, move_cap=baseline.n_moves - 1))
            return
        pytest.fail("no seed produced a schedule with moves")

    def test_zero_optimistic_cost_players_pinned(self):
        # player 3 owns a free strategy; she stays on it and never moves
        g = CongestionGame(
            [[0, 1], [0, 2], [0, 0]],
            [[[0], [1]], [[0], [1]], [[0], [1]], [[2], [0]]],
        )
        trace = solve(g, SolverConfig(psi=1))
        assert trace.parameters["zero_players"] == [3]
        assert all(m.player != 3 for m in trace.moves)
        assert trace.final_state[3] == 0

    def test_multi_tier_blocks_move_in_their_own_phases(self):
        # three pairs with optimistic costs exactly B^2, B, 1 (B = 5184 for
        # six players): each pair shares a resource and owns an escape of the
        # same scale, so the lighter blocks fix themselves via q-moves in
        # phases 1 and 2
        base = 2**2 * 6**4
        scales = [base**2, base, 1]
        res = []
        players = []
        for tier, scale in enumerate(scales):
            res += [[0, scale], [0, scale]]
            t, u = 2 * tier, 2 * tier + 1
            players += [[[t], [u]], [[t], [u]]]
        g = CongestionGame(res, players)
        trace = solve(g, SolverConfig(psi=1))
        assert trace.parameters["m"] == 3
        assert trace.parameters["block_of"] == [1, 1, 2, 2, 3, 3]
        moves_by_phase = {p["i"]: p["moves"] for p in trace.phases}
        assert moves_by_phase == {1: 1, 2: 1, 3: 0}
        assert check_trace(g, trace) == []

    def test_equal_optimistic_costs_still_equilibrated(self):
        # all optimistic costs equal puts everyone in the one and only block;
        # the final phase must still run, or the crowd stays sixteen-deep on
        # the shared resource at ratio 16, far above the guarantee
        n = 16
        res = [[0, 1]] + [[0, 1] for _ in range(n)]
        players = [[[0], [1 + u]] for u in range(n)]
        g = CongestionGame(res, players)
        trace = solve(g, SolverConfig(psi=1))
        assert trace.parameters["m"] == 1
        assert trace.n_moves > 0
        assert check_trace(g, trace) == []

    def test_all_zero_latencies_degenerate(self):
        g = CongestionGame([[0, 0]], [[[0]], [[0]], [[0]], [[0]]])
        trace = solve(g, SolverConfig(psi=1))
        assert trace.parameters.get("degenerate") is True
        assert trace.n_moves == 0
        assert check_trace(g, trace) == []

    def test_hardness_mode_rejected(self):
        g = CongestionGame([[-1, 1]], [[[0]], [[0]]], mode="hardness")
        with pytest.raises(ValidationError):
            solve(g)

    def test_degree_two_requires_override(self):
        g = seeded_game(3, n=4, degree=2)
        with pytest.raises(ParameterError):
            solve(g, SolverConfig(psi=1))

    def test_degree_two_with_override(self):
        g = seeded_game(3, n=4, degree=2)
        trace = solve(g, SolverConfig(psi=1, theta_override=F(3)))
        assert check_trace(g, trace) == []


class TestBounds:
    def test_bound_formula_values(self):
        _, p4, _ = parameters(4, 1, SolverConfig(psi=1))
        assert approximation_bound(4, 1, p4) == 40

    def test_bound_approaches_two_monotonically(self):
        prev = None
        for n in range(4, 65):
            _, p, _ = parameters(n, 1, SolverConfig(psi=1))
            bound = approximation_bound(n, 1, p)
            assert bound > 2
            # fixed closed-form envelope: bound <= 2 + 152/n for psi=1
            assert bound <= 2 + F(152, n)
            if prev is not None:
                assert bound < prev
            prev = bound

    def test_move_bound_formula(self):
        # 2^(2d+2) n^(5psi+3d+3) + n 2^(d+2) n^(4psi+2d+2) + n at d=1, psi=1
        assert move_bound(4, 1, 1) == 16 * 4**11 + 4 * 8 * 4**8 + 4

    def test_observed_moves_far_below_bound(self):
        for seed in range(10):
            g = seeded_game(seed, n=8)
            trace = solve(g, SolverConfig(psi=1))
            assert trace.n_moves <= move_bound(8, 1, 1)

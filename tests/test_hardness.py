"""Flip local search and the circuit-to-game gadget construction."""

import itertools
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from congames import (
    CongestionGame,
    GenSpec,
    State,
    ValidationError,
    generate,
)
from congames.hardness import (
    ALL_VARIANTS,
    Bundle,
    BundleGate,
    CircuitGraph,
    FlipInstance,
    GadgetParams,
    GUARD_VARIANTS,
    OUT1_VARIANTS,
    build_flip_game,
    bundle_from_dict,
    bundle_to_dict,
    derive_subcircuits,
    enumeration_order,
    flip_instance_from_dict,
    flip_instance_to_dict,
    flip_is_local_min,
    flip_objective,
    pair_to_linear,
    positivize,
    read_flip_instance,
    read_input_bits,
    structural_check,
    _GameAssembler,
)
from congames.verify import (
    _auto_order,
    enumerate_equilibria,
    naive_state_scan,
    sample_state,
)

X = lambda i: ("x", i)
G = lambda k: ("g", k)

NOT_X = FlipInstance(1, [(X(0), X(0))], [0])  # y = NOT x1
NAND_XY = FlipInstance(2, [(X(0), X(1))], [0])  # y = NAND(x1, x2)
AND_XY = FlipInstance(2, [(X(0), X(1)), (G(0), G(0))], [1])  # y = x1 AND x2
# y = NAND(x3, NAND(x2, x1)), plus two gates no output reads; its 19-gate
# bundle has equilibria that decode to a non-minimum (ROADMAP item 1)
BREAKS = FlipInstance(3, [(X(1), X(0)), (X(2), G(0)), (X(2), X(1)), (X(1), X(2))], [1])
GOLDEN = [
    read_flip_instance(str(Path(__file__).parent / "fixtures" / f"{name}.circuit.json"))
    for name in ("flip_and_xy", "flip_two_outputs")
]


def build(circuit, rho=F(2), alpha=None):
    bundle = derive_subcircuits(circuit)
    params = GadgetParams.for_bundle(bundle, rho=rho, alpha=alpha)
    game, labels = build_flip_game(bundle, params)
    return bundle, params, game, labels


class TestFlipObjective:
    def test_weighted_outputs(self):
        # gate 0 computes 1 at x=0, gate 1 computes NOT(gate 0) = 0
        circ = FlipInstance(1, [(X(0), X(0)), (G(0), G(0))], [0, 1])
        assert circ.eval_outputs([0]) == [1, 0]
        assert flip_objective(circ, [0]) == 1
        both = FlipInstance(1, [(X(0), X(0))], [0, 0])
        assert flip_objective(both, [0]) == 3

    def test_nand_truth_table(self):
        assert flip_objective(NAND_XY, [1, 1]) == 0
        for x in ([0, 0], [0, 1], [1, 0]):
            assert flip_objective(NAND_XY, x) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            flip_objective(NAND_XY, [1])


class TestFlipLocalMin:
    def test_constant_circuit_everything_minimal(self):
        # y = NAND(x, NOT x) = 1 for every x
        circ = FlipInstance(1, [(X(0), X(0)), (X(0), G(0))], [1])
        assert circ.eval_outputs([0]) == [1] and circ.eval_outputs([1]) == [1]
        for x in ([0], [1]):
            assert flip_is_local_min(circ, x) == (True, None)

    def test_identity_like_circuit(self):
        # y = x1 via double inversion; x=1 improves by flipping to 0
        circ = FlipInstance(1, [(X(0), X(0)), (G(0), G(0))], [1])
        assert flip_is_local_min(circ, [1]) == (False, 0)
        assert flip_is_local_min(circ, [0]) == (True, None)

    def test_matches_neighbor_enumeration(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(1, 3)
            gates = []
            for k in range(rng.randint(1, 4)):
                refs = [X(i) for i in range(n)] + [G(j) for j in range(k)]
                gates.append((rng.choice(refs), rng.choice(refs)))
            outs = [rng.randrange(len(gates)) for _ in range(rng.randint(1, 2))]
            circ = FlipInstance(n, gates, outs)
            for bits in itertools.product((0, 1), repeat=n):
                x = list(bits)
                base = flip_objective(circ, x)
                improving = [
                    i
                    for i in range(n)
                    if flip_objective(circ, x[:i] + [1 - x[i]] + x[i + 1:]) < base
                ]
                is_min, witness = flip_is_local_min(circ, x)
                assert is_min == (not improving)
                assert witness == (min(improving) if improving else None)

    def test_validation(self):
        with pytest.raises(ValidationError, match="^circuit: gate 0 must reference"):
            FlipInstance(1, [(G(0), X(0))], [0])  # forward reference
        with pytest.raises(ValidationError, match="^circuit: gate 0 reads x 5"):
            FlipInstance(1, [(X(5), X(0))], [0])
        with pytest.raises(ValidationError, match="^circuit: designated output 3"):
            FlipInstance(1, [(X(0), X(0))], [3])

    def test_json_round_trip(self):
        doc = flip_instance_to_dict(AND_XY)
        assert flip_instance_from_dict(doc) == AND_XY


class TestPairToLinear:
    def test_zero_big_pair(self):
        big = 2**30
        f = pair_to_linear(0, big)
        assert (f.eval(1), f.eval(2)) == (0, big)
        assert f.coeffs == (-big, big)

    def test_alpha_cubed_pair(self):
        a = 3
        f = pair_to_linear(a, a**3)
        assert (f.eval(1), f.eval(2)) == (a, a**3)

    def test_constant_pair(self):
        f = pair_to_linear(7, 7)
        assert f.eval(1) == f.eval(2) == f.eval(5) == 7

    def test_negative_values_rejected(self):
        # the game, not the pair, checks values at every reachable load
        with pytest.raises(ValidationError):
            CongestionGame(
                [pair_to_linear(-1, 2)], [[[0]], [[0]]], mode="hardness"
            )


class TestGadgetParams:
    def test_scale_ladder(self):
        bundle = derive_subcircuits(NOT_X)
        params = GadgetParams.for_bundle(bundle)
        k = bundle.total_gates()
        assert params.alpha == 2
        assert params.beta == params.alpha ** (2 * k + 1)
        assert params.gamma == 2 * params.alpha * params.beta
        assert params.big_m == params.alpha**6 * params.gamma ** (bundle.n_outputs + 1)
        assert params.alpha < params.beta < params.gamma < params.big_m

    def test_alpha_tracks_rho(self):
        bundle = derive_subcircuits(NOT_X)
        assert GadgetParams.for_bundle(bundle, rho=F(7, 2)).alpha == 4

    def test_alpha_below_rho_rejected(self):
        bundle = derive_subcircuits(NOT_X)
        with pytest.raises(ValidationError):
            GadgetParams.for_bundle(bundle, rho=F(5), alpha=3)

    def test_largest_value_is_largest_written(self):
        _, params, game, _ = build(NAND_XY)
        written = max(max(f.eval(1), f.eval(2)) for f in game.resources)
        assert written == params.largest_value == params.big_m**5

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit"
    )
    def test_digit_limit_refuses_exactly_the_ladders_over_it(self):
        bundle = derive_subcircuits(NAND_XY)

        def over(alpha):
            return GadgetParams.for_bundle(bundle, alpha=alpha).largest_value >= 10**640

        lo, hi = 2, 4  # bisect for the smallest alpha whose M^5 has 641 digits
        while not over(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if over(mid) else (mid, hi)
        cases = [(alpha, over(alpha)) for alpha in (2, hi - 1, hi, 2 * hi, hi**3)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the smallest limit Python allows
        try:
            for alpha, is_over in cases:
                if is_over:
                    with pytest.raises(ValidationError, match="more than 640 digits"):
                        GadgetParams.for_bundle(bundle, alpha=alpha)
                else:
                    GadgetParams.for_bundle(bundle, alpha=alpha)
        finally:
            sys.set_int_max_str_digits(limit)


class TestDeriveSubcircuits:
    def test_guards_appended_with_restricted_variants(self):
        bundle = derive_subcircuits(NOT_X)
        guard = bundle.main.gates[-1]
        assert guard.a == ("y", 0)
        assert guard.b == ("g", 0)
        assert guard.variants == GUARD_VARIANTS

    def test_constant_folding(self):
        bundle = derive_subcircuits(NOT_X)
        # rewriting x1 := 0 makes the output 1 (never an improvement)
        assert (0, 0, 0) not in bundle.comparisons
        # rewriting x1 := 1 always zeroes the output
        assert bundle.comparisons[(0, 0, 1)] == CircuitGraph((), ())

    def test_comparison_never_reads_rewritten_bit(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(1, 3)
            gates = []
            for k in range(rng.randint(1, 3)):
                refs = [X(i) for i in range(n)] + [G(j) for j in range(k)]
                gates.append((rng.choice(refs), rng.choice(refs)))
            circ = FlipInstance(n, gates, [len(gates) - 1])
            bundle = derive_subcircuits(circ)
            for (j, i, b), comp in bundle.comparisons.items():
                for gate in comp.gates:
                    assert gate.a != X(i) and gate.b != X(i)

    def test_comparison_output_value_matches_rewrite(self):
        # the designated output gate's settled value under the *displayed*
        # inputs must equal the rewritten circuit output (or its negation
        # for the single-inverter encoding, flagged by the lock variants)
        circ = NAND_XY
        bundle = derive_subcircuits(circ)
        comp = bundle.comparisons[(0, 0, 1)]
        assert isinstance(comp, CircuitGraph)
        assert len(comp.gates) == 1
        out_gate = comp.gates[comp.outputs[0]]
        assert out_gate.variants == ("110",)

    def test_comparisons_compute_their_predicates(self):
        # Comparison (j, i, b) locks fully, its output gate showing the
        # output bit of one of its variants, exactly when rewriting x_i to b
        # zeroes output j and leaves every higher output equal to its
        # display; a missing slot never holds and a gateless one always does.
        # Every derived bundle also survives its JSON round trip.
        rng = random.Random(16)
        circuits = [NOT_X, NAND_XY, AND_XY, *GOLDEN, BREAKS]
        for _ in range(100):
            n = rng.randint(1, 4)
            gates = []
            for k in range(rng.randint(1, 6)):
                refs = [X(i) for i in range(n)] + [G(j) for j in range(k)]
                gates.append((rng.choice(refs), rng.choice(refs)))
            outs = [rng.randrange(len(gates)) for _ in range(rng.randint(1, 3))]
            circuits.append(FlipInstance(n, gates, outs))
        for circ in circuits:
            bundle = derive_subcircuits(circ)
            assert bundle_from_dict(bundle_to_dict(bundle)) == bundle
            n, m = circ.n_inputs, len(circ.outputs)
            slots = list(itertools.product(range(m), range(n), (0, 1)))
            for x in itertools.product((0, 1), repeat=n):
                for y in itertools.product((0, 1), repeat=m):
                    main = bundle.main.values(x, y)
                    assert main[: len(circ.gates)] == circ.values(x)
                for j, i, b in slots:
                    comp = bundle.comparisons.get((j, i, b))
                    rewritten = circ.eval_outputs(x[:i] + (b,) + x[i + 1:])
                    for y in itertools.product((0, 1), repeat=m):
                        holds = rewritten[j] == 0 and rewritten[j + 1:] == list(y[j + 1:])
                        if comp is None or not comp.gates:
                            assert (comp is not None) == holds, (circ, j, i, b, x, y)
                            continue
                        (out,) = comp.outputs
                        locked = {int(v[2]) for v in comp.gates[out].variants}
                        value = comp.values(x, y)[out]
                        assert (value in locked) == holds, (circ, j, i, b, x, y)

    def test_bundle_json_round_trip(self):
        bundle = derive_subcircuits(AND_XY)
        doc = bundle_to_dict(bundle)
        assert bundle_from_dict(doc) == bundle

    def test_bundle_json_writes_every_slot(self):
        # A missing slot is written as {"const": 0}, a gateless one as
        # {"const": 1}, and the document lists all 2nm keys in key order.
        main = CircuitGraph((BundleGate(X(0), X(1)), BundleGate(X(1), X(0))), (0, 1))
        comp = CircuitGraph((BundleGate(X(1), ("y", 1), OUT1_VARIANTS),), (0,))
        bundle = Bundle(2, 2, main, {(0, 0, 1): comp, (1, 1, 0): CircuitGraph((), ())})
        doc = bundle_to_dict(bundle)
        keys = [f"{j},{i},{b}" for j in range(2) for i in range(2) for b in (0, 1)]
        assert list(doc["comparisons"]) == keys
        assert doc["comparisons"]["0,0,1"]["outputs"] == [0]
        assert doc["comparisons"]["1,1,0"] == {"const": 1}
        for text in keys:
            if text not in ("0,0,1", "1,1,0"):
                assert doc["comparisons"][text] == {"const": 0}
        assert bundle_from_dict(doc) == bundle
        doc["comparisons"]["1,1,0"] = {"gates": [], "outputs": []}
        assert bundle_from_dict(doc) == bundle


class TestBuildFlipGame:
    def test_deterministic(self):
        b1, p1, g1, l1 = build(NAND_XY)
        b2, p2, g2, l2 = build(NAND_XY)
        assert g1 == g2 and l1 == l2

    def test_player_count(self):
        bundle, params, game, labels = build(AND_XY)
        k = bundle.total_gates()
        assert game.n_players == 1 + 2 * k + 2 + 1

    def test_structural_property(self):
        for circ in (NOT_X, NAND_XY, AND_XY):
            _, _, game, _ = build(circ)
            report = structural_check(game)
            assert report.passed
            assert report.max_players_per_resource <= 2

    def test_three_way_sharing_fails_check(self):
        g = CongestionGame([[0, 1]], [[[0]], [[0]], [[0]]])
        report = structural_check(g)
        assert not report.passed
        assert report.sharing_offenders[0]["players"] == [0, 1, 2]

    def test_assembler_rejects_redefined_resource(self):
        asm = _GameAssembler()
        assert asm.resource("R", 3, 3) == asm.resource("R", 3, 3) == 0
        with pytest.raises(ValidationError, match="redefined"):
            asm.resource("R", 3, 4)

    def test_empty_game_vacuous_pass(self):
        assert structural_check(CongestionGame([], [])).passed

    def test_latency_pair_spot_checks(self):
        bundle, params, game, labels = build(NOT_X)
        a, beta, gamma, M = params.alpha, params.beta, params.gamma, params.big_m
        res = {name: game.resources[i] for i, name in enumerate(labels["resources"])}
        expected = {
            "Lock_0": (beta, beta),
            "TriggerController(Y_1)": (1, beta**2),
            "One_1": (4 * a**4 * gamma, 4 * a**4 * gamma),
            "Change_1": (3 * a**3 * gamma, 3 * a**3 * gamma),
            "Check_1": (2 * a**2 * gamma, 2 * a**2 * gamma),
            "TriggerY_1(Controller)": (0, 5 * a**5 * gamma),
            "Reset1": (2 * M, 2 * M),
            "Reset2": (M, M),
            "TriggerUnlockG_1": (a, a**3),
            "ResetDoneY_1": (0, M**5),
            "BlockY_1": (0, M**2),
        }
        for name, (v1, v2) in expected.items():
            assert name in res, name
            assert (res[name].eval(1), res[name].eval(2)) == (v1, v2), name

    def test_lock_player_variants_follow_bundle(self):
        bundle, params, game, labels = build(NOT_X)
        # guard gate is the second main gate: its lock player offers the two
        # display-matches-value rows plus Unlock
        guard_lock = labels["lock_players"][1]
        assert labels["strategies"][guard_lock] == ["Lock001", "Lock110", "Unlock"]
        full_lock = labels["lock_players"][0]
        assert labels["strategies"][full_lock] == [
            "Lock001", "Lock101", "Lock011", "Lock110", "Unlock",
        ]

    def test_constant_comparison_strategies(self):
        bundle, params, game, labels = build(NOT_X)
        # the missing slot contributes no Controller strategy; the gateless
        # one does
        ctrl = labels["controller"]
        names = labels["strategies"][ctrl]
        assert names == ["LockS_0", "LockS[1,1,1]", "Reset1", "Reset2"]

    def test_mismatched_params_rejected(self):
        # the second bundle has as many gates as NOT_X's but two outputs,
        # so its M is larger than the one NOT_X's params carry
        gate = BundleGate(X(0), X(0))
        two_outputs = Bundle(1, 2, CircuitGraph((gate, gate), (0, 1)))
        for sized_for, bundle in (
            (AND_XY, derive_subcircuits(NOT_X)),
            (NOT_X, two_outputs),
        ):
            params = GadgetParams.for_bundle(derive_subcircuits(sized_for))
            with pytest.raises(ValidationError):
                build_flip_game(bundle, params)

    def test_hardness_mode_and_integer_values(self):
        _, _, game, _ = build(NAND_XY)
        assert game.mode == "hardness"
        for f in game.resources:
            assert all(c.denominator == 1 for c in f.coeffs)

    def test_two_output_circuit(self):
        # y1 = NAND(x1, x2), y2 = NOT x1: exercises cross-output trigger
        # copies, the higher-output equality conjuncts, and the gamma^2 rung
        circ = FlipInstance(2, [(X(0), X(1)), (X(0), X(0))], [0, 1])
        bundle, params, game, labels = build(circ)
        report = structural_check(game)
        assert report.passed and report.max_players_per_resource <= 2
        res = {n: game.resources[i] for i, n in enumerate(labels["resources"])}
        a = params.alpha
        assert res["One_2"].eval(1) == 4 * a**4 * params.gamma**2
        assert "TriggerY_1(Y_2)" in res
        assert "TriggerDoneY_1(Y_2)" in res
        for key, comp in bundle.comparisons.items():
            for g in comp.gates:
                for ref in (g.a, g.b):
                    assert not (ref[0] == "y" and ref[1] <= key[0])
        scaled = positivize(game, params.alpha)
        assert min(min(f.eval(1), f.eval(2)) for f in scaled.resources) >= 1


class TestEquilibriumCorrespondence:
    @pytest.mark.parametrize("circ", [NOT_X, NAND_XY, AND_XY], ids=["not", "nand", "and"])
    def test_equilibria_are_exactly_local_minima(self, circ):
        bundle, params, game, labels = build(circ)
        eqs = enumerate_equilibria(
            game, rho=1, budget=10**12, order=enumeration_order(labels)
        )
        assert eqs
        image = {tuple(read_input_bits(labels, s.choices)) for s in eqs}
        minima = {
            bits
            for bits in itertools.product((0, 1), repeat=circ.n_inputs)
            if flip_is_local_min(circ, list(bits))[0]
        }
        assert image == minima

    @pytest.mark.parametrize("rho", [F(1), F(3, 2), F(2)], ids=["1", "3/2", "2"])
    @pytest.mark.parametrize("circ", [NOT_X, NAND_XY, AND_XY], ids=["not", "nand", "and"])
    def test_same_equilibria_in_any_order(self, circ, rho):
        bundle, params, game, labels = build(circ, rho=rho)
        hubs_first = _auto_order(game)
        lists = [
            [s.choices for s in enumerate_equilibria(game, rho=rho, budget=10**12, order=o)]
            for o in (enumeration_order(labels), None, hubs_first[::-1])
        ]
        assert lists[0] and lists[1] == lists[0] and lists[2] == lists[0]

    def test_matches_naive_scan_on_smallest_game(self):
        for rho in (F(1), F(3, 2), F(2)):
            bundle, params, game, labels = build(NOT_X, rho=rho)
            fast = enumerate_equilibria(
                game, rho=rho, budget=10**6, order=enumeration_order(labels)
            )
            slow = naive_state_scan(game, rho, budget=10**6)
            assert [s.choices for s in fast] == [s.choices for s in slow]

    @pytest.mark.parametrize(
        "circ",
        [
            FlipInstance(3, [(X(0), X(0)), (X(0), G(0)), (X(1), X(2)), (X(0), G(2))], [3]),
            pytest.param(
                BREAKS,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="8 192 of 8 616 equilibria decode to x = (1, 0, 0), not a local minimum",
                ),
            ),
        ],
        ids=["holds", "breaks"],
    )
    def test_nineteen_gate_bundle_equilibria_are_local_minima(self, circ):
        # Bundles of 19 gates and 43 players, where the Controller shares a
        # resource with the last player.  The reduction is
        # not exact on all of them: three of the first four random 3-input,
        # 4-gate circuits with such bundles decode some equilibrium to a
        # non-minimum at rho = 1.  "holds" was picked among circuits that
        # pass: y = NAND(x1, NAND(x2, x3)), plus the gates NOT x1 and
        # NAND(x1, NOT x1) that no output reads.  "breaks" is
        # y = NAND(x3, NAND(x2, x1)); it passes once the reduction is mended.
        bundle, params, game, labels = build(circ, rho=F(1))
        assert (bundle.total_gates(), game.n_players) == (19, 43)
        eqs = enumerate_equilibria(
            game, rho=1, budget=10**30, order=enumeration_order(labels)
        )
        image = {tuple(read_input_bits(labels, s.choices)) for s in eqs}
        minima = {
            bits
            for bits in itertools.product((0, 1), repeat=3)
            if flip_is_local_min(circ, list(bits))[0]
        }
        assert image == minima

    def test_minimal_bundle_controller_rests_on_main_lock(self):
        bundle, params, game, labels = build(NOT_X)
        ctrl = labels["controller"]
        lock_main = labels["strategies"][ctrl].index("LockS_0")
        for s in enumerate_equilibria(
            game, rho=1, budget=10**6, order=enumeration_order(labels)
        ):
            assert s.choices[ctrl] == lock_main


class TestPositivize:
    def test_zero_values_become_one_rest_scaled(self):
        big = 2**20
        game = CongestionGame(
            [[-big, big], [3, 2]], [[[0]], [[0], [1]]], mode="hardness"
        )
        out = positivize(game, alpha=2)  # scale = 2 resources * alpha = 4
        assert (out.resources[0].eval(1), out.resources[0].eval(2)) == (1, 4 * big)
        assert (out.resources[1].eval(1), out.resources[1].eval(2)) == (20, 28)

    def test_built_game_values_all_positive(self):
        _, params, game, _ = build(NAND_XY)
        out = positivize(game, params.alpha)
        for f in out.resources:
            assert f.eval(1) >= 1 and f.eval(2) >= 1

    def test_strict_preferences_preserved(self):
        _, params, game, _ = build(NOT_X)
        out = positivize(game, params.alpha)
        rng = random.Random(4)
        compared = 0
        while compared < 1000:
            s = sample_state(game, rng)
            u = rng.randrange(game.n_players)
            if len(game.players[u]) < 2:
                continue
            a, b = rng.sample(range(len(game.players[u])), 2)
            before = game.deviation_cost(s, u, a) - game.deviation_cost(s, u, b)
            s2 = State.of(out, s.choices)
            after = out.deviation_cost(s2, u, a) - out.deviation_cost(s2, u, b)
            if before != 0:
                assert (before > 0) == (after > 0)
                compared += 1

    def test_requires_hardness_mode(self):
        g = generate(GenSpec(seed=0, n_players=2, n_resources=2,
                             strategies_per_player=1, strategy_size=(1, 1)))
        with pytest.raises(ValidationError):
            positivize(g, 2)

    def test_alpha_floor(self):
        game = CongestionGame([[1, 0]], [[[0]]], mode="hardness")
        with pytest.raises(ValidationError):
            positivize(game, 1)


class TestBundleValidation:
    def test_output_count_must_match(self):
        graph = CircuitGraph((BundleGate(X(0), X(0)),), (0,))
        with pytest.raises(ValidationError):
            Bundle(1, 2, graph)

    def test_comparison_needs_single_output(self):
        graph = CircuitGraph((BundleGate(X(0), X(0)),), (0,))
        double = CircuitGraph((BundleGate(X(0), X(0)),), (0, 0))
        with pytest.raises(ValidationError):
            Bundle(1, 1, graph, {(0, 0, 1): double})

    def test_refs_checked_against_bundle_sizes(self):
        for bad in (X(1), ("y", 1), G(0), ("z", 0)):
            graph = CircuitGraph((BundleGate(X(0), bad),), (0,))
            with pytest.raises(ValidationError, match="^main circuit: gate 0 "):
                Bundle(1, 1, graph)
        main = CircuitGraph((BundleGate(X(0), X(0)),), (0,))
        comp = CircuitGraph((BundleGate(("y", 3), X(0)),), (0,))
        with pytest.raises(ValidationError):
            Bundle(1, 1, main, {(0, 0, 1): comp})

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: d["main"]["gates"][0].update(a={"x": 3}), id="x-range"),
        pytest.param(lambda d: d["main"]["gates"][1].update(a={"y": 7}), id="y-range"),
        pytest.param(lambda d: d["main"]["gates"][0].update(a={"x": 0.5}), id="x-half"),
        pytest.param(lambda d: d["main"]["gates"][0].update(a={"x": "0"}), id="x-str"),
        pytest.param(lambda d: d["main"].update(outputs=[0.7]), id="output-frac"),
        pytest.param(lambda d: d.update(inputs=1.5), id="inputs-frac"),
        pytest.param(lambda d: d["comparisons"].update({"0,0,1": {
            "gates": [{"a": {"x": 3}, "b": {"x": 0}}], "outputs": [0]}}),
            id="comparison-x-range"),
        pytest.param(lambda d: d["comparisons"].update({"a,b,c": {"const": 1}}),
                     id="key-letters"),
        pytest.param(lambda d: d["comparisons"].update({"0,0": {"const": 1}}),
                     id="key-short"),
        pytest.param(lambda d: d["comparisons"].update({"0,0,0,0": {"const": 1}}),
                     id="key-long"),
        pytest.param(lambda d: d["comparisons"].update({"0,5,1": {"const": 1}}),
                     id="key-range"),
        pytest.param(lambda d: d["comparisons"].update({"00,0,1": {"const": 0}}),
                     id="key-alias"),
        pytest.param(lambda d: d["comparisons"].update({"0,5,1": {"const": 0}}),
                     id="key-range-const-zero"),
        pytest.param(lambda d: d["comparisons"].update({"0,0,1": {"const": 0.5}}),
                     id="const-frac"),
        pytest.param(lambda d: d["comparisons"].update({"0,0,1": {"const": 2}}),
                     id="const-two"),
        pytest.param(lambda d: d["comparisons"].update({"0,0,1": {
            "const": 1, "gates": [{"a": {"y": 0}, "b": {"y": 0}}], "outputs": [0]}}),
            id="const-and-gates"),
        pytest.param(lambda d: d["comparisons"].update({"0,0,1": {
            "const": 0, "gates": "junk"}}), id="const-and-junk-gates"),
        pytest.param(lambda d: d.pop("main"), id="main-missing"),
        pytest.param(lambda d: d.update(comparisons=[]), id="comparisons-list"),
    ])
    def test_bundle_document_rejected(self, edit):
        doc = bundle_to_dict(derive_subcircuits(NOT_X))
        assert bundle_from_dict(doc) == derive_subcircuits(NOT_X)
        edit(doc)
        with pytest.raises(ValidationError):
            bundle_from_dict(doc)

    @pytest.mark.parametrize("key, ref", [
        pytest.param((0, 0, 1), X(0), id="reads-x_i"),
        pytest.param((0, 0, 1), ("y", 0), id="reads-y_j"),
        pytest.param((1, 0, 1), ("y", 0), id="reads-lower-y"),
    ])
    def test_comparison_interface_enforced(self, key, ref):
        # Comparison (j, i, b) may read every x but x_i and only y_j' with
        # j' > j, whether built in code or read from a document.
        main = CircuitGraph((BundleGate(X(0), X(1)), BundleGate(X(1), X(0))), (0, 1))
        reading = lambda r: CircuitGraph((BundleGate(X(1), r),), (0,))
        Bundle(2, 2, main, {(0, 0, 1): reading(("y", 1))})  # a higher output
        doc = bundle_to_dict(Bundle(2, 2, main, {key: reading(X(1))}))
        message = re.escape(f"comparison {key}: gate 0 reads") + ".* may not read"
        with pytest.raises(ValidationError, match=message):
            Bundle(2, 2, main, {key: reading(ref)})
        doc["comparisons"]["{},{},{}".format(*key)]["gates"][0]["b"] = {ref[0]: ref[1]}
        with pytest.raises(ValidationError, match=message):
            bundle_from_dict(doc)

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: BundleGate(X(0), X(0), ()), "at least one lock variant",
                     id="gate-without-variants"),
        pytest.param(lambda: FlipInstance(1, [], [0]), "at least one gate",
                     id="circuit-without-gates"),
        pytest.param(lambda: FlipInstance(1, [(X(0), X(0))], []), "at least one output",
                     id="circuit-without-outputs"),
        pytest.param(lambda: Bundle(1, 1, CircuitGraph((BundleGate(X(0), X(0)),), (0,)),
                                    {(0, 0, 1): 2}),
                     r"comparison \(0, 0, 1\) must be a CircuitGraph", id="const-two"),
        pytest.param(lambda: Bundle(1, 1, CircuitGraph((BundleGate(X(0), X(0)),), (0,)),
                                    {(0, 0, 1): CircuitGraph((), (0,))}),
                     r"comparison \(0, 0, 1\): designated output 0 is not a gate",
                     id="gateless-with-output"),
        pytest.param(lambda: Bundle(1, 1, CircuitGraph((BundleGate(X(0), X(0)),), (0,)),
                                    {(0.0, 0, 1): CircuitGraph((), ())}),
                     "bad comparison key", id="key-not-int"),
        pytest.param(lambda: GadgetParams(2, 8, 8, 64), "scale ladder violated",
                     id="ladder-not-increasing"),
    ])
    def test_constructor_refuses(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValidationError):
            BundleGate(X(0), X(0), ("111",))

    def test_variants_literal_set(self):
        assert ALL_VARIANTS == ("001", "101", "011", "110")

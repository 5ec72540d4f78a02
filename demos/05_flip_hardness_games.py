"""From a NAND circuit to a congestion game meant to encode Flip minima.

Flip: given a circuit over input bits, minimize the weighted output value
under single-bit flips.  The builder turns a circuit bundle into a game with
affine latencies (negative offsets allowed) in which every resource is
shared by at most two players.  Its exact equilibria are meant to encode the
circuit's local minima, read off the input players' strategies; that is
checked by enumeration on small bundles such as this one, and it is known to
fail on y = NAND(x3, NAND(x2, x1)) (ROADMAP item 8).
"""

import itertools

from congames import State, enumerate_equilibria
from congames.hardness import (
    FlipInstance,
    GadgetParams,
    build_flip_game,
    derive_subcircuits,
    enumeration_order,
    flip_is_local_min,
    flip_objective,
    positivize,
    read_input_bits,
    structural_check,
)

# y = NAND(x1, x2); objective = y, so minima are (1,1) and the all-neighbors-
# tie point (0,0).
circuit = FlipInstance(2, [(("x", 0), ("x", 1))], [0])
for bits in itertools.product((0, 1), repeat=2):
    is_min, _ = flip_is_local_min(circuit, list(bits))
    print(f"x={bits}: objective {flip_objective(circuit, list(bits))}"
          f"{'  <- local minimum' if is_min else ''}")

bundle = derive_subcircuits(circuit)
params = GadgetParams.for_bundle(bundle)
print(
    f"\nbundle: {bundle.total_gates()} gates; scales alpha={params.alpha} "
    f"beta={params.beta} gamma={params.gamma} M={params.big_m}"
)

game, labels = build_flip_game(bundle, params)
print(f"game: {game.n_players} players, {game.n_resources} resources")
print("structural check (<= 2 players per resource):",
      structural_check(game).passed)

eqs = enumerate_equilibria(
    game, rho=1, budget=10**9, order=enumeration_order(labels)
)
seen = sorted({tuple(read_input_bits(labels, s.choices)) for s in eqs})
print(f"{len(eqs)} exact equilibria; input vectors displayed: {seen}")

sample = eqs[0]
print("one equilibrium in gadget terms:")
for player, choice in enumerate(sample.choices):
    print(f"  {labels['players'][player]:>7} -> {labels['strategies'][player][choice]}")

# Zero latency values can be removed without changing any strict preference:
# zeros become 1 and every other value is scaled by |E| * alpha.
scaled = positivize(game, params.alpha)
assert all(f.eval(1) >= 1 and f.eval(2) >= 1 for f in scaled.resources)
s0 = State.of(scaled, sample.choices)
print("positivized game still has the sample state as an equilibrium:",
      all(scaled.deviation_cost(s0, u, a) >= scaled.player_cost(s0, u)
          for u in range(scaled.n_players)
          for a in range(len(scaled.players[u]))))

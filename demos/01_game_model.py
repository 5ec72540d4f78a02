"""Tour of the exact-arithmetic game model.

Builds a small congestion game by hand, inspects loads, costs, and the
potential, and shows how a frozen-player subgame view rewrites latencies.
"""

from fractions import Fraction as F

from congames import CongestionGame, SubgameView, aggregate_metrics

# Three commuters, three roads.  Road latencies are polynomials in the number
# of users: road 0 is f(x) = x, road 1 is f(x) = 1 + x/2, road 2 is constant 3.
game = CongestionGame(
    resources=[[0, 1], [1, F(1, 2)], [3]],
    players=[
        [[0], [1]],        # commuter 0 picks road 0 or road 1
        [[0], [2]],        # commuter 1 picks road 0 or road 2
        [[0, 1], [2]],     # commuter 2 uses roads 0+1 together, or road 2
    ],
)

state = game.state([0, 0, 0])  # everyone piles onto road 0
print("loads:", state.loads)
for u in range(game.n_players):
    print(f"  commuter {u} pays {game.player_cost(state, u)}")

print("potential:", game.potential(state))
lat, pot, tot = aggregate_metrics(game, state)
print(f"latency sum {lat} <= potential {pot} <= total cost {tot}")

# What would commuter 0 pay on road 1?  Loads are adjusted only on the
# symmetric difference of the two strategies, and the arithmetic is exact.
print("commuter 0 deviating to road 1 would pay:", game.deviation_cost(state, 0, 1))

# The potential is cost-revealing: a unilateral move changes it by exactly
# the mover's cost change.
moved = state.apply(game, 0, 1)
print(
    "potential delta:",
    game.potential(moved) - game.potential(state),
    "== cost delta:",
    game.player_cost(moved, 0) - game.player_cost(state, 0),
)

# Freeze commuters 1 and 2 where they stand; commuter 0 sees the same costs
# in the restricted game, whose latencies absorb the frozen load.
view = SubgameView.freeze(game, state, active=[0])
print("subgame potential (only commuter 0 active):", view.potential(state))
print("subgame cost matches full game:", view.player_cost(state, 0) == game.player_cost(state, 0))

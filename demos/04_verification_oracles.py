"""Exhaustive verification oracles and the randomized identity audit."""

from fractions import Fraction as F

from congames import (
    GenSpec,
    approximation_factor,
    audit_identities,
    brute_min_potential,
    enumerate_equilibria,
    generate,
)

game = generate(
    GenSpec(
        seed=31,
        n_players=4,
        n_resources=5,
        strategies_per_player=3,
        strategy_size=(1, 2),
        degree=1,
        coeff_range=(0, 4),
    )
)

# Global potential minimum by exhaustive enumeration (refuses, rather than
# samples, when the state space exceeds its budget).
opt_state, phi_min = brute_min_potential(game)
print("minimum potential:", phi_min, "at", opt_state.choices)

# All exact equilibria, then all 3/2-approximate states.
exact = enumerate_equilibria(game, rho=1)
print(f"{len(exact)} exact equilibria:")
for s in exact:
    phi = game.potential(s)
    print(f"  {s.choices} potential {phi}  (ratio to optimum: {phi/phi_min})")
loose = enumerate_equilibria(game, rho=F(3, 2))
print(f"{len(loose)} states are 3/2-approximate equilibria")

# The verifier reports the exact worst improvement ratio with a witness.
report = approximation_factor(game, game.state([0] * 4))
print(
    "all-first-strategies state: rho* =", report.rho_star_str(),
    " witness (player, strategy):", report.witness,
)

# Randomized audit of the potential identities; these are theorems for
# standard-mode games, so the violation lists must stay empty.
audit = audit_identities(game, seed=0, trials=500)
print("audit violations:", audit.total_violations)
print("q-approximate potential ratio observed:", audit.max_ratio_observed)

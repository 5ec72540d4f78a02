"""Seeded input families that the package's own generators do not provide.

* Tiered games: player groups whose latencies are scaled by powers of the
  solver's block base B = 2^(d+1) n^(2 psi + d + 1), so the phased solver
  sees m >= 3 blocks.  Some strategies reach into the next (cheaper) tier,
  so moves in one block change the loads the next block sees.
* NAND circuits for the Flip workload, written in the circuit JSON format.

Both are plain JSON documents; the package only ever sees the files.
"""

from __future__ import annotations

import random

PSI = 1  # the solver's psi in the solve workload; the block base depends on it
TIERS = 3
D = 1  # latency degree of the tiered games


def tiered_game(rng: random.Random, n: int) -> dict:
    """Instance document of an n-player tiered game (standard mode, d = D).

    Group t's latencies are scaled by B^(TIERS-1-t).  Every player of a group
    has the group's hub resource (latency scale * x) as strategy 0, a private
    resource (2 * scale * x) as strategy 1, and one or two random strategies
    over the group's shared resources (latency c * scale * x, c in 1..3);
    about half of those also use one shared resource of the next group.  No
    solo choice is cheaper than the hub, so every optimistic cost is exactly
    the group's scale and group t is block t+1.  All players start on their
    hub (ties go to the lowest index), so with
    at least five players per group the first group makes p-moves in phase 1
    and the last makes q-moves in phase 2: m = TIERS and at least two phases
    have moves.
    """
    base = 2 ** (D + 1) * n ** (2 * PSI + D + 1)
    sizes = [n // TIERS + (1 if t < n % TIERS else 0) for t in range(TIERS)]
    resources: list[dict] = []

    def resource(coeffs: list[int]) -> int:
        resources.append({"coeffs": [str(c) for c in coeffs]})
        return len(resources) - 1

    hubs, shared = [], []
    for t, size in enumerate(sizes):
        scale = base ** (TIERS - 1 - t)
        hubs.append(resource([0, scale]))
        shared.append([
            resource([0, rng.randint(1, 3) * scale])
            for _ in range(max(3, size // 4))
        ])
    players = []
    for t, size in enumerate(sizes):
        scale = base ** (TIERS - 1 - t)
        for _ in range(size):
            private = resource([0, 2 * scale])
            strategies = [[hubs[t]], [private]]
            wanted = 2 + rng.randint(1, 2)
            while len(strategies) < wanted:
                strat = set(rng.sample(shared[t], rng.randint(1, 2)))
                if t + 1 < TIERS and rng.random() < 0.5:
                    strat.add(rng.choice(shared[t + 1]))
                if sorted(strat) not in strategies:
                    strategies.append(sorted(strat))
            players.append({"strategies": strategies})
    return {"mode": "standard", "resources": resources, "players": players}


def random_circuit(rng: random.Random, n_inputs: int, n_gates: int) -> dict:
    """Circuit document with one output: each gate is a NAND of two earlier inputs or gates."""
    gates = []
    for k in range(n_gates):
        refs = [{"x": i} for i in range(n_inputs)] + [{"g": j} for j in range(k)]
        gates.append({"a": rng.choice(refs), "b": rng.choice(refs)})
    return {"inputs": n_inputs, "gates": gates, "outputs": [rng.randrange(n_gates)]}

"""Phased best-response solver computing O(1)-approximate equilibria.

The schedule groups players into blocks by the magnitude of their optimistic
cost (the cost they would pay alone), then runs one phase per block: during
phase i, block-i players may make p-moves and block-(i+1) players may make
q-moves, always executing a full best response.  Parameters p and q are tied
to the worst-case ratio theta_d(q) between the potential of a q-approximate
state and the optimal potential; for linear games theta_1(q) = 2q/(2-q) is
exact, while for degree >= 2 the caller must supply a ratio bound explicitly
(only an existential bound of the d^O(d) type is known, with no usable
constant).

The phases drive one `dynamics.Walk`, which owns the state, the potential,
the move log and the cached threshold checks of the whole run.  The final
state is a p(1 + 4/n^psi)-approximate equilibrium, and the number of executed
moves is polynomial in n; both facts are re-checked by the test suite with
the exact verifier.

All block arithmetic is exact: membership is decided by comparing costs
with exact powers of the base (see `partition_blocks`), never by floating
logarithms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .core import CongestionGame, State, Value, format_rational, to_fraction, to_integer
from .dynamics import RunTrace, Walk, optimistic_cost
from .errors import ContractViolationError, ParameterError, ValidationError

SCHEDULERS = ("scan", "random")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for `solve`.

    psi steers the accuracy/effort trade-off (larger psi, tighter guarantee,
    more moves).  theta_override is mandatory for games of degree >= 2 and
    must exceed 1; a linear game ignores it and uses the exact 2q/(2-q).
    The default scheduler "scan" picks the lowest-index eligible block-i
    player, else the lowest-index eligible block-(i+1) player; "random"
    picks uniformly among all eligible players using `seed`.
    psi, move_cap and seed must be integers (3.0 becomes 3; True and 2.5
    are refused).
    """

    psi: int = 1
    theta_override: Optional[Fraction] = None
    move_cap: Optional[int] = None
    scheduler: str = "scan"
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "psi", to_integer(self.psi, "psi", least=1))
        if self.theta_override is not None:
            override = to_fraction(self.theta_override)
            if override <= 1:
                raise ValidationError(
                    f"theta override must exceed 1, got {format_rational(override)}"
                )
            object.__setattr__(self, "theta_override", override)
        if self.scheduler not in SCHEDULERS:
            raise ValidationError(
                f"scheduler must be one of {SCHEDULERS}, got {self.scheduler!r}"
            )
        if self.move_cap is not None:
            cap = to_integer(self.move_cap, "move_cap", least=0)
            object.__setattr__(self, "move_cap", cap)
        if self.seed is not None:
            object.__setattr__(self, "seed", to_integer(self.seed, "seed"))


def theta(d: int, q: Fraction) -> Fraction:
    """Potential ratio bound for q-approximate states of degree-d games.

    Degree <= 1: exactly 2q/(2-q), valid for q in [1, 2).  Degree >= 2 has
    no concrete constant to compute, only an existential d^O(d)-type bound,
    so it raises; `parameters` then needs `SolverConfig.theta_override`.
    """
    q = to_fraction(q)
    if d <= 1:
        if not (1 <= q < 2):
            raise ParameterError(
                f"linear ratio bound needs 1 <= q < 2, got {format_rational(q)}"
            )
        return 2 * q / (2 - q)
    raise ParameterError(
        f"degree {d} >= 2 requires an explicit theta override: no concrete "
        "potential-ratio constant is available for polynomial latencies, "
        "only an existential d^O(d) bound"
    )


def parameters(
    n: int, d: int, config: SolverConfig
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (q, p, theta) for an n-player degree-d game.

    q = 1 + n^-psi and p = (1/theta_d(q) - n^-psi)^-1, where theta_d(q) is
    `config.theta_override` for d >= 2.  Fails when p would be non-positive,
    i.e. the instance is too small for the chosen psi.
    """
    if n < 2:
        raise ParameterError(f"need at least 2 players, got {n}")
    eps = Fraction(1, n**config.psi)
    q = 1 + eps
    override = config.theta_override
    th = theta(d, q) if d <= 1 or override is None else override
    denom = 1 / th - eps
    if denom <= 0:
        raise ParameterError(
            f"instance too small for psi={config.psi}: 1/theta = "
            f"{format_rational(1 / th)} does not exceed n^-psi = "
            f"{format_rational(eps)}"
        )
    return q, 1 / denom, th


def partition_blocks(
    ells: Sequence[Value], n: int, d: int, psi: int
) -> tuple[int, list[list[int]]]:
    """Exact block assignment from per-player optimistic costs.

    Returns (base, blocks) with base B = 2^(d+1) n^(2 psi + d + 1); blocks[i-1]
    lists block i's players in index order.  With l_max and l_min the largest
    and smallest positive costs there are m = 1 + ceil(log_B(l_max / l_min))
    blocks, the last possibly empty, and a player of cost l > 0 is in the
    first block i <= m with l B^i > l_max, so block i holds the costs in
    (l_max B^-i, l_max B^(1-i)].  Players of cost zero are in no block, and
    when every cost is zero there are no blocks.

    The test multiplies instead of dividing: l_max / B^i would be a float for
    int costs, while l B^i > l_max is exact for ints and Fractions alike.
    """
    if any(ell < 0 for ell in ells):
        raise ValidationError("optimistic costs must be non-negative")
    base = 2 ** (d + 1) * n ** (2 * psi + d + 1)
    positive = [ell for ell in ells if ell]
    if not positive:
        return base, []
    ell_max, reach = max(positive), min(positive)
    powers = [base]  # B^1 .. B^m
    while reach < ell_max:
        reach *= base
        powers.append(powers[-1] * base)

    blocks: list[list[int]] = [[] for _ in powers]
    for u, ell in enumerate(ells):
        if ell:
            for block, power in zip(blocks, powers):
                if ell * power > ell_max:
                    block.append(u)
                    break
            else:
                raise ContractViolationError(
                    f"player {u} fell below block {len(blocks)}: ell={ell}"
                )
    return base, blocks


def approximation_bound(n: int, psi: int, p: Fraction) -> Fraction:
    """Guaranteed factor of the computed state: p(1 + 4 n^-psi)."""
    return p * (1 + Fraction(4, n**psi))


def move_bound(n: int, d: int, psi: int) -> int:
    """Explicit ceiling on executed moves: first-phase term, later phases, init."""
    first = 2 ** (2 * d + 2) * n ** (5 * psi + 3 * d + 3)
    later = n * 2 ** (d + 2) * n ** (4 * psi + 2 * d + 2)
    return first + later + n


def default_move_cap(n: int, d: int, psi: int) -> int:
    """Four times the dominant term of the move bound; breaching it is a bug."""
    return 4 * 2 ** (2 * d + 2) * n ** (5 * psi + 3 * d + 3)


def solve(game: CongestionGame, config: Optional[SolverConfig] = None) -> RunTrace:
    """Run the phased schedule and return the full move trace.

    Starts every player on her solo best response, partitions players into
    blocks, then executes one phase per non-empty block in increasing order.
    Phase i ends when no block-i player has a p-move and no block-(i+1)
    player has a q-move.  The loop deliberately includes a final phase for
    the last block: when the previous phase ran, it is a provable no-op, and
    on single-block partitions (all optimistic costs equal) it is what
    equilibrates the only block.

    The run is one `Walk`, which keeps the state, potential, move log and
    threshold results: after a move only the players sharing a resource with
    the mover's old or new strategy are checked again, and the schedulers see
    exactly the eligible sets a full rescan would find.

    The returned trace records exact costs and potentials per move, phase
    summaries, parameters, and the guarantee bound p(1 + 4 n^-psi).
    """
    if config is None:
        config = SolverConfig()
    if game.mode != "standard":
        raise ValidationError("solver requires a standard-mode game")
    n = game.n_players
    d = max(1, game.degree)
    psi = config.psi
    rng = random.Random(config.seed)

    ells: list[Value] = []
    initial_choices: list[int] = []
    for u in range(n):
        ell, idx = optimistic_cost(game, u)
        ells.append(ell)
        initial_choices.append(idx)

    walk = Walk(game, State.of(game, initial_choices))

    params: dict = {
        "n": n,
        "d": d,
        "psi": psi,
        "scheduler": config.scheduler,
    }
    if config.seed is not None:
        params["seed"] = config.seed

    base, blocks = partition_blocks(ells, n, d, psi)
    block_of: list[Optional[int]] = [None] * n
    for i, block in enumerate(blocks, 1):
        for u in block:
            block_of[u] = i
    params["base"] = base
    params["m"] = len(blocks)
    params["block_of"] = block_of
    params["zero_players"] = [u for u, ell in enumerate(ells) if ell == 0]

    if not blocks:
        # Every optimistic cost is zero: the initial state costs 0 to all.
        params["degenerate"] = True
        return walk.trace(phases=[], parameters=params)

    q, p, th = parameters(n, d, config)
    cap = (
        config.move_cap
        if config.move_cap is not None
        else default_move_cap(n, d, psi)
    )
    params.update(
        {
            "q": format_rational(q),
            "p": format_rational(p),
            "theta": format_rational(th),
            "bound": format_rational(approximation_bound(n, psi, p)),
            "move_cap": cap,
        }
    )

    phases: list[dict] = []
    for i, block_i in enumerate(blocks, 1):
        if not block_i:
            continue
        block_next = blocks[i] if i < len(blocks) else []
        phase_start = len(walk.moves)
        while True:
            eligible = chain(walk.eligible(block_i, p), walk.eligible(block_next, q))
            if config.scheduler == "scan":
                chosen = next(eligible, None)
            else:
                candidates = list(eligible)
                chosen = (
                    candidates[rng.randrange(len(candidates))] if candidates else None
                )
            if chosen is None:
                break
            if len(walk.moves) + 1 > cap:
                raise ContractViolationError(
                    f"move cap {cap} exceeded in phase {i}; the schedule "
                    "should terminate well below it"
                )
            walk.move(*chosen, phase=i)
        phase_moves = len(walk.moves) - phase_start
        phases.append({"i": i, "block_size": len(block_i), "moves": phase_moves})

    return walk.trace(phases=phases, parameters=params)

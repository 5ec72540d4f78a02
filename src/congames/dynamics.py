"""Best-response oracles, threshold-move detection, and baseline dynamics.

A q-move (q >= 1) is a deviation that beats the current cost by a factor
strictly larger than q: new_cost < current_cost / q.  Eligibility is decided
by that threshold, but an executed move is always the full best response,
which makes recorded traces deterministic.

Every executed move logs exact before/after costs and potentials; the
potential difference equals the cost difference move by move.

Best responses compare the unwrapped table sums of `cost_sums` (ints for
integral games) and the threshold test is one cross-multiplication.  Both
`epsilon_br_dynamics` and the phased solver keep an `EligibilityCache`:
a player's threshold answer is recomputed only after a move changed the load
on one of her resources.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Optional

from .core import CongestionGame, GameLike, State, to_fraction
from .errors import ValidationError
from .serialize import format_rational, json_text


@dataclass(frozen=True)
class MoveRecord:
    """One executed improvement move with exact bookkeeping."""

    player: int
    from_strategy: int
    to_strategy: int
    cost_before: Fraction
    cost_after: Fraction
    potential_before: Fraction
    potential_after: Fraction
    phase: Optional[int] = None

    def to_dict(self) -> dict:
        doc = {
            "player": self.player,
            "from": self.from_strategy,
            "to": self.to_strategy,
            "cost_before": format_rational(self.cost_before),
            "cost_after": format_rational(self.cost_after),
            "potential_before": format_rational(self.potential_before),
            "potential_after": format_rational(self.potential_after),
        }
        if self.phase is not None:
            doc["phase"] = self.phase
        return doc


@dataclass
class RunTrace:
    """Ordered move log of one dynamics or solver run."""

    initial_state: tuple[int, ...]
    final_state: tuple[int, ...]
    final_potential: Fraction
    moves: list[MoveRecord] = field(default_factory=list)
    truncated: bool = False
    phases: Optional[list[dict]] = None
    parameters: Optional[dict] = None

    @property
    def n_moves(self) -> int:
        return len(self.moves)

    def to_dict(self) -> dict:
        doc: dict = {
            "summary": {
                "moves": self.n_moves,
                "final_potential": format_rational(self.final_potential),
                "final_state": list(self.final_state),
            },
            "initial_state": list(self.initial_state),
            "truncated": self.truncated,
        }
        if self.parameters is not None:
            doc["parameters"] = self.parameters
        if self.phases is not None:
            doc["phases"] = self.phases
        doc["moves"] = [
            dict(m.to_dict(), step=i) for i, m in enumerate(self.moves)
        ]
        return doc

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def write_json(self, path: str) -> None:
        text = self.to_json()  # before opening: a failed conversion leaves no file
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)

    def write_csv(self, fp: IO[str]) -> None:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["step", "player", "cost_before", "cost_after", "potential"])
        for i, m in enumerate(self.moves):
            writer.writerow(
                [
                    i,
                    m.player,
                    format_rational(m.cost_before),
                    format_rational(m.cost_after),
                    format_rational(m.potential_after),
                ]
            )


def optimistic_cost(game: CongestionGame, u: int) -> tuple[Fraction, int]:
    """Minimum cost u could have alone in the game, with its argmin strategy.

    Returns (cost, strategy index); ties break toward the lowest index.
    """
    if game.mode != "standard":
        raise ValidationError("optimistic cost is defined for standard mode")
    table = game.latency_table
    costs = [sum(table[e][1] for e in strat) for strat in game.players[u]]
    best_cost = min(costs)
    return Fraction(best_cost), costs.index(best_cost)


def best_response(game: GameLike, state: State, u: int) -> tuple[int, Fraction]:
    """Globally cheapest deviation for u, ties broken by lowest index.

    The current strategy participates in the minimum, so the returned cost is
    never above the current cost.  The minimum is taken over the unwrapped
    table sums (`cost_sums`); only the winner becomes a Fraction.
    """
    costs = game.cost_sums(state, u)
    best = min(costs)
    return costs.index(best), Fraction(best)


def find_threshold_move(
    game: GameLike, state: State, u: int, q: Fraction
) -> Optional[tuple[int, Fraction]]:
    """Best response of u if it improves on the current cost by more than q.

    Returns (strategy index, new cost) when best_cost < current_cost / q
    strictly, else None.  A zero-cost player never has a threshold move.
    """
    q = to_fraction(q)
    if q < 1:
        raise ValidationError(f"threshold factor must be >= 1, got {q}")
    current = game.player_cost(state, u)
    if current == 0:
        return None
    idx, cost = best_response(game, state, u)
    # cost < current / q, cross-multiplied in integers; cost and current have
    # denominator 1 when the game's latencies are integral.
    if (
        cost.numerator * q.numerator * current.denominator
        < current.numerator * q.denominator * cost.denominator
    ):
        return idx, cost
    return None


def apply_move(
    game: CongestionGame,
    state: State,
    potential: Fraction,
    u: int,
    idx: int,
    new_cost: Fraction,
    moves: list[MoveRecord],
    phase: Optional[int] = None,
) -> tuple[State, Fraction]:
    """Move u to strategy idx, log the move, return the new state and potential.

    The potential is updated by the mover's cost change (Rosenthal's
    identity), not recomputed.
    """
    old_cost = game.player_cost(state, u)
    new_potential = potential + (new_cost - old_cost)
    record = MoveRecord(
        u, state.choices[u], idx, old_cost, new_cost, potential, new_potential, phase
    )
    moves.append(record)
    return state.apply(game, u, idx), new_potential


class EligibilityCache:
    """Each checked player's `find_threshold_move` result at the current state.

    Whether v has a threshold move depends only on v's own choice and the
    loads on the resources of v's strategies.  A move of u from `old` to
    `new` changes loads only on old | new, so only the players in
    `game.users[e]` for those e (u among them) can get a different answer;
    `move` forgets exactly those entries, including cached Nones.  Results
    are keyed by player alone, so a cached entry may be reused under a
    larger threshold factor only when it is None: no move beats q implies
    none beats p > q.  That is the only reuse `solver.solve` makes: when
    phase i ends, every block-(i+1) entry is None under q, block i+1 is
    checked next under p, and no player of a later block has been checked.
    """

    def __init__(self, game: CongestionGame):
        self.game = game
        self.results: dict[int, Optional[tuple[int, Fraction]]] = {}

    def check(
        self, state: State, u: int, q: Fraction
    ) -> Optional[tuple[int, Fraction]]:
        """find_threshold_move(game, state, u, q), reusing a cached result."""
        results = self.results
        if u not in results:
            results[u] = find_threshold_move(self.game, state, u, q)
        return results[u]

    def move(
        self,
        state: State,
        potential: Fraction,
        u: int,
        found: tuple[int, Fraction],
        moves: list[MoveRecord],
        phase: Optional[int] = None,
    ) -> tuple[State, Fraction]:
        """`apply_move` for u's threshold move `found`; forget whom it touched."""
        game, results = self.game, self.results
        idx, new_cost = found
        strats = game.players[u]
        for e in {*strats[state.choices[u]], *strats[idx]}:
            for v in game.users[e]:
                results.pop(v, None)
        return apply_move(game, state, potential, u, idx, new_cost, moves, phase)


def epsilon_br_dynamics(
    game: CongestionGame,
    state0: State,
    epsilon: Fraction,
    move_cap: int = 100_000,
    order: str = "roundrobin",
    seed: Optional[int] = None,
) -> RunTrace:
    """(1+eps)-improvement best-response dynamics from `state0`.

    Players are scanned round-robin by index (or in seeded random order per
    sweep); a player moves when she has a (1+eps)-move, and then executes her
    full best response.  Stops when a whole sweep finds no move, or the cap
    is hit (the trace is then flagged truncated, which is not an error).
    An `EligibilityCache` skips the players no move has touched since their
    last check.
    """
    epsilon = to_fraction(epsilon)
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if game.mode != "standard":
        raise ValidationError("dynamics require a standard-mode game")
    if order not in ("roundrobin", "random"):
        raise ValidationError(f"unknown order {order!r}")
    q = 1 + epsilon
    rng = random.Random(seed)

    state = state0
    potential = game.potential(state)
    moves: list[MoveRecord] = []
    cache = EligibilityCache(game)
    truncated = False
    while True:
        players = list(range(game.n_players))
        if order == "random":
            rng.shuffle(players)
        moved = False
        for u in players:
            found = cache.check(state, u, q)
            if found is None:
                continue
            state, potential = cache.move(state, potential, u, found, moves)
            moved = True
            if len(moves) >= move_cap:
                truncated = True
                break
        if truncated or not moved:
            break

    return RunTrace(
        initial_state=state0.choices,
        final_state=state.choices,
        final_potential=potential,
        moves=moves,
        truncated=truncated,
    )

"""Best-response oracles, threshold-move detection, and baseline dynamics.

A q-move (q >= 1) is a deviation that beats the current cost by a factor
strictly larger than q: new_cost < current_cost / q.  Eligibility is decided
by that threshold, but an executed move is always the full best response,
which makes recorded traces deterministic.

Every executed move logs exact before/after costs and potentials; the
potential difference equals the cost difference move by move.

Costs and potentials stay unwrapped table sums (`core.Value`: ints for
integral games, Fractions otherwise) from the best response to the printed
trace.  A threshold check asks for the best response first: when it is the
current strategy there is no move, and the current cost is never read.
Otherwise the test is one cross-multiplication of integers.  Both
`epsilon_br_dynamics` and the phased solver drive a `Walk`, which owns the
current state and potential, the move log and the threshold results: a
player's threshold answer is recomputed only after a move changed the load on
one of her resources.  A walk updates its potential by the mover's table
sums, in integers for an integral game.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterable, Iterator, Optional

from .core import (
    CongestionGame,
    State,
    Value,
    as_value,
    to_factor,
    to_fraction,
    to_integer,
)
from .errors import ValidationError
from .serialize import format_rational, json_text, write_json


@dataclass(frozen=True)
class MoveRecord:
    """One executed improvement move with exact bookkeeping.

    Costs and potentials are `Value`s: ints for an integral game.
    """

    player: int
    from_strategy: int
    to_strategy: int
    cost_before: Value
    cost_after: Value
    potential_before: Value
    potential_after: Value
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
    """Ordered move log of one dynamics or solver run; the potential is a `Value`."""

    initial_state: tuple[int, ...]
    final_state: tuple[int, ...]
    final_potential: Value
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
        write_json(self.to_dict(), path)

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


def optimistic_cost(game: CongestionGame, u: int) -> tuple[Value, int]:
    """Minimum cost u could have alone in the game, with its argmin strategy.

    Returns (cost, strategy index); ties break toward the lowest index.  The
    cost is the unwrapped table sum, as in `CongestionGame.cost_sums`: an int
    when the game's latencies are integral, else a Fraction.
    """
    if game.mode != "standard":
        raise ValidationError("optimistic cost is defined for standard mode")
    table = game.latency_table
    costs = [sum(table[e][1] for e in strat) for strat in game.players[u]]
    best_cost = min(costs)
    return best_cost, costs.index(best_cost)


def best_response(game: CongestionGame, state: State, u: int) -> tuple[int, Value]:
    """Globally cheapest deviation for u, ties broken by lowest index.

    The current strategy participates in the minimum, so the returned cost is
    never above the current cost.  The cost is the unwrapped table sum of
    `cost_sums`, a `Value`: an int when the game's latencies are integral.
    """
    costs = game.cost_sums(state, u)
    best = min(costs)
    return costs.index(best), best


def find_threshold_move(
    game: CongestionGame, state: State, u: int, q: Fraction
) -> Optional[tuple[int, Value]]:
    """Best response of u if it improves on the current cost by more than q.

    Returns (strategy index, new cost) when best_cost < current_cost / q
    strictly, else None; the new cost is a `Value`, as `best_response` gives
    it.  The best response comes first: when it is u's current strategy, no
    deviation beats the current cost at all, so none beats it by q >= 1.
    Only otherwise is the current cost read.  A tie won by a lower index and
    a zero-cost player fail the strict test below.  A q that is already a
    Fraction >= 1, as a walk passes it on every check, skips `to_factor`.
    """
    if type(q) is not Fraction or q.numerator < q.denominator:
        q = to_factor(q, "q")
    idx, cost = best_response(game, state, u)
    if idx == state.choices[u]:
        return None
    current = game.player_cost(state, u)
    # cost < current / q, cross-multiplied in integers; ints have numerator
    # itself and denominator 1.
    if (
        cost.numerator * q.numerator * current.denominator
        < current.numerator * q.denominator * cost.denominator
    ):
        return idx, cost
    return None


class Walk:
    """One improvement walk: its state, potential, move log and threshold cache.

    `move` updates the potential by the mover's cost change (Rosenthal's
    identity), not by recomputing it, and logs the move.

    `eligible` keeps each checked player's `find_threshold_move` result.
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

    def __init__(self, game: CongestionGame, state: State):
        self.game = game
        self.initial = state
        self.state = state
        self.potential: Value = as_value(game.potential(state))
        self.moves: list[MoveRecord] = []
        self.results: dict[int, Optional[tuple[int, Value]]] = {}

    def eligible(
        self, members: Iterable[int], q: Fraction
    ) -> Iterator[tuple[int, tuple[int, Value]]]:
        """(u, threshold move of u under q) for each member that has one, in order.

        Each member is checked at the walk's state when the iteration reaches
        it, so moving between two yields is allowed.
        """
        results = self.results
        for u in members:
            if u not in results:
                results[u] = find_threshold_move(self.game, self.state, u, q)
            found = results[u]
            if found is not None:
                yield u, found

    def move(
        self, u: int, found: tuple[int, Value], phase: Optional[int] = None
    ) -> None:
        """Execute u's threshold move `found`, log it, forget whom it touched."""
        game, state, results = self.game, self.state, self.results
        idx, new_cost = found
        strats = game.players[u]
        old = strats[state.choices[u]]
        for e in {*old, *strats[idx]}:
            for v in game.users[e]:
                results.pop(v, None)
        table, loads = game.latency_table, state.loads
        old_cost = sum(table[e][loads[e]] for e in old)
        before = self.potential
        self.potential = before + (new_cost - old_cost)
        record = MoveRecord(
            u, state.choices[u], idx, old_cost, new_cost, before, self.potential, phase
        )
        self.moves.append(record)
        self.state = state.apply(game, u, idx)

    def trace(self, **fields) -> RunTrace:
        """The run so far; `fields` sets truncated, phases and parameters."""
        return RunTrace(
            initial_state=self.initial.choices,
            final_state=self.state.choices,
            final_potential=self.potential,
            moves=self.moves,
            **fields,
        )


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
    The sweeps drive one `Walk`, so a player no move has touched since her
    last check is not checked again.  `move_cap` must be an integer of at
    least 1, and `seed` an integer or None.
    """
    epsilon = to_fraction(epsilon)
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    move_cap = to_integer(move_cap, "move_cap", least=1)
    if game.mode != "standard":
        raise ValidationError("dynamics require a standard-mode game")
    if order not in ("roundrobin", "random"):
        raise ValidationError(f"unknown order {order!r}")
    q = 1 + epsilon
    rng = random.Random(None if seed is None else to_integer(seed, "seed"))

    walk = Walk(game, state0)
    while True:
        players = list(range(game.n_players))
        if order == "random":
            rng.shuffle(players)
        swept_from = len(walk.moves)
        for u, found in walk.eligible(players, q):
            walk.move(u, found)
            if len(walk.moves) >= move_cap:
                return walk.trace(truncated=True)
        if len(walk.moves) == swept_from:
            return walk.trace()

"""Exact-arithmetic congestion game model.

A game is a set of resources, each with a polynomial latency function, and a
set of players, each owning explicit strategies (non-empty sets of resource
indices).  A state fixes one strategy per player; the load of a resource is
the number of players whose chosen strategy contains it, and a player's cost
is the sum of her resources' latencies at their loads.

All arithmetic is exact.  A latency function keeps its coefficients as
integer numerators over one common denominator (the lcm of the coefficient
denominators) and evaluates by Horner's rule in integers, building a single
`Fraction` per value.  A game evaluates each latency once, into its value
table (`CongestionGame.latency_table`, ints where integral, else Fractions);
costs and potentials are sums of table entries, each returned as one
`fractions.Fraction`.  `cost_sums` hands out the unwrapped sums (ints when the
table is integral) so that best responses compare integers.  Two modes are
supported:

* ``standard``: polynomial latencies with non-negative coefficients (the
  usual setting; monotonicity and the potential sandwich hold).
* ``hardness``: affine latencies whose offset may be negative, as produced by
  the circuit-to-game builders; values must still be non-negative at every
  feasible integer load, and are required to be integers.

Games, states, and subgame views are immutable; every operation here is a
pure function of its arguments.  A game's user sets and value table are
built on first use and cached on the game.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import ValidationError

RationalLike = Union[Fraction, int, str]
Value = Union[int, Fraction]

STANDARD = "standard"
HARDNESS = "hardness"


_EXPONENT = re.compile(r"e([-+]?[0-9_]+)\s*\Z", re.IGNORECASE)


def _check_exponent(text: str) -> None:
    """Reject a decimal exponent beyond Python's integer string limit.

    The limit is `sys.get_int_max_str_digits()`: 4300 by default, 0 for
    none (as on Pythons without it).  Unchecked, "1e4000000" would expand
    into a 13-million-bit integer from nine characters.
    """
    match = _EXPONENT.search(text)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if match and limit and abs(int(match[1])) > limit:
        raise ValidationError(f"exponent of {text!r} exceeds the {limit}-digit limit")


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' / decimal strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"not a rational: {value!r}")
    if isinstance(value, (int, str)):
        try:
            if isinstance(value, str):
                _check_exponent(value)
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational: {value!r}") from exc
    raise ValidationError(f"not a rational: {value!r}")


def to_index(value) -> int:
    """Coerce an integral value (3, 3.0) to int; reject 1.5, "3", None."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"not an integer index: {value!r}")


@dataclass(frozen=True)
class LatencyFunction:
    """Polynomial latency f(x) = sum_k coeffs[k] * x**k with rational coeffs.

    `eval` works on integer numerators over the common denominator of the
    coefficients, derived from `coeffs` on first use and cached on the
    instance; they take no part in equality or hashing.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coefficients: Iterable[RationalLike]):
        coeffs = tuple(to_fraction(c) for c in coefficients)
        if not coeffs:
            coeffs = (Fraction(0),)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        """Effective degree: trailing zero coefficients do not count."""
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d

    @property
    def has_nonnegative_coeffs(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    @cached_property
    def _horner(self) -> tuple[tuple[int, ...], int]:
        """Integer numerators, highest degree first, over their common denominator."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        nums = (c.numerator * (den // c.denominator) for c in reversed(self.coeffs))
        return tuple(nums), den

    def eval(self, load: int) -> Fraction:
        """Exact value at an integer load >= 1."""
        if not isinstance(load, int) or load < 1:
            raise ValidationError(f"latency evaluated at invalid load {load!r}")
        nums, den = self._horner
        total = 0
        for a in nums:
            total = total * load + a
        return Fraction(total, den)


@dataclass(frozen=True)
class CongestionGame:
    """Immutable congestion game with explicit strategy lists.

    ``players[u]`` is a tuple of strategies; each strategy is a sorted tuple
    of distinct resource indices.  ``mode`` selects which coefficient
    invariant is enforced (see module docstring).
    """

    resources: tuple[LatencyFunction, ...]
    players: tuple[tuple[tuple[int, ...], ...], ...]
    mode: str = STANDARD

    def __init__(
        self,
        resources: Iterable[LatencyFunction | Iterable[RationalLike]],
        players: Iterable[Iterable[Iterable[int]]],
        mode: str = STANDARD,
    ):
        res = tuple(
            f if isinstance(f, LatencyFunction) else LatencyFunction(f)
            for f in resources
        )
        plys = tuple(
            tuple(tuple(sorted(set(to_index(e) for e in strat))) for strat in strats)
            for strats in players
        )
        object.__setattr__(self, "resources", res)
        object.__setattr__(self, "players", plys)
        object.__setattr__(self, "mode", mode)
        self._validate()

    def _validate(self) -> None:
        if self.mode not in (STANDARD, HARDNESS):
            raise ValidationError(f"unknown mode {self.mode!r}")
        n_res = len(self.resources)
        for u, strats in enumerate(self.players):
            if not strats:
                raise ValidationError(f"player {u} has no strategies")
            for s_idx, strat in enumerate(strats):
                if not strat:
                    raise ValidationError(
                        f"player {u} strategy {s_idx} is empty"
                    )
                for e in strat:
                    if e < 0 or e >= n_res:
                        raise ValidationError(
                            f"player {u} strategy {s_idx} uses invalid resource {e}"
                        )
        if self.mode == STANDARD:
            for e, f in enumerate(self.resources):
                if not f.has_nonnegative_coeffs:
                    raise ValidationError(
                        f"standard mode requires non-negative coefficients; "
                        f"resource {e} has {f.coeffs}"
                    )
        else:
            n = self.n_players
            for e, f in enumerate(self.resources):
                if f.degree > 1:
                    raise ValidationError(
                        f"hardness mode requires affine latencies; resource {e} "
                        f"has degree {f.degree}"
                    )
                if any(c.denominator != 1 for c in f.coeffs):
                    raise ValidationError(
                        f"hardness mode requires integer latency values; "
                        f"resource {e} has {f.coeffs}"
                    )
                # An affine function is smallest at an end of [1, n].
                for x in (1, max(n, 1)):
                    value = f.eval(x)
                    if value < 0:
                        raise ValidationError(
                            f"resource {e} has negative latency {value} "
                            f"at load {x}"
                        )

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def n_resources(self) -> int:
        return len(self.resources)

    @property
    def degree(self) -> int:
        """Maximum effective degree over all resources (0 for an empty game)."""
        return max((f.degree for f in self.resources), default=0)

    def state(self, choices: Sequence[int]) -> "State":
        return State.of(self, choices)

    @cached_property
    def users(self) -> tuple[frozenset[int], ...]:
        """users[e]: the players with at least one strategy that uses e."""
        users: list[set[int]] = [set() for _ in self.resources]
        for u, strats in enumerate(self.players):
            for strat in strats:
                for e in strat:
                    users[e].add(u)
        return tuple(frozenset(s) for s in users)

    @cached_property
    def latency_table(self) -> tuple[tuple[Value, ...], ...]:
        """table[e][k] = f_e(k) for 1 <= k <= len(users[e]); table[e][0] = 0.

        No state puts more than len(users[e]) players on e, so every load a
        cost asks for is in the table.  Integer values are plain ints.
        """
        table = []
        for f, users in zip(self.resources, self.users):
            col = (f.eval(k) for k in range(1, len(users) + 1))
            table.append((0, *(v.numerator if v.denominator == 1 else v for v in col)))
        return tuple(table)

    def player_cost(self, state: "State", u: int) -> Fraction:
        """Total latency player u experiences at `state`."""
        strat = self.players[u][state.choices[u]]
        return Fraction(_move_sum(self.latency_table, state.loads, strat, strat))

    def deviation_cost(self, state: "State", u: int, alt: int) -> Fraction:
        """Cost u would pay after unilaterally switching to strategy `alt`.

        Computed incrementally: only resources in the symmetric difference of
        the two strategies see an adjusted load.
        """
        strats = self.players[u]
        if alt < 0 or alt >= len(strats):
            raise ValidationError(f"player {u} has no strategy {alt}")
        current = strats[state.choices[u]]
        return Fraction(
            _move_sum(self.latency_table, state.loads, current, strats[alt])
        )

    def cost_sums(self, state: "State", u: int) -> list[Value]:
        """Unwrapped deviation cost of each of u's strategies, in index order.

        Entry state.choices[u] is u's current cost.  The entries are sums of
        table values: ints when the latencies are integral at these loads.
        """
        strats, choice = self.players[u], state.choices[u]
        return _move_sums(self.latency_table, state.loads, strats, choice)

    def potential(self, state: "State") -> Fraction:
        """Rosenthal potential: sum over resources of cumulative latencies."""
        cols = zip(self.latency_table, state.loads)
        return Fraction(sum(sum(col[1 : k + 1]) for col, k in cols))


@dataclass(frozen=True)
class State:
    """One chosen strategy index per player, with a cached load profile."""

    choices: tuple[int, ...]
    loads: tuple[int, ...]

    @classmethod
    def of(cls, game: CongestionGame, choices: Sequence[int]) -> "State":
        choices = tuple(to_index(c) for c in choices)
        if len(choices) != game.n_players:
            raise ValidationError(
                f"state has {len(choices)} choices for {game.n_players} players"
            )
        loads = [0] * game.n_resources
        for u, c in enumerate(choices):
            strats = game.players[u]
            if c < 0 or c >= len(strats):
                raise ValidationError(f"player {u} has no strategy {c}")
            for e in strats[c]:
                loads[e] += 1
        return cls(choices, tuple(loads))

    def apply(self, game: CongestionGame, u: int, new_choice: int) -> "State":
        """New state with u's choice replaced; loads updated incrementally."""
        strats = game.players[u]
        if new_choice < 0 or new_choice >= len(strats):
            raise ValidationError(f"player {u} has no strategy {new_choice}")
        old = strats[self.choices[u]]
        new = strats[new_choice]
        loads = list(self.loads)
        for e in old:
            loads[e] -= 1
        for e in new:
            loads[e] += 1
        choices = list(self.choices)
        choices[u] = new_choice
        return State(tuple(choices), tuple(loads))


@dataclass(frozen=True)
class SubgameView:
    """Restriction of a game to an active player set F with frozen outsiders.

    Players outside F are pinned to their strategies in the freezing state;
    their contribution to each resource load becomes a constant offset t_e,
    so the view evaluates resource e at load x as f_e(x + t_e).  Active
    players keep their full strategy sets and experience exactly the same
    costs as in the base game (for states agreeing with the freeze).
    """

    game: CongestionGame
    active: frozenset[int]
    frozen_loads: tuple[int, ...]

    @classmethod
    def freeze(
        cls, game: CongestionGame, state: State, active: Iterable[int]
    ) -> "SubgameView":
        active_set = frozenset(to_index(u) for u in active)
        for u in active_set:
            if u < 0 or u >= game.n_players:
                raise ValidationError(f"active set mentions unknown player {u}")
        t = [0] * game.n_resources
        for u, c in enumerate(state.choices):
            if u in active_set:
                continue
            for e in game.players[u][c]:
                t[e] += 1
        return cls(game, active_set, tuple(t))

    @property
    def n_players(self) -> int:
        return self.game.n_players

    def _loads(self, state: State) -> list[int]:
        """Loads the view sees: frozen offsets plus the active players at `state`."""
        loads = list(self.frozen_loads)
        for u in self.active:
            for e in self.game.players[u][state.choices[u]]:
                loads[e] += 1
        return loads

    def _require_active(self, u: int) -> None:
        if u not in self.active:
            raise ValidationError(f"player {u} is frozen in this subgame")

    def player_cost(self, state: State, u: int) -> Fraction:
        self._require_active(u)
        strat = self.game.players[u][state.choices[u]]
        table = self.game.latency_table
        return Fraction(_move_sum(table, self._loads(state), strat, strat))

    def deviation_cost(self, state: State, u: int, alt: int) -> Fraction:
        self._require_active(u)
        strats = self.game.players[u]
        if alt < 0 or alt >= len(strats):
            raise ValidationError(f"player {u} has no strategy {alt}")
        current = strats[state.choices[u]]
        table = self.game.latency_table
        return Fraction(_move_sum(table, self._loads(state), current, strats[alt]))

    def cost_sums(self, state: State, u: int) -> list[Value]:
        """As `CongestionGame.cost_sums`, with the loads computed once."""
        self._require_active(u)
        strats, choice = self.game.players[u], state.choices[u]
        table = self.game.latency_table
        return _move_sums(table, self._loads(state), strats, choice)

    def potential(self, state: State) -> Fraction:
        """Potential of the subgame: modified latencies, active loads only."""
        cols = zip(self.game.latency_table, self.frozen_loads, self._loads(state))
        return Fraction(sum(sum(col[t + 1 : k + 1]) for col, t, k in cols))


def _move_sum(
    table: Sequence[Sequence[Value]],
    loads: Sequence[int],
    current: tuple[int, ...],
    strat: tuple[int, ...],
) -> Value:
    """Table sum a player pays on `strat` after leaving `current` (may be equal)."""
    total = 0
    for e in strat:
        total += table[e][loads[e] if e in current else loads[e] + 1]
    return total


def _move_sums(
    table: Sequence[Sequence[Value]],
    loads: Sequence[int],
    strats: tuple[tuple[int, ...], ...],
    choice: int,
) -> list[Value]:
    current = strats[choice]
    return [_move_sum(table, loads, current, strat) for strat in strats]


GameLike = Union[CongestionGame, SubgameView]


def load_profile(game: CongestionGame, state: State) -> tuple[int, ...]:
    """Per-resource player counts, recomputed from scratch.

    `State.loads` caches the same profile; this is the independent
    recomputation used by debugging checks and tests.
    """
    loads = [0] * game.n_resources
    for u, c in enumerate(state.choices):
        for e in game.players[u][c]:
            loads[e] += 1
    return tuple(loads)


def player_cost(game: GameLike, state: State, u: int) -> Fraction:
    return game.player_cost(state, u)


def deviation_cost(game: GameLike, state: State, u: int, alt: int) -> Fraction:
    return game.deviation_cost(state, u, alt)


def rosenthal_potential(game: GameLike, state: State) -> Fraction:
    return game.potential(state)


def aggregate_metrics(
    game: CongestionGame, state: State
) -> tuple[Fraction, Fraction, Fraction]:
    """(sum of latencies, potential, total player cost) at `state`.

    The latency sum ranges over occupied resources only: a resource nobody
    uses incurs no latency, regardless of its constant term.  In standard
    mode the three values satisfy latency_sum <= potential <= total_cost.
    """
    latency_sum = Fraction(
        sum(col[k] for col, k in zip(game.latency_table, state.loads))
    )
    potential = game.potential(state)
    total_cost = sum(
        (game.player_cost(state, u) for u in range(game.n_players)),
        Fraction(0),
    )
    return latency_sum, potential, total_cost

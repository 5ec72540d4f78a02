"""Exact-arithmetic congestion game model.

A game is a set of resources, each with a polynomial latency function, and a
set of players, each owning explicit strategies (non-empty sets of resource
indices).  A state fixes one strategy per player; the load of a resource is
the number of players whose chosen strategy contains it, and a player's cost
is the sum of her resources' latencies at their loads.

All arithmetic is exact.  A latency function stores each coefficient as a
`Value`: an int when it is integral and a `Fraction` otherwise.  It
evaluates by Horner's rule in integers: when every coefficient is an int,
over the coefficients themselves, kept from construction; otherwise over
integer numerators on the lcm of the coefficient denominators, derived on
first use.  A latency value is an int when it is integral, so an integral
game never builds a `Fraction` for a coefficient or a latency value.  A game
evaluates each latency once, into its value table
(`CongestionGame.latency_table`); resources that hold one function object
and have as many users share one column, and `serialize.game_from_dict` and
`hardness.build_flip_game` build one function per distinct coefficient list
or value pair.  Costs and potentials are sums of table entries, each
returned as one `fractions.Fraction`.  `cost_sums` hands out the unwrapped
sums (ints when the table is integral), which the dynamics keep unwrapped
from the best response to the printed trace.  Two modes are supported:

* ``standard``: polynomial latencies with non-negative coefficients (the
  usual setting; monotonicity and the potential sandwich hold).
* ``hardness``: affine latencies whose offset may be negative, as produced by
  the circuit-to-game builders; values must still be non-negative at every
  feasible integer load, and are required to be integers.

Costs, potentials and `cost_sums` are methods of `CongestionGame`, the one
game type the dynamics and the solver take.  `SubgameView` freezes the
players outside an active set; `verify.audit_identities` compares its costs
and potential against the full game's.

Games, states, and subgame views are immutable; every operation here is a
pure function of its arguments.  A game's user sets and value table are
built on first use and cached on the game.

The four input rules the modules share are spelled here once, each raising
ValidationError: `to_integer` (an integer at or above a floor; 3.0 reads as
3, while True, 2.5 and "3" are refused), `to_factor` (a rational >= 1),
`CongestionGame.strategy` (player u's strategy i) and `digit_limit_error` (a
value with more digits than `digit_limit`).  Exact text is spelled here once
too: `format_rational` writes a `Value` as '5' or '-3/4' for every output
file and every error message that quotes one, and refuses one past the limit.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .errors import ValidationError

RationalLike = Union[Fraction, int, str]
Value = Union[int, Fraction]

STANDARD = "standard"
HARDNESS = "hardness"


_EXPONENT = re.compile(r"e([-+]?[0-9_]+)\s*\Z", re.IGNORECASE)
_DIGIT_RUN = re.compile(r"\d[\d_]*")


def digit_limit() -> int:
    """Python's integer string limit, `sys.get_int_max_str_digits()`.

    4300 digits by default; 0 means no limit, as on Pythons without one.
    """
    return getattr(sys, "get_int_max_str_digits", int)()


def digit_limit_error(what: str) -> ValidationError:
    """The error for `what`, a value with more digits than `digit_limit`."""
    limit = digit_limit()
    return ValidationError(
        f"{what} has more than {limit} digits, over the {limit}-digit limit "
        "of sys.set_int_max_str_digits"
    )


def format_rational(x: Value) -> str:
    """Exact text, '5' or '-3/4'; one past the `digit_limit` is refused."""
    try:
        return str(x if type(x) is int else Fraction(x))
    except ValueError as exc:
        raise digit_limit_error("a value") from exc


def _quote(value) -> str:
    """Exact text of an int or Fraction, else repr; a long string is cut."""
    if type(value) in (int, Fraction):
        return format_rational(value)
    if isinstance(value, str) and len(value) > 40:
        return f"{value[:20]!r}... ({len(value)} characters)"
    return repr(value)


def _check_exponent(text: str) -> None:
    """Reject a decimal exponent beyond the `digit_limit`.

    Unchecked, "1e4000000" would expand into a 13-million-bit integer from
    nine characters.
    """
    match = _EXPONENT.search(text)
    limit = digit_limit()
    if match and limit and abs(int(match[1])) > limit:
        raise digit_limit_error(f"the value of {_quote(text)}")


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' / decimal strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Plain ASCII digits skip Fraction's regex parser; for them int() fails
        # only beyond the digit limit.
        if value.isascii() and value.isdigit():
            try:
                return Fraction(int(value))
            except ValueError:
                raise digit_limit_error(f"the integer {_quote(value)}") from None
        try:
            _check_exponent(value)
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            # int() refuses a run of digits beyond the limit, in a numerator,
            # denominator, decimal part or exponent alike.
            limit = digit_limit()
            runs = _DIGIT_RUN.findall(value)
            if limit and any(len(r) - r.count("_") > limit for r in runs):
                raise digit_limit_error(f"a number in {_quote(value)}") from None
            raise ValidationError(f"not a rational: {_quote(value)}") from exc
    raise ValidationError(f"not a rational: {value!r}")


def as_value(x: Fraction) -> Value:
    """`x` as a `Value`: its numerator when it is integral, else `x` itself."""
    return x.numerator if x.denominator == 1 else x


def to_factor(value: RationalLike, name: str) -> Fraction:
    """Coerce a factor, a rational >= 1 such as rho or q, to Fraction."""
    q = value if isinstance(value, Fraction) else to_fraction(value)
    if q.numerator < q.denominator:
        raise ValidationError(f"{name} must be >= 1, got {_quote(q)}")
    return q


def to_integer(value, name: str, least: Optional[int] = None) -> int:
    """Coerce an integral value (3, 3.0) at or above `least` to int.

    True, 2.5, "3" and None raise ValidationError, and so does a value
    below `least` (no floor when it is None).
    """
    if type(value) is not int:
        try:
            integral = int(value) == value and not isinstance(value, bool)
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValidationError(f"{name} must be an integer, got {_quote(value)}")
        value = int(value)
    if least is not None and value < least:
        raise ValidationError(f"{name} must be at least {least}, got {_quote(value)}")
    return value


@dataclass(frozen=True)
class LatencyFunction:
    """Polynomial latency f(x) = sum_k coeffs[k] * x**k with rational coeffs.

    Each coefficient is a `Value`: an int when it is integral (given as an
    int, a digit string or an integral `Fraction`), a `Fraction` otherwise.
    As 3 == Fraction(3) and both hash alike, equality and hashing do not see
    the split.  `eval` works on integer numerators over the common
    denominator of the coefficients.  When every coefficient is an int they
    are the coefficients themselves over 1, stored at construction;
    otherwise they are derived on first use and cached on the instance.
    They take no part in equality or hashing.
    """

    coeffs: tuple[Value, ...]

    def __init__(self, coefficients: Iterable[RationalLike]):
        coeffs = tuple(
            c if type(c) is int else as_value(to_fraction(c)) for c in coefficients
        ) or (0,)
        object.__setattr__(self, "coeffs", coeffs)
        if all(type(c) is int for c in coeffs):
            # Fills the cached_property before any use; object.__setattr__,
            # unlike vars(self), does not build a per-instance dict.
            object.__setattr__(self, "_horner", (coeffs[::-1], 1))

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

    def eval(self, load: int) -> Value:
        """Exact value at an integer load >= 1: an int when it is integral.

        With integer coefficients the value is the Horner total itself;
        otherwise it is that total over the common denominator, a `Fraction`
        unless it reduces to an integer.
        """
        if not isinstance(load, int) or load < 1:
            raise ValidationError(f"latency evaluated at invalid load {_quote(load)}")
        nums, den = self._horner
        total = 0
        for a in nums:
            total = total * load + a
        if den == 1:
            return total
        return as_value(Fraction(total, den))


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
            tuple(
                tuple(sorted({to_integer(e, "resource index") for e in strat}))
                for strat in strats
            )
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
        # Each function object is checked once, as its first resource.
        first: dict[int, tuple[int, LatencyFunction]] = {}
        for e, f in enumerate(self.resources):
            first.setdefault(id(f), (e, f))
        if self.mode == STANDARD:
            for e, f in first.values():
                if not f.has_nonnegative_coeffs:
                    raise ValidationError(
                        f"standard mode requires non-negative coefficients; "
                        f"resource {e} has {', '.join(map(format_rational, f.coeffs))}"
                    )
        else:
            n = self.n_players
            for e, f in first.values():
                if f.degree > 1:
                    raise ValidationError(
                        f"hardness mode requires affine latencies; resource {e} "
                        f"has degree {f.degree}"
                    )
                if any(type(c) is not int for c in f.coeffs):
                    raise ValidationError(
                        f"hardness mode requires integer latency values; "
                        f"resource {e} has {', '.join(map(format_rational, f.coeffs))}"
                    )
                # An affine function is smallest at an end of [1, n].
                for x in (1, max(n, 1)):
                    value = f.eval(x)
                    if value < 0:
                        raise ValidationError(
                            f"resource {e} has negative latency {_quote(value)} "
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
        cost asks for is in the table.  Integer values are plain ints, as
        `LatencyFunction.eval` returns them.  Resources that hold the same
        function object and have as many users share one column.
        """
        columns: dict[tuple[int, int], tuple[Value, ...]] = {}
        table = []
        for f, users in zip(self.resources, self.users):
            key = (id(f), len(users))
            if key not in columns:
                columns[key] = (0, *map(f.eval, range(1, len(users) + 1)))
            table.append(columns[key])
        return tuple(table)

    def strategy(self, u: int, i: int) -> tuple[int, ...]:
        """Player u's strategy i; an index u does not have raises ValidationError."""
        strats = self.players[u]
        if 0 <= i < len(strats):
            return strats[i]
        raise ValidationError(f"player {u} has no strategy {i}")

    def player_cost(self, state: "State", u: int) -> Fraction:
        """Total latency player u experiences at `state`."""
        strat = self.players[u][state.choices[u]]
        return Fraction(_move_sum(self.latency_table, state.loads, strat, strat))

    def deviation_cost(self, state: "State", u: int, alt: int) -> Fraction:
        """Cost u would pay after unilaterally switching to strategy `alt`.

        Computed incrementally: only resources in the symmetric difference of
        the two strategies see an adjusted load.
        """
        current = self.players[u][state.choices[u]]
        return Fraction(
            _move_sum(self.latency_table, state.loads, current, self.strategy(u, alt))
        )

    def cost_sums(self, state: "State", u: int) -> list[Value]:
        """Unwrapped deviation cost of each of u's strategies, in index order.

        Entry state.choices[u] is u's current cost.  The entries are sums of
        table values: ints when the latencies are integral at these loads.
        """
        strats = self.players[u]
        current = strats[state.choices[u]]
        table, loads = self.latency_table, state.loads
        return [_move_sum(table, loads, current, strat) for strat in strats]

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
        choices = tuple(to_integer(c, "strategy index") for c in choices)
        if len(choices) != game.n_players:
            raise ValidationError(
                f"state has {len(choices)} choices for {game.n_players} players"
            )
        loads = [0] * game.n_resources
        for u, c in enumerate(choices):
            for e in game.strategy(u, c):
                loads[e] += 1
        return cls(choices, tuple(loads))

    def apply(self, game: CongestionGame, u: int, new_choice: int) -> "State":
        """New state with u's choice replaced; loads updated incrementally."""
        old = game.players[u][self.choices[u]]
        new = game.strategy(u, new_choice)
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
        active_set = frozenset(to_integer(u, "player index") for u in active)
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
        current = self.game.players[u][state.choices[u]]
        alt_strat = self.game.strategy(u, alt)
        table = self.game.latency_table
        return Fraction(_move_sum(table, self._loads(state), current, alt_strat))

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

"""Seeded random instance families for tests and benchmarks."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import CongestionGame, LatencyFunction, format_rational, to_integer
from .errors import GenerationError, ValidationError

_RETRY_CAP = 200


@dataclass(frozen=True)
class GenSpec:
    """Shape of a random standard-mode game.

    Coefficients are drawn uniformly as integers in `coeff_range` for each of
    the d+1 polynomial terms.  `symmetric` gives every player the same
    strategy list.  Per player, strategies are distinct non-empty resource
    subsets, found by rejection sampling.  Every field but `symmetric` holds
    integers, which `to_integer` coerces (3.0 is stored as 3).
    """

    seed: int
    n_players: int
    n_resources: int
    strategies_per_player: int
    strategy_size: tuple[int, int] = (1, 2)
    degree: int = 1
    coeff_range: tuple[int, int] = (0, 4)
    symmetric: bool = False

    def __post_init__(self):
        for name in ("n_players", "n_resources", "strategies_per_player"):
            object.__setattr__(self, name, to_integer(getattr(self, name), name, 1))
        object.__setattr__(self, "seed", to_integer(self.seed, "seed"))
        object.__setattr__(self, "degree", to_integer(self.degree, "degree", 0))
        lo, hi = (to_integer(v, "strategy_size", 1) for v in self.strategy_size)
        clo, chi = (to_integer(v, "coeff_range", 0) for v in self.coeff_range)
        object.__setattr__(self, "strategy_size", (lo, hi))
        object.__setattr__(self, "coeff_range", (clo, chi))
        # format_rational refuses a value past the digit limit.
        if hi < lo:
            raise ValidationError(
                f"bad strategy size range ({format_rational(lo)}, {format_rational(hi)})"
            )
        if hi > self.n_resources:
            raise ValidationError(
                f"strategy size {format_rational(hi)} exceeds resource count "
                f"{format_rational(self.n_resources)}"
            )
        if chi < clo:
            raise ValidationError(
                f"bad coefficient range ({format_rational(clo)}, {format_rational(chi)})"
            )


def _draw_strategies(spec: GenSpec, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    lo, hi = spec.strategy_size
    chosen: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(spec.strategies_per_player):
        for _attempt in range(_RETRY_CAP):
            size = rng.randint(lo, hi)
            strat = tuple(sorted(rng.sample(range(spec.n_resources), size)))
            if strat not in seen:
                seen.add(strat)
                chosen.append(strat)
                break
        else:
            raise GenerationError(
                f"could not draw {spec.strategies_per_player} distinct "
                f"strategies of sizes {spec.strategy_size} over "
                f"{spec.n_resources} resources"
            )
    return tuple(chosen)


def generate(spec: GenSpec) -> CongestionGame:
    """Deterministic-in-seed random game matching `spec`."""
    rng = random.Random(spec.seed)
    clo, chi = spec.coeff_range
    resources = [
        LatencyFunction([rng.randint(clo, chi) for _ in range(spec.degree + 1)])
        for _ in range(spec.n_resources)
    ]
    if spec.symmetric:
        shared = _draw_strategies(spec, rng)
        players = [shared for _ in range(spec.n_players)]
    else:
        players = [_draw_strategies(spec, rng) for _ in range(spec.n_players)]
    return CongestionGame(resources, players, mode="standard")

"""JSON instance files and exact rational round-tripping.

Instance schema::

    {
      "mode": "standard" | "hardness",
      "resources": [{"coeffs": ["1", "2/3", ...]}, ...],
      "players": [{"strategies": [[0, 2], [1], ...]}, ...],
      "labels": {...}            # optional, attached by gadget builders
    }

Rationals are written as canonical "p/q" (or bare integer) strings by
`core.format_rational`, the one route from a value to text, and are accepted
back as "p/q" strings, decimal strings, or plain JSON integers.  Round trips
are bit exact: `core.to_fraction(format_rational(x)) == x` for every
Fraction x.
"""

from __future__ import annotations

import json
from typing import Any, IO, Optional

from .core import (
    CongestionGame,
    LatencyFunction,
    digit_limit_error,
    format_rational,
    to_integer,
)
from .errors import ValidationError


def game_to_dict(game: CongestionGame, labels: Optional[dict] = None) -> dict:
    doc: dict[str, Any] = {
        "mode": game.mode,
        "resources": [
            {"coeffs": [format_rational(c) for c in f.coeffs]}
            for f in game.resources
        ],
        "players": [
            {"strategies": [list(strat) for strat in strats]}
            for strats in game.players
        ],
    }
    if labels is not None:
        doc["labels"] = labels
    return doc


def _listed(value: Any, what: str) -> list:
    """`value` itself when it is a JSON list; anything else is malformed.

    A string or an object would otherwise be iterated by character or by key.
    """
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, got {type(value).__name__}")
    return value


def game_from_dict(doc: dict) -> tuple[CongestionGame, Optional[dict]]:
    """The game and labels of an instance document.

    Equal coefficient lists get one `LatencyFunction`, so the game evaluates
    them into one value column.  The JSON types are part of the key: 1, 1.0
    and true hash alike, and [true] must still be refused after [1].
    """
    functions: dict[tuple, LatencyFunction] = {}

    def latency(coeffs: list) -> LatencyFunction:
        try:
            key = (*map(type, coeffs), *coeffs)
            f = functions.get(key)
        except TypeError:  # an unhashable entry, refused by the constructor
            return LatencyFunction(coeffs)
        if f is None:
            f = functions[key] = LatencyFunction(coeffs)
        return f

    try:
        mode = doc["mode"]
        resources = [
            latency(_listed(r["coeffs"], "coeffs"))
            for r in _listed(doc["resources"], "resources")
        ]
        players = [
            [_listed(s, "strategy") for s in _listed(p["strategies"], "strategies")]
            for p in _listed(doc["players"], "players")
        ]
        if not players:
            raise ValidationError("an instance needs at least one player")
        game = CongestionGame(resources, players, mode=mode)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed instance document: {exc}") from exc
    return game, doc.get("labels")


def json_text(doc: dict) -> str:
    """Deterministic JSON: fixed key order, 2-space indent, trailing newline.

    An integer longer than the `core.digit_limit` raises ValidationError.
    """
    try:
        return json.dumps(doc, indent=2) + "\n"
    except ValueError as exc:
        raise digit_limit_error("a value") from exc


def dump_json(doc: dict, fp: IO[str]) -> None:
    fp.write(json_text(doc))


def write_json(doc: dict, path: str) -> None:
    """Convert first and then open, so a failed conversion leaves no file."""
    text = json_text(doc)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def load_json(path: str) -> Any:
    """Parse a UTF-8 JSON file; anything else raises ValidationError."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except (ValueError, RecursionError) as exc:  # bad text, or nested too deep
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def write_instance(
    game: CongestionGame, path: str, labels: Optional[dict] = None
) -> None:
    write_json(game_to_dict(game, labels), path)


def read_instance(path: str) -> tuple[CongestionGame, Optional[dict]]:
    return game_from_dict(load_json(path))


def write_state(choices, path: str) -> None:
    write_json({"state": list(int(c) for c in choices)}, path)


def read_state(path: str) -> list[int]:
    doc = load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("state"), list):
        raise ValidationError(f"{path} is not a state file")
    return [to_integer(c, "strategy index") for c in doc["state"]]

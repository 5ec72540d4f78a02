"""JSON instance files and exact rational round-tripping.

Instance schema::

    {
      "mode": "standard" | "hardness",
      "resources": [{"coeffs": ["1", "2/3", ...]}, ...],
      "players": [{"strategies": [[0, 2], [1], ...]}, ...],
      "labels": {...}            # optional, attached by gadget builders
    }

Rationals are written as canonical "p/q" (or bare integer) strings and are
accepted back as "p/q" strings, decimal strings, or plain JSON integers.
Round trips are bit exact: parse(format(x)) == x for every Fraction x.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, IO, Optional, Union

from .core import CongestionGame, LatencyFunction, to_fraction, to_index
from .errors import ValidationError


def format_rational(x: Fraction) -> str:
    """Canonical exact string: '5', '-3/4', '17/16'."""
    return str(Fraction(x))


def parse_rational(text: Union[str, int]) -> Fraction:
    """Inverse of format_rational; also accepts decimals like '0.25'."""
    return to_fraction(text)


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


def game_from_dict(doc: dict) -> tuple[CongestionGame, Optional[dict]]:
    try:
        mode = doc["mode"]
        resources = [
            LatencyFunction([parse_rational(c) for c in r["coeffs"]])
            for r in doc["resources"]
        ]
        players = [p["strategies"] for p in doc["players"]]
        game = CongestionGame(resources, players, mode=mode)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed instance document: {exc}") from exc
    return game, doc.get("labels")


def dump_json(doc: dict, fp: IO[str]) -> None:
    """Deterministic JSON: fixed key order, 2-space indent, trailing newline."""
    json.dump(doc, fp, indent=2)
    fp.write("\n")


def load_json(path: str) -> Any:
    """Parse a UTF-8 JSON file; anything else raises ValidationError."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def write_instance(
    game: CongestionGame, path: str, labels: Optional[dict] = None
) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        dump_json(game_to_dict(game, labels), fp)


def read_instance(path: str) -> tuple[CongestionGame, Optional[dict]]:
    return game_from_dict(load_json(path))


def write_state(choices, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        dump_json({"state": list(int(c) for c in choices)}, fp)


def read_state(path: str) -> list[int]:
    doc = load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("state"), list):
        raise ValidationError(f"{path} is not a state file")
    return [to_index(c) for c in doc["state"]]

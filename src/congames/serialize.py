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
import sys
from fractions import Fraction
from typing import Any, IO, Optional, Union

from .core import CongestionGame, LatencyFunction, to_fraction, to_index
from .errors import ValidationError


def format_rational(x: Fraction) -> str:
    """Canonical exact string: '5', '-3/4', '17/16'.

    A numerator or denominator longer than Python's integer string limit
    (`sys.get_int_max_str_digits()`) raises ValidationError.
    """
    try:
        return str(Fraction(x))
    except ValueError as exc:
        raise ValidationError(
            f"a value has more than {sys.get_int_max_str_digits()} digits, "
            "the limit of sys.set_int_max_str_digits"
        ) from exc


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
        if not players:
            raise ValidationError("an instance needs at least one player")
        game = CongestionGame(resources, players, mode=mode)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed instance document: {exc}") from exc
    return game, doc.get("labels")


def json_text(doc: dict) -> str:
    """Deterministic JSON: fixed key order, 2-space indent, trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


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
        except ValueError as exc:  # bad syntax, bad UTF-8, too many digits
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
    return [to_index(c) for c in doc["state"]]

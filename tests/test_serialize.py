"""Instance file round trips and rational string handling."""

from fractions import Fraction as F

import pytest

from congames import CongestionGame, ValidationError
from congames.hardness import read_flip_instance
from congames.serialize import (
    format_rational,
    game_from_dict,
    game_to_dict,
    parse_rational,
    read_instance,
    read_state,
    write_instance,
    write_state,
)


def test_rational_round_trip_exact():
    values = [F(0), F(5), F(-3, 4), F(17, 16), F(10**50, 7), F(1, 3)]
    for v in values:
        assert parse_rational(format_rational(v)) == v


def test_parse_decimal_and_int_forms():
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(7) == F(7)
    assert parse_rational("-2") == F(-2)


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_rational("seven")
    with pytest.raises(ValidationError):
        parse_rational("1/0")


def test_instance_round_trip(tmp_path):
    game = CongestionGame(
        [[F(1, 3), 2], [0, F(7, 5)], [4]],
        [[[0, 1], [2]], [[1]], [[0], [1, 2], [2]]],
    )
    path = tmp_path / "inst.json"
    write_instance(game, str(path))
    loaded, labels = read_instance(str(path))
    assert loaded == game
    assert labels is None
    # byte-identical re-serialization
    path2 = tmp_path / "inst2.json"
    write_instance(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_labels_pass_through(tmp_path):
    game = CongestionGame([[1]], [[[0]]])
    path = tmp_path / "with_labels.json"
    write_instance(game, str(path), labels={"players": ["Solo"]})
    _, labels = read_instance(str(path))
    assert labels == {"players": ["Solo"]}


def test_hardness_mode_round_trip(tmp_path):
    game = CongestionGame([[-4, 4], [3, 0]], [[[0]], [[0], [1]]], mode="hardness")
    path = tmp_path / "hard.json"
    write_instance(game, str(path))
    loaded, _ = read_instance(str(path))
    assert loaded == game
    assert loaded.mode == "hardness"


def test_malformed_document():
    with pytest.raises(ValidationError):
        game_from_dict({"mode": "standard"})


def test_game_to_dict_uses_strings():
    game = CongestionGame([[F(1, 3)]], [[[0]]])
    doc = game_to_dict(game)
    assert doc["resources"][0]["coeffs"] == ["1/3"]


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "state.json"
    write_state([0, 2, 1], str(path))
    assert read_state(str(path)) == [0, 2, 1]


def test_state_file_rejects_other_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValidationError):
        read_state(str(path))


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}"])
def test_unreadable_json_rejected(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for read in (read_instance, read_state, read_flip_instance):
        with pytest.raises(ValidationError, match="invalid JSON in"):
            read(str(path))

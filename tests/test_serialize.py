"""Instance file round trips and rational string handling."""

import re
from fractions import Fraction as F

import pytest

from congames import CongestionGame, GadgetParams, LatencyFunction, ValidationError
from congames.core import to_fraction
from congames.hardness import (
    FlipInstance,
    build_flip_game,
    derive_subcircuits,
    read_flip_instance,
)
from congames.serialize import (
    format_rational,
    game_from_dict,
    game_to_dict,
    read_instance,
    read_state,
    write_instance,
    write_state,
)


def test_rational_round_trip_exact():
    values = [F(0), F(5), F(-3, 4), F(17, 16), F(10**50, 7), F(1, 3)]
    for v in values:
        assert to_fraction(format_rational(v)) == v


def test_parse_decimal_and_int_forms():
    assert to_fraction("0.25") == F(1, 4)
    assert to_fraction(7) == F(7)
    assert to_fraction("-2") == F(-2)


@pytest.mark.parametrize(
    "text, value", [("1e3", F(1000)), ("2.5e-1", F(1, 4)), ("1e4300", F(10**4300))]
)
def test_parse_exponents_within_digit_limit(text, value):
    assert to_fraction(text) == value


@pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1e4000000", "1E+4_000_000"])
def test_parse_rejects_exponent_beyond_digit_limit(text):
    with pytest.raises(ValidationError, match="4300-digit limit"):
        to_fraction(text)


def test_format_rejects_value_beyond_digit_limit():
    with pytest.raises(ValidationError, match="more than 4300 digits"):
        format_rational(F(10**4300))
    assert format_rational(F(1, 10**4299)) == "1/1" + "0" * 4299


@pytest.mark.parametrize("k", [0, -7, 10**3999, -(10**3999) + 1])
def test_format_int_as_its_fraction(k):
    assert format_rational(k) == format_rational(F(k))


def test_format_rejects_int_beyond_digit_limit():
    with pytest.raises(ValidationError, match="more than 4300 digits"):
        format_rational(10**4999)


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        to_fraction("seven")
    with pytest.raises(ValidationError):
        to_fraction("1/0")


@pytest.mark.parametrize(
    "text",
    ["0", "007", "+4", " 5 ", "1_000", "\u0661\u0662", "3/4", "0.25", "1e3",
     pytest.param("9" * 4300, id="4300-digits")],
)
def test_to_fraction_agrees_with_fraction_parser(text):
    value = to_fraction(text)
    assert type(value) is F
    assert value == F(text)


@pytest.mark.parametrize(
    "text",
    ["", " ", "\u00b2", "1__0", "0x10", "--1", "3/0",
     pytest.param("1" * 4301, id="4301-digits")],
)
def test_to_fraction_refuses_what_the_parser_refuses(text):
    with pytest.raises(ValidationError):
        to_fraction(text)


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


@pytest.mark.parametrize(
    "value", [None, 3, "12", {"3": "x"}], ids=["null", "integer", "string", "object"]
)
@pytest.mark.parametrize(
    "path",
    [("resources",), ("resources", 0, "coeffs"), ("players",),
     ("players", 0, "strategies"), ("players", 0, "strategies", 0)],
    ids=["resources", "coeffs", "players", "strategies", "strategy"],
)
def test_non_list_slot_rejected(path, value):
    # iterated as it stands, "12" would read as f(x) = 1 + 2x and {"3": "x"}
    # as f = 3
    doc = {
        "mode": "standard",
        "resources": [{"coeffs": ["1", "2"]}],
        "players": [{"strategies": [[0]]}, {"strategies": [[0]]}],
    }
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ValidationError, match="malformed instance document"):
        game_from_dict(doc)


def test_document_without_players_rejected():
    doc = {"mode": "standard", "resources": [{"coeffs": ["1"]}], "players": []}
    with pytest.raises(ValidationError, match="at least one player"):
        game_from_dict(doc)


def test_write_instance_beyond_digit_limit_leaves_no_file(tmp_path):
    game = CongestionGame([[10**4300]], [[[0]]])
    path = tmp_path / "inst.json"
    with pytest.raises(ValidationError, match="4300 digits"):
        write_instance(game, str(path))
    assert not path.exists()


def test_game_to_dict_uses_strings():
    game = CongestionGame([[F(1, 3)]], [[[0]]])
    doc = game_to_dict(game)
    assert doc["resources"][0]["coeffs"] == ["1/3"]


def test_game_to_dict_on_shared_functions():
    f = LatencyFunction([F(1, 3), 2])
    game = CongestionGame([f, [5], f, f], [[[0, 1], [2, 3]]])
    doc = game_to_dict(game)
    texts = [["1/3", "2"], ["5"], ["1/3", "2"], ["1/3", "2"]]
    assert [r["coeffs"] for r in doc["resources"]] == texts
    # each entry is its own list: editing one leaves the others that share f
    doc["resources"][0]["coeffs"].append("7")
    doc["resources"][2]["coeffs"][0] = "9"
    texts[0], texts[2] = ["1/3", "2", "7"], ["9", "2"]
    assert [r["coeffs"] for r in doc["resources"]] == texts
    # a flip game, hundreds of resources over a few dozen functions, reads
    # as when every resource was formatted on its own
    and_xy = FlipInstance(2, [(("x", 0), ("x", 1)), (("g", 0), ("g", 0))], [1])
    bundle = derive_subcircuits(and_xy)
    game, _ = build_flip_game(bundle, GadgetParams.for_bundle(bundle))
    assert len({id(f) for f in game.resources}) < game.n_resources
    assert game_to_dict(game)["resources"] == [
        {"coeffs": [format_rational(c) for c in f.coeffs]} for f in game.resources
    ]


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "state.json"
    write_state([0, 2, 1], str(path))
    assert read_state(str(path)) == [0, 2, 1]


def test_state_file_rejects_other_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValidationError):
        read_state(str(path))


@pytest.mark.parametrize("content", [
    b"{not json",
    b"\xff\xfe{}",
    pytest.param(b"[" + b"1" * 4301 + b"]", id="4301-digit-int"),
])
def test_unreadable_json_rejected(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for read in (read_instance, read_state, read_flip_instance):
        with pytest.raises(ValidationError, match="invalid JSON in"):
            read(str(path))


def shared_document(second):
    """Two resources, [1] and `second`, each with one user."""
    return {
        "mode": "standard",
        "resources": [{"coeffs": [1]}, {"coeffs": second}],
        "players": [{"strategies": [[0]]}, {"strategies": [[1]]}],
    }


def test_equal_coefficient_lists_share_one_function():
    doc = {
        "mode": "standard",
        "resources": [{"coeffs": c} for c in (["1", "2"], [3], ["1", "2"], [3], ["1/2", "2"])],
        "players": [
            {"strategies": [[0, 1], [2]]},
            {"strategies": [[0], [3, 4]]},
            {"strategies": [[1, 2, 3]]},
        ],
    }
    game, _ = game_from_dict(doc)
    fs, table = game.resources, game.latency_table
    assert fs[0] is fs[2] and fs[1] is fs[3] and fs[4] != fs[0]
    assert table[0] is table[2]  # one function, two users each
    for f, users, col in zip(fs, game.users, table):
        assert col == (0, *(f.eval(k) for k in range(1, len(users) + 1)))


@pytest.mark.parametrize("second, message", [
    ([True], "not a rational: True"),
    ([1.0], "not a rational: 1.0"),
    ([[1]], "not a rational: [1]"),
])
def test_shared_loading_keeps_refusals(second, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        game_from_dict(shared_document(second))


def test_shared_loading_reads_string_after_int():
    game, _ = game_from_dict(shared_document(["1"]))
    assert game.resources[0] == game.resources[1]
    assert game.latency_table == ((0, 1), (0, 1))

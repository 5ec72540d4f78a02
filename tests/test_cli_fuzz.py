"""Malformed documents and flags through `cli.main`: an exit code, never a traceback.

Each document example starts from a valid circuit, instance or state document and
mutates it: a value anywhere in the tree is replaced by a JSON leaf or a key
or list entry is deleted, and the result may be wrapped in lists nested past the
parser's recursion limit; or the file holds arbitrary text or bytes instead.  Each
flag example runs one command with drawn values for some of its numeric flags
(`--psi`, `--budget`, `--rho`, ...).  The exit code must be one of the documented ones (0, 2, 3, 4); an uncaught exception
fails the test.
"""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from congames import cli

EXIT_CODES = {0, 2, 3, 4}

CIRCUIT = {
    "inputs": 2,
    "gates": [
        {"a": {"x": 0}, "b": {"x": 1}},
        {"a": {"g": 0}, "b": {"x": 1}},
    ],
    "outputs": [0, 1],
}
INSTANCE = {
    "mode": "standard",
    "resources": [{"coeffs": ["1", "1"]}, {"coeffs": ["0", "2"]}, {"coeffs": ["3"]}],
    "players": [
        {"strategies": [[0], [1, 2]]},
        {"strategies": [[0, 1], [2]]},
        {"strategies": [[1], [2]]},
        {"strategies": [[0], [1]]},
        {"strategies": [[2]]},
    ],
}
STATE = {"state": [0, 1, 0, 1, 0]}

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.sampled_from([0.5, 1.5, 2.0, -1.0, float("nan"), float("inf")]),
    st.text(max_size=3),
    st.sampled_from(["x", "g", "y", "0,0", "1/2", "standard", "hardness"]),
    st.just([]),
    st.just({}),
)


def _slots(doc, path=()):
    """The path of every value in a JSON tree, the root's () included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _slots(child, path + (key,))


def _mutate(doc, data):
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_slots(doc))))
        if not path:
            doc = data.draw(leaves)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(leaves)
    return doc


# Lists nested deeper than the JSON parser's recursion limit, on any Python.
NESTING = 200_000


def _document(base, data) -> bytes:
    """A mutated `base` as UTF-8 JSON, maybe nested past the parser's
    recursion limit, or arbitrary text or bytes."""
    kind = data.draw(st.integers(0, 10))
    if kind == 0:
        return data.draw(st.text(max_size=20)).encode("utf-8")
    if kind == 1:
        return data.draw(st.binary(max_size=20))
    text = json.dumps(_mutate(base, data)).encode("utf-8")
    return b"[" * NESTING + text + b"]" * NESTING if kind == 2 else text


def _run(files: dict, argv: list) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fp:
                fp.write(content)
        paths["OUT"] = os.path.join(tmp, "out.json")
        return cli.main([paths.get(arg, arg) for arg in argv])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flip_gen_malformed_circuit(data):
    files = {"circuit.json": _document(CIRCUIT, data)}
    assert _run(files, ["flip-gen", "circuit.json", "--out", "OUT"]) in EXIT_CODES


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_malformed_instance(data):
    files = {"instance.json": _document(INSTANCE, data)}
    assert _run(files, ["solve", "instance.json"]) in EXIT_CODES


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_malformed_instance_or_state(data):
    files = {
        "instance.json": json.dumps(INSTANCE).encode("utf-8"),
        "state.json": json.dumps(STATE).encode("utf-8"),
    }
    if data.draw(st.booleans()):
        files["instance.json"] = _document(INSTANCE, data)
    else:
        files["state.json"] = _document(STATE, data)
    argv = ["verify", "instance.json", "state.json", "--rho", "2"]
    assert _run(files, argv) in EXIT_CODES


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_brute_and_audit_malformed_instance(data):
    files = {"instance.json": _document(INSTANCE, data)}
    argv = data.draw(st.sampled_from([
        ["brute", "instance.json"],
        ["audit", "instance.json", "--trials", "3"],
    ]))
    assert _run(files, argv) in EXIT_CODES


def test_object_for_coefficients_exit_2(capsys):
    # Read by key, {"3": "x"} would be f = 3 and brute would exit 0.
    doc = json.loads(json.dumps(INSTANCE))
    doc["resources"][0]["coeffs"] = {"3": "x"}
    files = {"instance.json": json.dumps(doc).encode("utf-8")}
    assert _run(files, ["brute", "instance.json"]) == 2
    assert "malformed instance document" in capsys.readouterr().err


# Numeric flag values: integers, fractions, decimals and junk text, with
# magnitudes small enough that every command ends in well under a second.
def _numbers(lo: int, hi: int):
    return st.one_of(
        st.integers(lo, hi).map(str),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(lo, hi), st.integers(0, 9)),
        st.builds(lambda i, f: f"{i}.{f}", st.integers(lo, hi), st.integers(0, 99)),
        st.sampled_from(
            ["1e2", "2E-1", "1e4301", "inf", "nan", "true", "0x10", "1_0", ""]
        ),
        st.text(max_size=4),
    )


FLAG_VALUES = {
    "--psi": _numbers(-2, 40),
    "--move-cap": _numbers(-3, 2000),
    "--theta": _numbers(-3, 50),
    "--budget": _numbers(-3, 10**6),
    "--trials": _numbers(-3, 100),
    "--seeds": _numbers(-2, 3),
    "--n-list": st.one_of(
        st.lists(st.integers(-2, 12).map(str), max_size=3).map(",".join),
        _numbers(-2, 12),
    ),
    "--alpha": st.one_of(_numbers(-2, 40), st.just(str(10**50))),
    "--rho": _numbers(-2, 40),
    "--workers": st.sampled_from(["-1", "0", "1"]),
}

FLAG_COMMANDS = [
    (["solve", "instance.json"], ["--psi", "--move-cap", "--theta"]),
    (["brute", "instance.json"], ["--budget"]),
    (["audit", "instance.json"], ["--trials", "--budget"]),
    (["bench", "--resources", "6", "--out", "OUT"],
     ["--n-list", "--seeds", "--psi", "--theta", "--workers"]),
    (["flip-gen", "circuit.json", "--out", "OUT"], ["--alpha", "--rho"]),
    (["verify", "instance.json", "state.json"], ["--rho"]),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_numeric_flags(data):
    argv, flags = data.draw(st.sampled_from(FLAG_COMMANDS))
    argv = list(argv)
    for flag in flags:
        if data.draw(st.booleans()):
            # "--flag=value" keeps a value such as "-1" or "-h" from reading
            # as an option.
            argv.append(f"{flag}={data.draw(FLAG_VALUES[flag])}")
    files = {
        "instance.json": json.dumps(INSTANCE).encode("utf-8"),
        "state.json": json.dumps(STATE).encode("utf-8"),
        "circuit.json": json.dumps(CIRCUIT).encode("utf-8"),
    }
    try:
        code = _run(files, argv)
    except SystemExit as exc:  # argparse refuses a value that is not an int
        code = exc.code
    assert code in EXIT_CODES

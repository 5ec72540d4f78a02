"""Flip local search and the circuit-to-game hardness construction.

The Flip problem asks for a local minimum of the weighted output value of a
NAND circuit under single-bit flips of its input vector.  This module turns
circuit bundles into congestion games (hardness mode: affine latencies with
possibly negative offsets) whose exact equilibria are meant to encode Flip
local minima.  That correspondence is checked by enumeration on small
bundles only, and it is known to fail on y = NAND(x3, NAND(x2, x1)), whose
test is a strict expected failure (ROADMAP item 8).

A bundle consists of a *main* circuit (the Flip instance, plus one
consistency guard gate per output) and one *comparison* circuit per
(output j, input i, target bit b).  A comparison circuit evaluates, over the
unflipped input bits, whether rewriting bit i to b would switch output j to
zero while leaving higher outputs unchanged.  It may read neither bit i (the
rewrite is hardwired) nor any output <= j, and `Bundle` refuses one that
does.  A predicate that always holds is the gateless circuit, and one that
never holds has no comparison circuit.  Bundles are normally produced by
`derive_subcircuits`, but any bundle that keeps this interface is accepted,
so hand-built bundles remain the authoritative input.

Game cast per bundle (players):
  Controller        locks the main circuit or one comparison circuit, or
                    runs one of two reset sweeps
  G_k               one per gate, plays its output value (OneA / OneB / Zero)
  LockG_k           one per gate, freezes the gate's configuration (four
                    Lock variants named by (input a, input b, output), plus
                    Unlock); a gate may restrict which variants exist, which
                    is how "lockable only when the output is 1" is encoded
  X_i / Y_j         one per input bit / output bit, playing its value

Every resource is shared by at most two players.  Trigger and block channels
that would otherwise be shared more widely are materialized as one copy per
sharing pair, following the same owner-tag idiom used for lock resources
(the copy's tag names the second sharer).  Latency value pairs a/b mean
f(1)=a and f(2)=b, realized as the affine function (b-a)x + 2a - b.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from typing import Container, Optional, Sequence, Union

from .core import (
    CongestionGame,
    LatencyFunction,
    digit_limit,
    digit_limit_error,
    format_rational,
    to_factor,
    to_integer,
)
from .errors import ValidationError
from .serialize import load_json

Ref = tuple[str, int]  # ("x", i) | ("y", j) | ("g", k), all 0-based

ALL_VARIANTS = ("001", "101", "011", "110")
OUT1_VARIANTS = ("001", "101", "011")
GUARD_VARIANTS = ("001", "110")


# ---------------------------------------------------------------------------
# Circuit graphs


@dataclass(frozen=True)
class BundleGate:
    a: Ref
    b: Ref
    variants: tuple[str, ...] = ALL_VARIANTS

    def __post_init__(self):
        for v in self.variants:
            if v not in ALL_VARIANTS:
                raise ValidationError(f"unknown lock variant {v!r}")
        if not self.variants:
            raise ValidationError("a gate needs at least one lock variant")


@dataclass(frozen=True)
class CircuitGraph:
    """NAND gates over x, y and earlier g; its owner checks the references."""

    gates: tuple[BundleGate, ...]
    outputs: tuple[int, ...]

    def values(self, x: Sequence[int], y: Sequence[int] = ()) -> list[int]:
        """Every gate's value, given input bits x and output displays y."""
        values: list[int] = []
        wires = {"x": x, "y": y, "g": values}
        for gate in self.gates:
            a, b = (wires[kind][idx] for kind, idx in (gate.a, gate.b))
            values.append(0 if (a and b) else 1)
        return values


def _check_gates(graph: CircuitGraph, name: str, readable: dict[str, Container]) -> None:
    """Validate the gate references of one circuit: the one wire rule.

    Every gate input is either ``(kind, i)`` with ``kind`` in `readable` and
    ``i in readable[kind]``, or ``("g", k)`` naming an earlier gate; every
    designated output names a gate.  Errors start with the circuit's `name`.
    """
    for k, gate in enumerate(graph.gates):
        for kind, idx in (gate.a, gate.b):
            if kind == "g":
                if not 0 <= idx < k:
                    raise ValidationError(
                        f"{name}: gate {k} must reference an earlier gate, got {idx}"
                    )
            elif kind not in readable:
                raise ValidationError(
                    f"{name}: gate {k} has unsupported input kind {kind!r}"
                )
            elif idx not in readable[kind]:
                raise ValidationError(
                    f"{name}: gate {k} reads {kind} {idx}, "
                    "which its circuit may not read"
                )
    for o in graph.outputs:
        if not 0 <= o < len(graph.gates):
            raise ValidationError(f"{name}: designated output {o} is not a gate")


def _ref_to_json(ref: Ref) -> dict:
    return {ref[0]: ref[1]}


def _ref_from_json(doc: dict) -> Ref:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValidationError(f"malformed gate input reference: {doc!r}")
    kind, idx = next(iter(doc.items()))
    return (kind, to_integer(idx, f"{kind} index"))


def _graph_to_json(graph: CircuitGraph, lockable: bool) -> dict:
    gates = []
    for g in graph.gates:
        gates.append({"a": _ref_to_json(g.a), "b": _ref_to_json(g.b)})
        if lockable:
            gates[-1]["variants"] = list(g.variants)
    return {"gates": gates, "outputs": list(graph.outputs)}


def _graph_from_json(doc: dict, lockable: bool) -> CircuitGraph:
    """A graph document; only a `lockable` (bundle) graph reads `variants`."""
    return CircuitGraph(
        tuple(
            BundleGate(
                _ref_from_json(g["a"]),
                _ref_from_json(g["b"]),
                tuple(g.get("variants", ALL_VARIANTS)) if lockable else ALL_VARIANTS,
            )
            for g in doc["gates"]
        ),
        tuple(to_integer(o, "output") for o in doc["outputs"]),
    )


# ---------------------------------------------------------------------------
# Flip instances


@dataclass(frozen=True)
class FlipInstance(CircuitGraph):
    """NAND circuit over input bits with weighted designated outputs.

    Built from ``(a, b)`` reference pairs; every gate allows all variants.
    """

    n_inputs: int

    def __init__(self, n_inputs: int, gates, outputs):
        gates = tuple(BundleGate(tuple(a), tuple(b)) for a, b in gates)
        outputs = tuple(to_integer(o, "output") for o in outputs)
        object.__setattr__(self, "n_inputs", to_integer(n_inputs, "inputs", least=1))
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "outputs", outputs)
        if not self.gates:
            raise ValidationError("circuit needs at least one gate")
        if not self.outputs:
            raise ValidationError("circuit needs at least one output")
        _check_gates(self, "circuit", {"x": range(self.n_inputs)})

    def eval_outputs(self, x: Sequence[int]) -> list[int]:
        if len(x) != self.n_inputs:
            raise ValidationError(
                f"input vector has length {len(x)}, expected {self.n_inputs}"
            )
        values = self.values(x)
        return [values[o] for o in self.outputs]


def flip_objective(circuit: FlipInstance, x: Sequence[int]) -> int:
    """Weighted output value: output j (1-based) contributes y_j * 2^(j-1)."""
    return sum(y << j for j, y in enumerate(circuit.eval_outputs(x)))


def flip_is_local_min(
    circuit: FlipInstance, x: Sequence[int]
) -> tuple[bool, Optional[int]]:
    """No single-bit flip strictly decreases the objective.

    Returns (is_local_min, improving bit index or None); the witness is the
    lowest improving bit.
    """
    base = flip_objective(circuit, x)
    x = list(x)
    for i in range(circuit.n_inputs):
        x[i] ^= 1
        better = flip_objective(circuit, x) < base
        x[i] ^= 1
        if better:
            return False, i
    return True, None


def flip_instance_to_dict(circuit: FlipInstance) -> dict:
    return {"inputs": circuit.n_inputs, **_graph_to_json(circuit, lockable=False)}


def flip_instance_from_dict(doc: dict) -> FlipInstance:
    try:
        n_inputs = doc["inputs"]
        graph = _graph_from_json(doc, lockable=False)
        return FlipInstance(n_inputs, [(g.a, g.b) for g in graph.gates], graph.outputs)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed circuit document: {exc}") from exc


def read_flip_instance(path: str) -> FlipInstance:
    return flip_instance_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# Latency value pairs


def pair_to_linear(at_one: int, at_two: int) -> LatencyFunction:
    """Affine function with f(1) = at_one and f(2) = at_two."""
    return LatencyFunction([2 * at_one - at_two, at_two - at_one])


# ---------------------------------------------------------------------------
# Bundles


CompKey = tuple[int, int, int]  # (output j, input i, target bit b), 0-based


def _check_key(key: CompKey, n_inputs: int, n_outputs: int) -> None:
    j, i, b = key
    integral = all(type(v) is int for v in key)
    if not (integral and 0 <= j < n_outputs and 0 <= i < n_inputs and b in (0, 1)):
        raise ValidationError(f"bad comparison key {key}")


@dataclass(frozen=True)
class Bundle:
    """Main circuit plus comparison circuits, the builder's direct input.

    ``comparisons[(j, i, b)]`` is the circuit of "rewriting bit i to b zeroes
    output j and keeps the higher outputs"; each yields a Controller strategy
    that locks its gates.  A circuit with gates designates one output.  The
    gateless circuit ``CircuitGraph((), ())`` is a predicate that always
    holds: its strategy locks no gate.  A missing slot is a predicate that
    never holds, and the Controller gets no strategy for it.

    Construction enforces the wire rule of every circuit: the main circuit
    reads any x and y, and comparison (j, i, b) reads every x but x_i and
    only the outputs y_j' with j' > j.
    """

    n_inputs: int
    n_outputs: int
    main: CircuitGraph
    comparisons: dict[CompKey, CircuitGraph] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "n_inputs", to_integer(self.n_inputs, "inputs", least=1))
        object.__setattr__(self, "n_outputs", to_integer(self.n_outputs, "outputs", least=1))
        if len(self.main.outputs) != self.n_outputs:
            raise ValidationError(
                f"main circuit designates {len(self.main.outputs)} outputs, "
                f"expected {self.n_outputs}"
            )
        inputs, outputs = range(self.n_inputs), range(self.n_outputs)
        _check_gates(self.main, "main circuit", {"x": inputs, "y": outputs})
        for key, comp in self.comparisons.items():
            _check_key(key, self.n_inputs, self.n_outputs)
            j, i, _ = key
            name = f"comparison {key}"
            if not isinstance(comp, CircuitGraph):
                raise ValidationError(f"{name} must be a CircuitGraph, got {comp!r}")
            if comp.gates and len(comp.outputs) != 1:
                raise ValidationError(f"{name} must designate exactly one output")
            _check_gates(comp, name, {"x": set(inputs) - {i}, "y": outputs[j + 1:]})

    def total_gates(self) -> int:
        return sum(len(c.gates) for c in (self.main, *self.comparisons.values()))


def bundle_to_dict(bundle: Bundle) -> dict:
    """The bundle document, with every (j, i, b) slot in key order."""
    comps = {}
    n, m = bundle.n_inputs, bundle.n_outputs
    for key in itertools.product(range(m), range(n), (0, 1)):
        comp = bundle.comparisons.get(key)
        comps["{},{},{}".format(*key)] = (
            _graph_to_json(comp, lockable=True)
            if comp is not None and comp.gates
            else {"const": int(comp is not None)}
        )
    return {
        "inputs": n,
        "outputs": m,
        "main": _graph_to_json(bundle.main, lockable=True),
        "comparisons": comps,
    }


def bundle_from_dict(doc: dict) -> Bundle:
    try:
        n, m = (to_integer(doc[name], name) for name in ("inputs", "outputs"))
        comps: dict[CompKey, CircuitGraph] = {}
        for text, cdoc in doc.get("comparisons", {}).items():
            # One spelling per key, so that "00,0,1" cannot replace "0,0,1".
            match = re.fullmatch("([0-9]+),([0-9]+),([0-9]+)", text)
            key = tuple(int(digits) for digits in match.groups()) if match else None
            if key is None or text != "{},{},{}".format(*key):
                raise ValidationError(f"bad comparison key {text!r}")
            _check_key(key, n, m)  # the only check of a {"const": 0} key
            if "const" not in cdoc:
                comps[key] = _graph_from_json(cdoc, lockable=True)
            elif "gates" in cdoc:
                raise ValidationError(f"comparison {text} has both const and gates")
            elif (const := to_integer(cdoc["const"], "const")) not in (0, 1):
                raise ValidationError("constant comparison must be 0 or 1")
            elif const:
                comps[key] = CircuitGraph((), ())
        return Bundle(n, m, _graph_from_json(doc["main"], lockable=True), comps)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed bundle document: {exc}") from exc


# ---------------------------------------------------------------------------
# Deriving comparison circuits from a Flip instance


class _NandBuilder:
    """Accumulates NAND gates with structural deduplication."""

    def __init__(self):
        self.gates: list[tuple[Ref, Ref]] = []
        self._memo: dict[tuple[Ref, Ref], int] = {}

    def nand(self, a, b):
        """NAND over 0, 1 or symbolic refs; it returns 0, 1 or a ("g", k) ref."""
        if a == 0 or b == 0:
            return 1
        if a == 1 and b == 1:
            return 0
        if a == 1:
            return self.nand(b, b)
        if b == 1:
            return self.nand(a, a)
        key = (tuple(a), tuple(b))
        if key not in self._memo:
            self.gates.append((tuple(a), tuple(b)))
            self._memo[key] = len(self.gates) - 1
        return ("g", self._memo[key])

    def inv(self, a):
        return self.nand(a, a)

    def and_(self, a, b):
        return self.inv(self.nand(a, b))

    def xnor(self, a, b):
        inner = self.nand(a, b)
        return self.inv(self.nand(self.nand(a, inner), self.nand(b, inner)))


def derive_subcircuits(circuit: FlipInstance) -> Bundle:
    """The bundle for a Flip instance.

    Main circuit: the instance's gates, lockable in all four variants, plus,
    per output j, a consistency guard gate NAND(y_j, output-gate-j) whose
    lock variants are restricted to the two display-matches-value rows; a
    main circuit thus only locks fully when every output player displays the
    value the circuit computes.

    Comparison (j, i, b): evaluates the instance's gate graph with input i
    hardwired to b (constant folding included) and assembles the predicate

        NOT(output_j after rewrite) AND (output_j' after rewrite == y_j'
                                         for every higher output j')

    over the remaining inputs and the higher output displays.  The designated
    output gate keeps only the lock variants of the polarity that encodes
    "predicate holds": for the highest output no negation is materialized and
    the rewritten output is locked at value 0 directly, which keeps those
    circuits at a single gate; otherwise the predicate gate is locked at
    value 1.  Either way the circuit locks fully exactly when the predicate
    holds.  A predicate that always holds is the gateless circuit, and one
    that never holds gets no entry.
    """
    n, m = circuit.n_inputs, len(circuit.outputs)
    guards = tuple(
        BundleGate(("y", j), ("g", out), GUARD_VARIANTS)
        for j, out in enumerate(circuit.outputs)
    )
    main = CircuitGraph(circuit.gates + guards, circuit.outputs)

    comparisons: dict[CompKey, CircuitGraph] = {}
    for key in itertools.product(range(m), range(n), (0, 1)):
        comp = _derive_comparison(circuit, *key)
        if comp is not None:
            comparisons[key] = comp
    return Bundle(n, m, main, comparisons)


def _derive_comparison(
    circuit: FlipInstance, j: int, i: int, b: int
) -> Optional[CircuitGraph]:
    """Comparison (j, i, b), or None when its predicate never holds."""
    builder = _NandBuilder()
    values: list = []
    for gate in circuit.gates:
        def resolve(ref):
            if ref[0] == "x":
                return b if ref[1] == i else ref
            return values[ref[1]]
        values.append(builder.nand(resolve(gate.a), resolve(gate.b)))
    out = values[circuit.outputs[j]]

    if j + 1 == len(circuit.outputs):
        # Lowest-possible footprint: represent the rewritten output itself
        # and mark it lockable only at value 0 (= the rewrite zeroes y_j).
        # A single-gate circuit has no internal edges, so its gate always
        # relaxes to the value it computes.
        locked, out_variants = 0, ("110",)
    else:
        locked, out_variants = 1, OUT1_VARIANTS
        out = builder.inv(out)
        for j2 in range(j + 1, len(circuit.outputs)):
            out = builder.and_(
                out, builder.xnor(values[circuit.outputs[j2]], ("y", j2))
            )
    if out in (0, 1):
        # A constant output holds exactly when it equals the locked value.
        return CircuitGraph((), ()) if out == locked else None
    gates = tuple(
        BundleGate(a, b2, out_variants if k == out[1] else ALL_VARIANTS)
        for k, (a, b2) in enumerate(builder.gates)
    )
    return CircuitGraph(gates, (out[1],))


# ---------------------------------------------------------------------------
# Gadget parameters


@dataclass(frozen=True)
class GadgetParams:
    """Scale ladder for the gadget latencies: alpha << beta << gamma << M.

    beta = alpha^(2K+1) where K is the bundle's total gate count, and
    gamma = 2*alpha*beta.  M = alpha^6 * gamma^(m+1) dominates every non-M
    table entry (the largest is 5 alpha^5 gamma^m) with headroom.
    """

    alpha: int
    beta: int
    gamma: int
    big_m: int

    @classmethod
    def for_bundle(
        cls,
        bundle: Bundle,
        rho: Fraction = Fraction(2),
        alpha: Optional[int] = None,
    ) -> "GadgetParams":
        """The ladder for `bundle`, for a factor rho >= 1.

        rho only sets alpha's floor, the least integer >= max(2, rho), which
        is also alpha's default.  A ladder whose largest value M^5 has more
        digits than the `core.digit_limit` cannot be written and raises
        ValidationError; one far over the limit is refused before any of it
        is built.
        """
        rho = to_factor(rho, "rho")
        floor = max(2, -(-rho.numerator // rho.denominator))  # ceil(rho)
        alpha = floor if alpha is None else to_integer(alpha, "alpha", least=floor)
        k_total = bundle.total_gates()
        m = bundle.n_outputs
        # M = alpha^6 * gamma^(m+1) = 2^twos * alpha^power, so
        # M^5 >= 2^(5 (twos + power (bits - 1))): the bit lengths refuse a far
        # too large M^5 at once; otherwise it has under twice the limit's bits
        # and is cheap to build and compare exactly.
        twos, power = m + 1, 6 + (2 * k_total + 2) * (m + 1)
        limit, largest = digit_limit(), "the game's largest value, M^5"
        if limit and 5 * (twos + power * (alpha.bit_length() - 1)) >= (
            10**limit
        ).bit_length():
            raise digit_limit_error(largest)
        beta = alpha ** (2 * k_total + 1)
        gamma = 2 * alpha * beta
        params = cls(alpha, beta, gamma, 2**twos * alpha**power)
        if limit and params.largest_value >= 10**limit:
            raise digit_limit_error(largest)
        return params

    def __post_init__(self):
        if not self.alpha < self.beta < self.gamma < self.big_m:
            raise ValidationError(
                "scale ladder violated: need alpha < beta < gamma < M, got "
                + ", ".join(map(format_rational, astuple(self)))
            )

    @property
    def largest_value(self) -> int:
        """M^5, the largest latency value `build_flip_game` writes."""
        return self.big_m**5


# ---------------------------------------------------------------------------
# The game builder


class _GameAssembler:
    def __init__(self):
        self.resource_names: list[str] = []
        self.resource_pairs: list[tuple[int, int]] = []
        self._index: dict[str, int] = {}
        self.player_labels: list[str] = []
        self.strategy_labels: list[list[str]] = []
        self.strategies: list[list[list[int]]] = []

    def resource(self, name: str, at_one: int, at_two: int) -> int:
        pair = (at_one, at_two)
        if name in self._index:
            idx = self._index[name]
            if self.resource_pairs[idx] != pair:
                raise ValidationError(
                    f"resource {name} redefined with different latencies"
                )
            return idx
        self._index[name] = len(self.resource_names)
        self.resource_names.append(name)
        self.resource_pairs.append(pair)
        return self._index[name]

    def player(self, label: str) -> int:
        self.player_labels.append(label)
        self.strategy_labels.append([])
        self.strategies.append([])
        return len(self.player_labels) - 1

    def strategy(self, player: int, label: str, resources: list[int]) -> None:
        self.strategy_labels[player].append(label)
        self.strategies[player].append(resources)


def build_flip_game(
    bundle: Bundle, params: GadgetParams
) -> tuple[CongestionGame, dict]:
    """Materialize the gadget tables for `bundle` into a hardness-mode game.

    Returns the game and a labels side-table mapping player, strategy, and
    resource indices to gadget names for debugging and for reading solutions
    back out (input players' strategy 0 is always their One).  `params` must
    be the ladder `GadgetParams.for_bundle` gives `bundle` at its alpha.

    Resources with the same value pair share one `LatencyFunction`, so the
    game checks and evaluates each distinct pair once: a built game has
    hundreds of resources but a few dozen pairs.
    """
    if params != GadgetParams.for_bundle(bundle, alpha=params.alpha):
        raise ValidationError(
            f"params were not sized for this bundle of {bundle.total_gates()} "
            f"gates and {bundle.n_outputs} outputs"
        )
    n, m = bundle.n_inputs, bundle.n_outputs
    alpha, beta, gamma, M = params.alpha, params.beta, params.gamma, params.big_m

    # Global gate ids: main circuit first, then comparisons in key order;
    # the circuit under `key` holds the gates in gate_ids[key], and gates[k]
    # is global gate k with its g references made global.
    circuits = [("main", bundle.main), *sorted(bundle.comparisons.items())]
    k_total = bundle.total_gates()

    # Resolve every gate input to a global (kind, idx); label[kind][idx]
    # names that provider in resource names.
    label = {
        "x": [f"X_{i + 1}" for i in range(n)],
        "y": [f"Y_{j + 1}" for j in range(m)],
        "g": [f"G_{k + 1}" for k in range(k_total)],
    }
    readers: dict[str, list[list[tuple[int, str]]]] = {
        kind: [[] for _ in names] for kind, names in label.items()
    }
    gate_ids: dict[Union[str, CompKey], range] = {}
    gates: list[BundleGate] = []
    for key, graph in circuits:
        base = len(gates)
        gate_ids[key] = range(base, base + len(graph.gates))
        for gate in graph.gates:
            a, b = (
                (kind, idx + base if kind == "g" else idx)
                for kind, idx in (gate.a, gate.b)
            )
            for slot, (kind, idx) in (("a", a), ("b", b)):
                readers[kind][idx].append((len(gates), slot))
            gates.append(BundleGate(a, b, gate.variants))
    main_gate_ids = gate_ids["main"]
    comp_gate_ids = range(len(main_gate_ids), k_total)

    asm = _GameAssembler()

    # Bit weights decrease along wires (gates are in topological order, so
    # readers always sit later in the global list): a gate displaying a wrong
    # value pays its own bit collision, which strictly exceeds every possible
    # re-settling collision at its readers, so unlocked gates always relax to
    # the value their inputs dictate.
    def bit(value: int, slot: str, k: int) -> int:
        return asm.resource(
            f"Bit{value}{slot}_{k + 1}", 0, alpha ** (2 * (k_total - k))
        )

    def lock_copy(value: int, slot: str, k: int, owner: str) -> int:
        return asm.resource(f"Lock{value}{slot}_{k + 1}({owner})", 0, M**3)

    def lock_gate(k: int, owner: str) -> int:
        pair = M**2 if owner == "Controller" else M
        return asm.resource(f"LockGate_{k + 1}({owner})", 0, pair)

    def trigger_lock(k: int, owner: str) -> int:
        return asm.resource(f"TriggerLockG_{k + 1}({owner})", 0, alpha**2)

    def trigger_unlock(k: int) -> int:
        return asm.resource(f"TriggerUnlockG_{k + 1}", alpha, alpha**3)

    def value_rows(kind: str, idx: int, value: int) -> list[int]:
        rows = []
        for k, slot in readers[kind][idx]:
            rows.append(bit(value, slot, k))
            rows.append(lock_copy(value, slot, k, label[kind][idx]))
        return rows

    comp_keys = [key for key, _ in circuits[1:]]

    def block_s(key: CompKey, y_owner: int) -> int:
        j, i, b = key
        return asm.resource(
            f"BlockS[{j + 1},{i + 1},{b}](Y_{y_owner + 1})", 0, M**2
        )

    def block_s0(j: int) -> int:
        return asm.resource(f"BlockS_0(Y_{j + 1})", 0, M**2)

    def block_y(j: int) -> int:
        return asm.resource(f"BlockY_{j + 1}", 0, M**2)

    def trigger_controller(j: int) -> int:
        return asm.resource(f"TriggerController(Y_{j + 1})", 1, beta**2)

    def trigger_y(j: int, owner: str) -> int:
        return asm.resource(
            f"TriggerY_{j + 1}({owner})", 0, 5 * alpha**5 * gamma ** (j + 1)
        )

    def trigger_done_y(j: int, y_owner: int) -> int:
        return asm.resource(f"TriggerDoneY_{j + 1}(Y_{y_owner + 1})", 0, M**4)

    def reset_done_y(j: int) -> int:
        return asm.resource(f"ResetDoneY_{j + 1}", 0, params.largest_value)

    def trigger_x(i: int, value: int, y_owner: int) -> int:
        name = f"TriggerX_{i + 1},{value}(Y_{y_owner + 1})"
        return asm.resource(name, 0, alpha * beta)

    def block_x(i: int, value: int, y_owner: int) -> int:
        return asm.resource(f"BlockX_{i + 1},{value}(Y_{y_owner + 1})", 0, M**4)

    def trigger_y_listen(j: int) -> list[int]:
        # All copies of Y_j's go-to-One channel: one per shouting source.
        return [trigger_y(j, "Controller")] + [
            trigger_y(j, f"Y_{j2 + 1}") for j2 in range(j + 1, m)
        ]

    # Controller -----------------------------------------------------------
    controller = asm.player("Controller")
    rows = [asm.resource("Lock_0", beta, beta)]
    rows += [block_s0(j) for j in range(m)]
    rows += [trigger_lock(k, "Controller") for k in comp_gate_ids]
    rows += [lock_gate(k, "Controller") for k in main_gate_ids]
    asm.strategy(controller, "LockS_0", rows)

    for key in comp_keys:
        j, i, b = key
        rows = [trigger_controller(j2) for j2 in range(m)]
        rows += [block_s(key, j2) for j2 in range(m)]
        rows.append(block_y(j))
        rows += [lock_gate(k, "Controller") for k in gate_ids[key]]
        asm.strategy(controller, f"LockS[{j + 1},{i + 1},{b}]", rows)

    rows = [asm.resource("Reset1", 2 * M, 2 * M)]
    rows += [trigger_y(j, "Controller") for j in range(m)]
    rows += [trigger_unlock(k) for k in range(k_total)]
    asm.strategy(controller, "Reset1", rows)

    rows = [asm.resource("Reset2", M, M)]
    rows += [reset_done_y(j) for j in range(m)]
    rows += [trigger_lock(k, "Controller") for k in main_gate_ids]
    asm.strategy(controller, "Reset2", rows)

    # Gate players ----------------------------------------------------------
    gate_player: list[int] = []
    for k in range(k_total):
        own = label["g"][k]
        p = asm.player(own)
        gate_player.append(p)
        for slot in "ab":
            rows = [bit(1, slot, k), lock_copy(1, slot, k, own)]
            asm.strategy(p, f"One{slot.upper()}", rows + value_rows("g", k, 1))
        rows = [bit(0, slot, k) for slot in "ab"]
        rows += [lock_copy(0, slot, k, own) for slot in "ab"]
        asm.strategy(p, "Zero", rows + value_rows("g", k, 0))

    # Lock players -----------------------------------------------------------
    lock_player: list[int] = []
    for k in range(k_total):
        p = asm.player(f"LockG_{k + 1}")
        lock_player.append(p)
        gate = gates[k]
        own = label["g"][k]
        for variant in ALL_VARIANTS:
            if variant not in gate.variants:
                continue
            va, vb, vo = (int(c) for c in variant)
            rows = [trigger_unlock(k)]
            rows.append(lock_copy(1 - vo, "a", k, own))
            rows.append(lock_copy(1 - vo, "b", k, own))
            rows.append(lock_copy(1 - va, "a", k, label[gate.a[0]][gate.a[1]]))
            rows.append(lock_copy(1 - vb, "b", k, label[gate.b[0]][gate.b[1]]))
            for ref in (gate.a, gate.b):
                if ref[0] == "g":
                    rows.append(lock_gate(ref[1], f"LockG_{k + 1}"))
            asm.strategy(p, f"Lock{variant}", rows)
        rows = [lock_gate(k, "Controller"), trigger_lock(k, "Controller")]
        if k in main_gate_ids:
            rows += [trigger_lock(k, f"Y_{j + 1}") for j in range(m)]
        for r, _slot in readers["g"][k]:
            rows.append(lock_gate(k, f"LockG_{r + 1}"))
        asm.strategy(p, "Unlock", rows)

    # Input players -----------------------------------------------------------
    x_player: list[int] = []
    for i in range(n):
        p = asm.player(label["x"][i])
        x_player.append(p)
        for value, strat_label in ((1, "One"), (0, "Zero")):
            rows = [trigger_x(i, 1 - value, j) for j in range(m)]
            rows += [block_x(i, value, j) for j in range(m)]
            rows += value_rows("x", i, value)
            asm.strategy(p, strat_label, rows)

    # Output players ----------------------------------------------------------
    y_player: list[int] = []
    for j in range(m):
        own = label["y"][j]
        p = asm.player(own)
        y_player.append(p)
        scale = gamma ** (j + 1)
        one = 4 * alpha**4 * scale
        change = 3 * alpha**3 * scale
        check = 2 * alpha**2 * scale
        one_rows = [asm.resource(f"One_{j + 1}", one, one)]
        one_rows += value_rows("y", j, 1)
        asm.strategy(p, "One", one_rows)

        for i in range(n):
            for b in (0, 1):
                rows = [
                    asm.resource(f"Change_{j + 1}", change, change),
                    block_s0(j),
                    trigger_x(i, b, j),
                    reset_done_y(j),
                ]
                rows += trigger_y_listen(j)
                rows += [trigger_y(j2, own) for j2 in range(j)]
                rows += [block_s(key, j) for key in comp_keys if key != (j, i, b)]
                rows += value_rows("y", j, 1)
                asm.strategy(p, f"Change[{j + 1},{i + 1},{b}]", rows)

        for i in range(n):
            for b in (0, 1):
                rows = [
                    asm.resource(f"Check_{j + 1}", check, check),
                    block_x(i, 1 - b, j),
                    trigger_controller(j),
                    reset_done_y(j),
                ]
                rows += trigger_y_listen(j)
                rows += [trigger_done_y(j2, j) for j2 in range(j)]
                rows += [block_s(key, j) for key in comp_keys if key != (j, i, b)]
                rows += value_rows("y", j, 0)
                rows += [trigger_lock(k, own) for k in main_gate_ids]
                asm.strategy(p, f"Check[{j + 1},{i + 1},{b}]", rows)

        rows = trigger_y_listen(j)
        rows += [trigger_done_y(j, j2) for j2 in range(j + 1, m)]
        rows.append(block_y(j))
        rows.append(reset_done_y(j))
        rows += value_rows("y", j, 0)
        asm.strategy(p, "Zero", rows)

    functions = {pair: pair_to_linear(*pair) for pair in set(asm.resource_pairs)}
    resources = [functions[pair] for pair in asm.resource_pairs]
    game = CongestionGame(resources, asm.strategies, mode="hardness")
    labels = {
        "players": asm.player_labels,
        "strategies": asm.strategy_labels,
        "resources": asm.resource_names,
        "controller": controller,
        "gate_players": gate_player,
        "lock_players": lock_player,
        "x_players": x_player,
        "y_players": y_player,
    }
    return game, labels


def read_input_bits(labels: dict, choices: Sequence[int]) -> list[int]:
    """Decode the input vector displayed by the X players (One first)."""
    return [1 if choices[p] == 0 else 0 for p in labels["x_players"]]


def enumeration_order(labels: dict) -> list[int]:
    """Player priority for exhaustive equilibrium search.

    Hub players (Controller, inputs, outputs) first, then each gate right
    before its lock player in wiring order.  It is a priority, not the order
    searched: `verify.enumerate_equilibria` starts with the Controller and
    then places the player sharing a resource with the most placed ones,
    breaking ties by this list, so the wiring order decides among equals.
    Every resource of a built game has at most two users, so the hubs are
    tested against cost bounds long before their last gate is placed
    (`verify.enumerate_equilibria` says when a player is tested).
    """
    order = [labels["controller"]] + list(labels["x_players"])
    order += list(labels["y_players"])
    for g, lk in zip(labels["gate_players"], labels["lock_players"]):
        order += [g, lk]
    return order


# ---------------------------------------------------------------------------
# Positivizing rescale and structural checks


def positivize(game: CongestionGame, alpha: int) -> CongestionGame:
    """Remove zero latency values: zeros become 1, everything else scales.

    Every value of every resource at loads one and two is multiplied by
    |E| * alpha, except values equal to zero, which are replaced by 1.  All
    strict cost preferences between a player's strategies survive, since the
    scaled gaps are at least |E|*alpha while the +1 adjustments total less
    than |E|.
    """
    if game.mode != "hardness":
        raise ValidationError("positivize expects a hardness-mode game")
    alpha = to_integer(alpha, "alpha", least=2)
    scale = game.n_resources * alpha
    # One new function per function object: a shared function stays shared.
    scaled: dict[int, LatencyFunction] = {}
    for f in game.resources:
        if id(f) not in scaled:
            a, b = f.eval(1), f.eval(2)  # ints: hardness values are integral
            new_a = 1 if a == 0 else a * scale
            new_b = 1 if b == 0 else b * scale
            scaled[id(f)] = pair_to_linear(new_a, new_b)
    new_resources = [scaled[id(f)] for f in game.resources]
    return CongestionGame(new_resources, game.players, mode="hardness")


@dataclass
class StructuralReport:
    passed: bool
    max_players_per_resource: int
    sharing_offenders: list[dict]


def structural_check(game: CongestionGame) -> StructuralReport:
    """Verify the two-players-per-resource property.

    Counts, per resource, the distinct players whose strategy sets mention
    it; passes iff the maximum is at most two.  An empty game passes
    vacuously.  Latency values need no check here: `CongestionGame`
    enforces non-negative values at every reachable load in hardness mode.
    """
    users = game.users
    counts = [len(s) for s in users]
    offenders = [
        {"resource": e, "players": sorted(users[e])}
        for e in range(game.n_resources)
        if counts[e] > 2
    ]
    return StructuralReport(
        passed=not offenders,
        max_players_per_resource=max(counts, default=0),
        sharing_offenders=offenders,
    )

"""Flip local search and the circuit-to-game hardness construction.

The Flip problem asks for a local minimum of the weighted output value of a
NAND circuit under single-bit flips of its input vector.  This module turns
circuit bundles into congestion games (hardness mode: affine latencies with
possibly negative offsets) whose exact equilibria encode Flip local minima.

A bundle consists of a *main* circuit (the Flip instance, plus one
consistency guard gate per output) and one *comparison* circuit per
(output j, input i, target bit b).  A comparison circuit evaluates, over the
unflipped input bits, whether rewriting bit i to b would switch output j to
zero while leaving higher outputs unchanged; by construction it never reads
bit i itself (the rewrite is hardwired) nor outputs <= j.  Bundles are
normally produced by `derive_subcircuits`, but any bundle with the same
interface is accepted, so hand-built bundles remain the authoritative input.

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

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import CongestionGame, LatencyFunction, to_fraction, to_index
from .errors import ValidationError
from .serialize import load_json

Ref = tuple[str, int]  # ("x", i) | ("y", j) | ("g", k), all 0-based

ALL_VARIANTS = ("001", "101", "011", "110")
OUT1_VARIANTS = ("001", "101", "011")
GUARD_VARIANTS = ("001", "110")


# ---------------------------------------------------------------------------
# Flip instances


@dataclass(frozen=True)
class FlipInstance:
    """NAND circuit over input bits with weighted designated outputs."""

    n_inputs: int
    gates: tuple[tuple[Ref, Ref], ...]
    outputs: tuple[int, ...]

    def __init__(self, n_inputs: int, gates, outputs):
        gates = tuple((tuple(a), tuple(b)) for a, b in gates)
        outputs = tuple(to_index(o) for o in outputs)
        object.__setattr__(self, "n_inputs", to_index(n_inputs))
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "outputs", outputs)
        if self.n_inputs < 1:
            raise ValidationError("circuit needs at least one input")
        if not self.gates:
            raise ValidationError("circuit needs at least one gate")
        if not self.outputs:
            raise ValidationError("circuit needs at least one output")
        _check_gates(self.gates, self.outputs, {"x": self.n_inputs})

    def eval_gates(self, x: Sequence[int]) -> list[int]:
        if len(x) != self.n_inputs:
            raise ValidationError(
                f"input vector has length {len(x)}, expected {self.n_inputs}"
            )
        values: list[int] = []
        for a, b in self.gates:
            va = x[a[1]] if a[0] == "x" else values[a[1]]
            vb = x[b[1]] if b[0] == "x" else values[b[1]]
            values.append(0 if (va and vb) else 1)
        return values

    def eval_outputs(self, x: Sequence[int]) -> list[int]:
        values = self.eval_gates(x)
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


def _check_gates(
    gates: Sequence[tuple[Ref, Ref]],
    outputs: Sequence[int],
    sizes: dict[str, int],
) -> None:
    """Validate the gate references of one circuit.

    Every gate input is either ``(kind, i)`` with ``kind`` in `sizes` and
    ``0 <= i < sizes[kind]``, or ``("g", k)`` naming an earlier gate; every
    designated output names a gate.
    """
    for k, (a, b) in enumerate(gates):
        for kind, idx in (a, b):
            limit = k if kind == "g" else sizes.get(kind)
            if limit is None:
                raise ValidationError(f"gate {k} has unsupported input kind {kind!r}")
            if not 0 <= idx < limit:
                if kind == "g":
                    raise ValidationError(
                        f"gate {k} must reference an earlier gate, got {idx}"
                    )
                raise ValidationError(f"gate {k} reads unknown {kind} {idx}")
    for o in outputs:
        if not 0 <= o < len(gates):
            raise ValidationError(f"designated output {o} is not a gate")


def _ref_to_json(ref: Ref) -> dict:
    return {ref[0]: ref[1]}


def _ref_from_json(doc: dict) -> Ref:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValidationError(f"malformed gate input reference: {doc!r}")
    kind, idx = next(iter(doc.items()))
    return (kind, to_index(idx))


def flip_instance_to_dict(circuit: FlipInstance) -> dict:
    return {
        "inputs": circuit.n_inputs,
        "gates": [
            {"a": _ref_to_json(a), "b": _ref_to_json(b)} for a, b in circuit.gates
        ],
        "outputs": list(circuit.outputs),
    }


def flip_instance_from_dict(doc: dict) -> FlipInstance:
    try:
        return FlipInstance(
            doc["inputs"],
            [(_ref_from_json(g["a"]), _ref_from_json(g["b"])) for g in doc["gates"]],
            doc["outputs"],
        )
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
    """Gates over x, y and earlier g; the `Bundle` holding it checks them."""

    gates: tuple[BundleGate, ...]
    outputs: tuple[int, ...]


CompKey = tuple[int, int, int]  # (output j, input i, target bit b), 0-based
Comparison = Union[CircuitGraph, int]  # a graph, or the constant 0 / 1


@dataclass(frozen=True)
class Bundle:
    """Main circuit plus comparison circuits, the builder's direct input.

    ``comparisons[(j, i, b)]`` is a CircuitGraph with a single designated
    output, or the integer 0 or 1 for constant predicates.  A constant-0 (or
    missing) entry means "rewriting bit i to b never helps output j": the
    Controller simply gets no strategy for it.  A constant-1 entry yields a
    Controller strategy with no gate locks attached.
    """

    n_inputs: int
    n_outputs: int
    main: CircuitGraph
    comparisons: dict[CompKey, Comparison] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.main.outputs) != self.n_outputs:
            raise ValidationError(
                f"main circuit designates {len(self.main.outputs)} outputs, "
                f"expected {self.n_outputs}"
            )
        for (j, i, b), comp in self.comparisons.items():
            if not (0 <= j < self.n_outputs and 0 <= i < self.n_inputs and b in (0, 1)):
                raise ValidationError(f"bad comparison key {(j, i, b)}")
            if isinstance(comp, int):
                if comp not in (0, 1):
                    raise ValidationError(f"constant comparison must be 0 or 1")
            elif len(comp.outputs) != 1:
                raise ValidationError(
                    f"comparison {(j, i, b)} must designate exactly one output"
                )
        sizes = {"x": self.n_inputs, "y": self.n_outputs}
        for graph in (self.main, *self.comparisons.values()):
            if isinstance(graph, CircuitGraph):
                _check_gates(
                    [(g.a, g.b) for g in graph.gates], graph.outputs, sizes
                )

    def present_keys(self) -> list[CompKey]:
        """Comparison slots that yield a Controller strategy, sorted."""
        return sorted(
            key
            for key, comp in self.comparisons.items()
            if not (isinstance(comp, int) and comp == 0)
        )

    def total_gates(self) -> int:
        total = len(self.main.gates)
        for comp in self.comparisons.values():
            if isinstance(comp, CircuitGraph):
                total += len(comp.gates)
        return total


def bundle_to_dict(bundle: Bundle) -> dict:
    def graph_doc(graph: CircuitGraph) -> dict:
        return {
            "gates": [
                {
                    "a": _ref_to_json(g.a),
                    "b": _ref_to_json(g.b),
                    "variants": list(g.variants),
                }
                for g in graph.gates
            ],
            "outputs": list(graph.outputs),
        }

    comps = {}
    for (j, i, b) in sorted(bundle.comparisons):
        comp = bundle.comparisons[(j, i, b)]
        comps[f"{j},{i},{b}"] = (
            {"const": comp} if isinstance(comp, int) else graph_doc(comp)
        )
    return {
        "inputs": bundle.n_inputs,
        "outputs": bundle.n_outputs,
        "main": graph_doc(bundle.main),
        "comparisons": comps,
    }


def bundle_from_dict(doc: dict) -> Bundle:
    def graph(gdoc: dict) -> CircuitGraph:
        return CircuitGraph(
            tuple(
                BundleGate(
                    _ref_from_json(g["a"]),
                    _ref_from_json(g["b"]),
                    tuple(g.get("variants", ALL_VARIANTS)),
                )
                for g in gdoc["gates"]
            ),
            tuple(to_index(o) for o in gdoc["outputs"]),
        )

    try:
        comps: dict[CompKey, Comparison] = {}
        for key, cdoc in doc.get("comparisons", {}).items():
            match = re.fullmatch("([0-9]+),([0-9]+),([0-9]+)", key)
            if match is None:
                raise ValidationError(f"bad comparison key {key!r}")
            j, i, b = (int(digits) for digits in match.groups())
            comps[(j, i, b)] = (
                to_index(cdoc["const"]) if "const" in cdoc else graph(cdoc)
            )
        return Bundle(
            to_index(doc["inputs"]), to_index(doc["outputs"]), graph(doc["main"]), comps
        )
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
        """NAND over values that are 0, 1, or a symbolic ref."""
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

    def buffer(self, a):
        return self.inv(self.inv(a))


def derive_subcircuits(circuit: FlipInstance) -> Bundle:
    """Best-effort bundle for a Flip instance.

    Main circuit: a copy of the instance plus, per output j, a consistency
    guard gate NAND(y_j, output-gate-j) whose lock variants are restricted to
    the two display-matches-value rows; a main circuit thus only locks fully
    when every output player displays the value the circuit computes.

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
    holds.  Constant predicates are recorded as 0 or 1 without gates.
    """
    n, m = circuit.n_inputs, len(circuit.outputs)
    main_gates = [BundleGate(a, b) for a, b in circuit.gates]
    for j, out in enumerate(circuit.outputs):
        main_gates.append(BundleGate(("y", j), ("g", out), GUARD_VARIANTS))
    main = CircuitGraph(tuple(main_gates), tuple(circuit.outputs))

    comparisons: dict[CompKey, Comparison] = {}
    for j in range(m):
        for i in range(n):
            for b in (0, 1):
                comparisons[(j, i, b)] = _derive_comparison(circuit, j, i, b)
    return Bundle(n, m, main, comparisons)


def _derive_comparison(
    circuit: FlipInstance, j: int, i: int, b: int
) -> Comparison:
    builder = _NandBuilder()
    values: list = []
    for a_ref, b_ref in circuit.gates:
        def resolve(ref):
            if ref[0] == "x":
                return b if ref[1] == i else ref
            return values[ref[1]]
        values.append(builder.nand(resolve(a_ref), resolve(b_ref)))
    rewritten_j = values[circuit.outputs[j]]

    if j + 1 == len(circuit.outputs):
        # Lowest-possible footprint: represent the rewritten output itself
        # and mark it lockable only at value 0 (= the rewrite zeroes y_j).
        # A single-gate circuit has no internal edges, so its gate always
        # relaxes to the value it computes.
        if rewritten_j in (0, 1):
            return 1 - rewritten_j
        if rewritten_j[0] != "g":
            inverted = builder.inv(rewritten_j)  # displays NOT(literal)
            return _finish_comparison(builder, inverted, OUT1_VARIANTS, i, j)
        return _finish_comparison(builder, rewritten_j, ("110",), i, j)

    predicate = builder.inv(rewritten_j)
    for j2 in range(j + 1, len(circuit.outputs)):
        predicate = builder.and_(
            predicate, builder.xnor(values[circuit.outputs[j2]], ("y", j2))
        )
    if predicate in (0, 1):
        return predicate
    if predicate[0] != "g":
        predicate = builder.buffer(predicate)
    return _finish_comparison(builder, predicate, OUT1_VARIANTS, i, j)


def _finish_comparison(
    builder: _NandBuilder, out_ref, out_variants: tuple[str, ...], i: int, j: int
) -> CircuitGraph:
    out_idx = out_ref[1]
    gates = tuple(
        BundleGate(a, b2, out_variants if k == out_idx else ALL_VARIANTS)
        for k, (a, b2) in enumerate(builder.gates)
    )
    graph = CircuitGraph(gates, (out_idx,))
    for g in graph.gates:
        for ref in (g.a, g.b):
            if ref == ("x", i) or (ref[0] == "y" and ref[1] <= j):
                raise ValidationError("derived comparison reads a forbidden input")
    return graph


# ---------------------------------------------------------------------------
# Gadget parameters


@dataclass(frozen=True)
class GadgetParams:
    """Scale ladder for the gadget latencies: alpha << beta << gamma << M.

    beta = alpha^(2K+1) where K is the bundle's total gate count, and
    gamma = 2*alpha*beta.  M defaults to alpha^6 * gamma^(m+1), which
    dominates every non-M table entry (the largest is 5 alpha^5 gamma^m)
    with headroom; it can be overridden upward.
    """

    rho: Fraction
    alpha: int
    total_gates: int
    n_outputs: int
    beta: int
    gamma: int
    big_m: int

    @classmethod
    def for_bundle(
        cls,
        bundle: Bundle,
        rho: Fraction = Fraction(2),
        alpha: Optional[int] = None,
        big_m: Optional[int] = None,
    ) -> "GadgetParams":
        rho = to_fraction(rho)
        k_total = bundle.total_gates()
        m = bundle.n_outputs
        if alpha is None:
            alpha = max(2, -(-rho.numerator // rho.denominator))  # ceil(rho)
        if alpha < 2 or alpha < rho:
            raise ValidationError(
                f"alpha must be an integer >= max(rho, 2), got {alpha}"
            )
        beta = alpha ** (2 * k_total + 1)
        gamma = 2 * alpha * beta
        default_m = alpha**6 * gamma ** (m + 1)
        if big_m is None:
            big_m = default_m
        if big_m < default_m:
            raise ValidationError(
                f"M = {big_m} is below the default dominance threshold {default_m}"
            )
        return cls(rho, alpha, k_total, m, beta, gamma, big_m)

    def __post_init__(self):
        if not self.alpha < self.beta < self.gamma < self.big_m:
            raise ValidationError(
                "scale ladder violated: need alpha < beta < gamma < M, got "
                f"{self.alpha}, {self.beta}, {self.gamma}, {self.big_m}"
            )


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

    def resource(self, name: str, at_one: int, at_two: Optional[int]) -> int:
        pair = (at_one, at_one if at_two is None else at_two)
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
        self.strategies[player].append(sorted(set(resources)))


def build_flip_game(
    bundle: Bundle, params: GadgetParams
) -> tuple[CongestionGame, dict]:
    """Materialize the gadget tables for `bundle` into a hardness-mode game.

    Returns the game and a labels side-table mapping player, strategy, and
    resource indices to gadget names for debugging and for reading solutions
    back out (input players' strategy 0 is always their One).
    """
    if params.total_gates != bundle.total_gates():
        raise ValidationError(
            f"params were sized for {params.total_gates} gates, bundle has "
            f"{bundle.total_gates()}"
        )
    n, m = bundle.n_inputs, bundle.n_outputs
    alpha, beta, gamma, M = params.alpha, params.beta, params.gamma, params.big_m

    def comp_tag(key: CompKey) -> str:
        return f"{key[0]},{key[1]},{key[2]}"

    # Global gate table: main circuit first, then comparisons in key order.
    circuits: list[tuple[str, CircuitGraph]] = [("main", bundle.main)]
    for key in sorted(bundle.comparisons):
        comp = bundle.comparisons[key]
        if isinstance(comp, CircuitGraph):
            circuits.append((comp_tag(key), comp))

    gate_circuit: list[str] = []  # per global gate: circuit tag
    gate_info: list[BundleGate] = []
    local_to_global: dict[tuple[str, int], int] = {}
    for tag, graph in circuits:
        for local, gate in enumerate(graph.gates):
            local_to_global[(tag, local)] = len(gate_info)
            gate_circuit.append(tag)
            gate_info.append(gate)
    k_total = len(gate_info)
    main_gate_ids = [local_to_global[("main", k)] for k in range(len(bundle.main.gates))]
    comp_gate_ids = [k for k in range(k_total) if gate_circuit[k] != "main"]

    def glabel(k: int) -> str:
        return str(k + 1)

    # Resolve every gate input to a provider label used in resource names.
    x_label = [f"X_{i + 1}" for i in range(n)]
    y_label = [f"Y_{j + 1}" for j in range(m)]
    g_label = [f"G_{glabel(k)}" for k in range(k_total)]

    providers: list[tuple[tuple[str, int], tuple[str, int]]] = []
    readers: dict[str, list[list[tuple[int, str]]]] = {
        "x": [[] for _ in range(n)],
        "y": [[] for _ in range(m)],
        "g": [[] for _ in range(k_total)],
    }
    for k, gate in enumerate(gate_info):
        resolved = []
        for slot, (kind, idx) in (("a", gate.a), ("b", gate.b)):
            if kind == "g":
                idx = local_to_global[(gate_circuit[k], idx)]
            readers[kind][idx].append((k, slot))
            resolved.append((kind, idx))
        providers.append((resolved[0], resolved[1]))

    def provider_label(ref: tuple[str, int]) -> str:
        kind, idx = ref
        return {"x": x_label, "y": y_label, "g": g_label}[kind][idx]

    asm = _GameAssembler()

    # Bit weights decrease along wires (gates are in topological order, so
    # readers always sit later in the global list): a gate displaying a wrong
    # value pays its own bit collision, which strictly exceeds every possible
    # re-settling collision at its readers, so unlocked gates always relax to
    # the value their inputs dictate.
    def bit(value: int, slot: str, k: int) -> int:
        return asm.resource(
            f"Bit{value}{slot}_{glabel(k)}", 0, alpha ** (2 * (k_total - k))
        )

    def lock_copy(value: int, slot: str, k: int, owner: str) -> int:
        return asm.resource(f"Lock{value}{slot}_{glabel(k)}({owner})", 0, M**3)

    def lock_gate(k: int, owner: str) -> int:
        pair = M**2 if owner == "Controller" else M
        return asm.resource(f"LockGate_{glabel(k)}({owner})", 0, pair)

    def trigger_lock(k: int, owner: str) -> int:
        return asm.resource(f"TriggerLockG_{glabel(k)}({owner})", 0, alpha**2)

    def trigger_unlock(k: int) -> int:
        return asm.resource(f"TriggerUnlockG_{glabel(k)}", alpha, alpha**3)

    def value_rows(ref_kind: str, idx: int, value: int, owner: str) -> list[int]:
        rows = []
        for k, slot in readers[ref_kind][idx]:
            rows.append(bit(value, slot, k))
            rows.append(lock_copy(value, slot, k, owner))
        return rows

    present = bundle.present_keys()

    def block_s(key: CompKey, y_owner: int) -> int:
        j, i, b = key
        return asm.resource(
            f"BlockS[{j + 1},{i + 1},{b}](Y_{y_owner + 1})", 0, M**2
        )

    # Controller -----------------------------------------------------------
    controller = asm.player("Controller")
    rows = [asm.resource("Lock_0", beta, beta)]
    rows += [asm.resource(f"BlockS_0(Y_{j + 1})", 0, M**2) for j in range(m)]
    rows += [trigger_lock(k, "Controller") for k in comp_gate_ids]
    rows += [lock_gate(k, "Controller") for k in main_gate_ids]
    asm.strategy(controller, "LockS_0", rows)

    for key in present:
        j, i, b = key
        rows = [
            asm.resource(f"TriggerController(Y_{j2 + 1})", 1, beta**2)
            for j2 in range(m)
        ]
        rows += [block_s(key, j2) for j2 in range(m)]
        rows.append(asm.resource(f"BlockY_{j + 1}", 0, M**2))
        comp = bundle.comparisons[key]
        if isinstance(comp, CircuitGraph):
            tag = comp_tag(key)
            rows += [
                lock_gate(local_to_global[(tag, loc)], "Controller")
                for loc in range(len(comp.gates))
            ]
        asm.strategy(controller, f"LockS[{j + 1},{i + 1},{b}]", rows)

    rows = [asm.resource("Reset1", 2 * M, 2 * M)]
    rows += [
        asm.resource(f"TriggerY_{j + 1}(Controller)", 0, 5 * alpha**5 * gamma ** (j + 1))
        for j in range(m)
    ]
    rows += [trigger_unlock(k) for k in range(k_total)]
    asm.strategy(controller, "Reset1", rows)

    rows = [asm.resource("Reset2", M, M)]
    rows += [asm.resource(f"ResetDoneY_{j + 1}", 0, M**5) for j in range(m)]
    rows += [trigger_lock(k, "Controller") for k in main_gate_ids]
    asm.strategy(controller, "Reset2", rows)

    # Gate players ----------------------------------------------------------
    gate_player: list[int] = []
    for k in range(k_total):
        p = asm.player(g_label[k])
        gate_player.append(p)
        own = g_label[k]
        asm.strategy(
            p,
            "OneA",
            [bit(1, "a", k), lock_copy(1, "a", k, own)]
            + value_rows("g", k, 1, own),
        )
        asm.strategy(
            p,
            "OneB",
            [bit(1, "b", k), lock_copy(1, "b", k, own)]
            + value_rows("g", k, 1, own),
        )
        asm.strategy(
            p,
            "Zero",
            [
                bit(0, "a", k),
                bit(0, "b", k),
                lock_copy(0, "a", k, own),
                lock_copy(0, "b", k, own),
            ]
            + value_rows("g", k, 0, own),
        )

    # Lock players -----------------------------------------------------------
    lock_player: list[int] = []
    for k in range(k_total):
        p = asm.player(f"LockG_{glabel(k)}")
        lock_player.append(p)
        ref_a, ref_b = providers[k]
        own = g_label[k]
        for variant in ALL_VARIANTS:
            if variant not in gate_info[k].variants:
                continue
            va, vb, vo = (int(c) for c in variant)
            rows = [trigger_unlock(k)]
            rows.append(lock_copy(1 - vo, "a", k, own))
            rows.append(lock_copy(1 - vo, "b", k, own))
            rows.append(lock_copy(1 - va, "a", k, provider_label(ref_a)))
            rows.append(lock_copy(1 - vb, "b", k, provider_label(ref_b)))
            for ref in (ref_a, ref_b):
                if ref[0] == "g":
                    rows.append(lock_gate(ref[1], f"LockG_{glabel(k)}"))
            asm.strategy(p, f"Lock{variant}", rows)
        rows = [lock_gate(k, "Controller"), trigger_lock(k, "Controller")]
        if k in main_gate_ids:
            rows += [trigger_lock(k, f"Y_{j + 1}") for j in range(m)]
        for r, _slot in readers["g"][k]:
            rows.append(lock_gate(k, f"LockG_{glabel(r)}"))
        asm.strategy(p, "Unlock", rows)

    # Input players -----------------------------------------------------------
    x_player: list[int] = []
    for i in range(n):
        p = asm.player(x_label[i])
        x_player.append(p)
        for value, strat_label in ((1, "One"), (0, "Zero")):
            rows = [
                asm.resource(
                    f"TriggerX_{i + 1},{1 - value}(Y_{j + 1})", 0, alpha * beta
                )
                for j in range(m)
            ]
            rows += [
                asm.resource(f"BlockX_{i + 1},{value}(Y_{j + 1})", 0, M**4)
                for j in range(m)
            ]
            rows += value_rows("x", i, value, x_label[i])
            asm.strategy(p, strat_label, rows)

    # Output players ----------------------------------------------------------
    y_player: list[int] = []

    def trigger_y_listen(j: int) -> list[int]:
        # All copies of Y_j's go-to-One channel: one per shouting source.
        pair = 5 * alpha**5 * gamma ** (j + 1)
        rows = [asm.resource(f"TriggerY_{j + 1}(Controller)", 0, pair)]
        rows += [
            asm.resource(f"TriggerY_{j + 1}(Y_{j2 + 1})", 0, pair)
            for j2 in range(j + 1, m)
        ]
        return rows

    for j in range(m):
        p = asm.player(y_label[j])
        y_player.append(p)
        scale = gamma ** (j + 1)
        one_rows = [asm.resource(f"One_{j + 1}", 4 * alpha**4 * scale, None)]
        one_rows += value_rows("y", j, 1, y_label[j])
        asm.strategy(p, "One", one_rows)

        for i in range(n):
            for b in (0, 1):
                rows = [
                    asm.resource(f"Change_{j + 1}", 3 * alpha**3 * scale, None),
                    asm.resource(f"BlockS_0(Y_{j + 1})", 0, M**2),
                    asm.resource(
                        f"TriggerX_{i + 1},{b}(Y_{j + 1})", 0, alpha * beta
                    ),
                    asm.resource(f"ResetDoneY_{j + 1}", 0, M**5),
                ]
                rows += trigger_y_listen(j)
                rows += [
                    asm.resource(
                        f"TriggerY_{j2 + 1}(Y_{j + 1})",
                        0,
                        5 * alpha**5 * gamma ** (j2 + 1),
                    )
                    for j2 in range(j)
                ]
                rows += [block_s(key, j) for key in present if key != (j, i, b)]
                rows += value_rows("y", j, 1, y_label[j])
                asm.strategy(p, f"Change[{j + 1},{i + 1},{b}]", rows)

        for i in range(n):
            for b in (0, 1):
                rows = [
                    asm.resource(f"Check_{j + 1}", 2 * alpha**2 * scale, None),
                    asm.resource(
                        f"BlockX_{i + 1},{1 - b}(Y_{j + 1})", 0, M**4
                    ),
                    asm.resource(f"TriggerController(Y_{j + 1})", 1, beta**2),
                    asm.resource(f"ResetDoneY_{j + 1}", 0, M**5),
                ]
                rows += trigger_y_listen(j)
                rows += [
                    asm.resource(f"TriggerDoneY_{j2 + 1}(Y_{j + 1})", 0, M**4)
                    for j2 in range(j)
                ]
                rows += [block_s(key, j) for key in present if key != (j, i, b)]
                rows += value_rows("y", j, 0, y_label[j])
                rows += [trigger_lock(k, f"Y_{j + 1}") for k in main_gate_ids]
                asm.strategy(p, f"Check[{j + 1},{i + 1},{b}]", rows)

        rows = trigger_y_listen(j)
        rows += [
            asm.resource(f"TriggerDoneY_{j + 1}(Y_{j2 + 1})", 0, M**4)
            for j2 in range(j + 1, m)
        ]
        rows.append(asm.resource(f"BlockY_{j + 1}", 0, M**2))
        rows.append(asm.resource(f"ResetDoneY_{j + 1}", 0, M**5))
        rows += value_rows("y", j, 0, y_label[j])
        asm.strategy(p, "Zero", rows)

    resources = [pair_to_linear(a, b) for a, b in asm.resource_pairs]
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
    """Player order that makes exhaustive equilibrium search fast.

    Hub players (Controller, inputs, outputs) first, then each gate right
    before its lock player in wiring order, so every player's neighborhood
    completes within a few assignment levels.
    """
    order = [labels["controller"]] + list(labels["x_players"])
    order += list(labels["y_players"])
    for g, lk in zip(labels["gate_players"], labels["lock_players"]):
        order += [g, lk]
    return order


# ---------------------------------------------------------------------------
# Positivizing rescale and structural checks


def positivize(
    game: CongestionGame, alpha: int, resource_count: Optional[int] = None
) -> CongestionGame:
    """Remove zero latency values: zeros become 1, everything else scales.

    Every value of every resource at loads one and two is multiplied by
    |E| * alpha, except values equal to zero, which are replaced by 1.  All
    strict cost preferences between a player's strategies survive, since the
    scaled gaps are at least |E|*alpha while the +1 adjustments total less
    than |E|.
    """
    if game.mode != "hardness":
        raise ValidationError("positivize expects a hardness-mode game")
    if alpha < 2:
        raise ValidationError(f"alpha must be >= 2, got {alpha}")
    count = game.n_resources if resource_count is None else resource_count
    scale = count * alpha
    new_resources = []
    for f in game.resources:
        a, b = f.eval(1).numerator, f.eval(2).numerator  # integral in hardness mode
        new_a = 1 if a == 0 else a * scale
        new_b = 1 if b == 0 else b * scale
        new_resources.append(pair_to_linear(new_a, new_b))
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

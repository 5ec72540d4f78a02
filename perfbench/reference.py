"""Independent exact reference for the benchmark's correctness checks.

Nothing here imports `congames`: every value is recomputed from the JSON
files the package reads and writes, with plain `fractions.Fraction`
arithmetic, so a defect in the measured code cannot hide in its own check.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Optional, Sequence


class Instance:
    """Instance JSON parsed into coefficient lists and strategy tuples."""

    def __init__(self, doc: dict):
        self.coeffs = [[Fraction(c) for c in r["coeffs"]] for r in doc["resources"]]
        self.players = [
            [tuple(sorted(set(int(e) for e in s))) for s in p["strategies"]]
            for p in doc["players"]
        ]

    @classmethod
    def load(cls, path: str) -> "Instance":
        with open(path, "r", encoding="utf-8") as fp:
            return cls(json.load(fp))

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def degree(self) -> int:
        best = 0
        for cs in self.coeffs:
            d = len(cs) - 1
            while d > 0 and cs[d] == 0:
                d -= 1
            best = max(best, d)
        return best

    def latency(self, e: int, load: int) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs[e]):
            total = total * load + c
        return total

    def loads(self, choices: Sequence[int]) -> list[int]:
        loads = [0] * len(self.coeffs)
        for u, c in enumerate(choices):
            for e in self.players[u][c]:
                loads[e] += 1
        return loads

    def cost(self, loads: Sequence[int], strat: tuple, current: tuple) -> Fraction:
        """Cost of `strat` for a player who currently plays `current`."""
        inside = set(current)
        return sum(
            (self.latency(e, loads[e] if e in inside else loads[e] + 1) for e in strat),
            Fraction(0),
        )

    def rho_star(self, choices: Sequence[int]) -> Optional[Fraction]:
        """Worst cost/deviation ratio; None means infinite (0/0 counts as 1)."""
        loads = self.loads(choices)
        worst = Fraction(1)
        for u, c in enumerate(choices):
            current = self.players[u][c]
            cur = self.cost(loads, current, current)
            for alt in self.players[u]:
                dev = self.cost(loads, alt, current)
                if dev == 0:
                    if cur != 0:
                        return None
                    continue
                worst = max(worst, cur / dev)
        return worst

    def potential(self, choices: Sequence[int]) -> Fraction:
        total = Fraction(0)
        for e, k in enumerate(self.loads(choices)):
            for j in range(1, k + 1):
                total += self.latency(e, j)
        return total

    def min_potential(self) -> Fraction:
        """Global minimum of the Rosenthal potential by depth-first search."""
        n = self.n
        loads = [0] * len(self.coeffs)
        best: list[Optional[Fraction]] = [None]

        def descend(u: int, phi: Fraction) -> None:
            if u == n:
                if best[0] is None or phi < best[0]:
                    best[0] = phi
                return
            for strat in self.players[u]:
                delta = Fraction(0)
                for e in strat:
                    loads[e] += 1
                    delta += self.latency(e, loads[e])
                descend(u + 1, phi + delta)
                for e in strat:
                    loads[e] -= 1

        descend(0, Fraction(0))
        assert best[0] is not None
        return best[0]


def solver_bound(n: int, d: int, psi: int, theta: Optional[Fraction]) -> Fraction:
    """p(1 + 4/n^psi) with q = 1 + n^-psi; theta is 2q/(2-q) for d = 1."""
    eps = Fraction(1, n**psi)
    q = 1 + eps
    th = 2 * q / (2 - q) if d <= 1 else theta
    p = 1 / (1 / th - eps)
    return p * (1 + 4 * eps)


def solver_move_cap(n: int, d: int, psi: int) -> int:
    return 4 * 2 ** (2 * d + 2) * n ** (5 * psi + 3 * d + 3)


def block_count(inst: Instance, psi: int) -> int:
    """Number m of solver blocks, from solo (optimistic) costs."""
    n, d = inst.n, max(1, inst.degree)
    base = 2 ** (d + 1) * n ** (2 * psi + d + 1)
    ells = [
        min(sum((inst.latency(e, 1) for e in s), Fraction(0)) for s in strats)
        for strats in inst.players
    ]
    positive = [x for x in ells if x > 0]
    m, reach = 1, min(positive)
    while reach < max(positive):
        reach *= base
        m += 1
    return m


# ---------------------------------------------------------------------------
# NAND circuits and Flip local minima


def circuit_outputs(circuit: dict, x: Sequence[int]) -> list[int]:
    values: list[int] = []
    for gate in circuit["gates"]:
        ins = []
        for ref in (gate["a"], gate["b"]):
            (kind, idx), = ref.items()
            ins.append(x[idx] if kind == "x" else values[idx])
        values.append(0 if ins[0] and ins[1] else 1)
    return [values[o] for o in circuit["outputs"]]


def flip_value(circuit: dict, x: Sequence[int]) -> int:
    return sum(y << j for j, y in enumerate(circuit_outputs(circuit, x)))


def flip_local_minima(circuit: dict) -> list[tuple[int, ...]]:
    """Input vectors no single-bit flip strictly improves, in lex order."""
    n = circuit["inputs"]
    minima = []
    for x in itertools.product((0, 1), repeat=n):
        base = flip_value(circuit, x)
        if all(
            flip_value(circuit, x[:i] + (1 - x[i],) + x[i + 1:]) >= base
            for i in range(n)
        ):
            minima.append(x)
    return minima


def structural_problems(doc: dict) -> list[str]:
    """Resources mentioned by more than two players, or negative at loads 1, 2."""
    inst = Instance(doc)
    users: list[set[int]] = [set() for _ in inst.coeffs]
    for u, strats in enumerate(inst.players):
        for s in strats:
            for e in s:
                users[e].add(u)
    problems = [f"resource {e} has {len(s)} users" for e, s in enumerate(users) if len(s) > 2]
    for e in range(len(inst.coeffs)):
        for load in (1, 2):
            if inst.latency(e, load) < 0:
                problems.append(f"resource {e} is negative at load {load}")
    return problems

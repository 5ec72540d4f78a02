"""Span tracing around the package's public functions, from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper and
`uninstall()` puts the originals back.  Modules bind names at import time
(`solver` imports `find_threshold_move`, `verify` imports
`epsilon_br_dynamics`, the package root re-exports most names), so a module
level function is replaced under every `congames.*` name that is bound to it,
not only in its defining module.  Methods and classmethods are replaced on
their class.

Spans are aggregated in memory per span name: calls, busy time (outermost
spans of that name only) and self time (span time minus the time of its
direct child spans).  A few spans also record counts taken from their
arguments or results.
"""

from __future__ import annotations

import math
import os
import sys
import time

# (span name, module, class or None, attribute)
TARGETS = (
    ("core.latency_eval", "core", "LatencyFunction", "eval"),
    ("core.deviation_cost", "core", "CongestionGame", "deviation_cost"),
    ("core.player_cost", "core", "CongestionGame", "player_cost"),
    ("core.potential", "core", "CongestionGame", "potential"),
    ("core.state_apply", "core", "State", "apply"),
    ("core.game_init", "core", "CongestionGame", "__init__"),
    ("core.subgame", "core", "SubgameView", "freeze"),
    ("core.subgame", "core", "SubgameView", "player_cost"),
    ("core.subgame", "core", "SubgameView", "deviation_cost"),
    ("core.subgame", "core", "SubgameView", "potential"),
    ("dynamics.threshold", "dynamics", None, "find_threshold_move"),
    ("dynamics.best_response", "dynamics", None, "best_response"),
    ("dynamics.eps_br", "dynamics", None, "epsilon_br_dynamics"),
    ("solver.solve", "solver", None, "solve"),
    ("verify.approx_factor", "verify", None, "approximation_factor"),
    ("verify.brute", "verify", None, "brute_min_potential"),
    ("verify.enum", "verify", None, "enumerate_equilibria"),
    ("verify.audit", "verify", None, "audit_identities"),
    ("hardness.derive", "hardness", None, "derive_subcircuits"),
    ("hardness.build", "hardness", None, "build_flip_game"),
    ("hardness.structural", "hardness", None, "structural_check"),
    ("generators.generate", "generators", None, "generate"),
    ("serialize.read", "serialize", None, "read_instance"),
    ("serialize.read", "serialize", None, "read_state"),
    ("serialize.write", "serialize", None, "write_instance"),
    ("serialize.write", "serialize", None, "write_state"),
    ("serialize.write", "serialize", None, "dump_json"),
    ("cli", "cli", None, "main"),
)

# Workloads on whose items each span must record calls; on the others it
# must record none.  generators.generate is checked on the set-up instead.
EXPECTED_USE = {
    "core.latency_eval": {"solve", "oracle", "flip"},
    "core.deviation_cost": {"solve", "oracle"},
    "core.player_cost": {"solve", "oracle"},
    "core.potential": {"solve", "oracle"},
    "core.state_apply": {"solve", "oracle"},
    "core.game_init": {"solve", "oracle", "flip"},
    "core.subgame": {"oracle"},
    "dynamics.threshold": {"solve", "oracle"},
    "dynamics.best_response": {"solve", "oracle"},
    "dynamics.eps_br": {"oracle"},
    "solver.solve": {"solve"},
    "verify.approx_factor": {"solve"},
    "verify.brute": {"oracle"},
    "verify.enum": {"oracle", "flip"},
    "verify.audit": {"oracle"},
    "hardness.derive": {"flip"},
    "hardness.build": {"flip"},
    "hardness.structural": {"flip"},
    "serialize.read": {"solve", "oracle"},
    "serialize.write": {"flip"},
    "cli": {"solve", "oracle", "flip"},
}
EXPECTED_SETUP_USE = {"generators.generate": {"solve", "oracle"}}

# Spans whose arguments or results feed a count (see Tracer._after).
COUNTED = {
    "dynamics.threshold", "dynamics.eps_br", "solver.solve", "verify.brute",
    "verify.enum", "verify.audit", "hardness.build", "serialize.write",
}


class SpanStats:
    __slots__ = ("calls", "busy", "self_time", "depth", "counts")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.counts: dict[str, float] = {}

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name, *_ in TARGETS}
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- hooks: counts read from arguments and results ---------------------

    def _before(self, name, args, kwargs):
        if name == "solver.solve":
            return self.stats["dynamics.threshold"].calls
        if name == "serialize.write" and args and hasattr(args[-1], "tell"):
            return args[-1].tell()  # dump_json(doc, fp)
        return None

    def _after(self, name, stat, args, kwargs, result, token, outermost):
        if name == "dynamics.threshold":
            stat.add("hits", result is not None)
        elif name == "dynamics.eps_br":
            stat.add("moves", result.n_moves)
        elif name == "solver.solve":
            stat.add("moves", result.n_moves)
            stat.add("blocks_m", result.parameters["m"])
            stat.add("phases_with_moves", sum(1 for p in result.phases if p["moves"] > 0))
            stat.add("checks", self.stats["dynamics.threshold"].calls - token)
        elif name == "verify.brute":
            stat.add("states", math.prod(len(s) for s in args[0].players))
        elif name == "verify.enum":
            stat.add("states_found", len(result))
        elif name == "verify.audit":
            stat.add("trials", result.rosenthal.trials)
        elif name == "hardness.build":
            stat.add("gates", args[0].total_gates())
            stat.add("players", result[0].n_players)
            stat.add("resources", result[0].n_resources)
        elif name == "serialize.write" and outermost:
            if token is not None:
                stat.add("bytes", args[-1].tell() - token)
            else:
                path = kwargs.get("path", args[1] if len(args) > 1 else None)
                stat.add("bytes", os.path.getsize(path))

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat, stack, perf = self.stats[name], self._stack, time.perf_counter
        hooked = name in COUNTED
        tracer = self

        def wrapper(*args, **kwargs):
            token = tracer._before(name, args, kwargs) if hooked else None
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += elapsed - frame[0]
                if stat.depth == 0:
                    stat.busy += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if hooked:
                tracer._after(name, stat, args, kwargs, result, token, stat.depth == 0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "congames" and m]
        for name, module, cls_name, attr in TARGETS:
            owner = sys.modules[f"congames.{module}"]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_metrics(items: Tracer, setup: Tracer) -> dict[str, float]:
    """Per-layer metrics from the traced items (and, for generators, set-up)."""
    s = items.stats

    def ratio(num, den):
        return num / den if den else 0.0

    solve = s["solver.solve"]
    brute = s["verify.brute"]
    return {
        "core.latency_evals": s["core.latency_eval"].calls,
        "core.latency_eval.busy_s": s["core.latency_eval"].busy,
        "core.deviation_cost.calls": s["core.deviation_cost"].calls,
        "core.deviation_cost.self_s": s["core.deviation_cost"].self_time,
        "core.player_cost.calls": s["core.player_cost"].calls,
        "core.player_cost.self_s": s["core.player_cost"].self_time,
        "core.potential.calls": s["core.potential"].calls,
        "core.potential.self_s": s["core.potential"].self_time,
        "core.state_apply.calls": s["core.state_apply"].calls,
        "core.state_apply.self_s": s["core.state_apply"].self_time,
        "core.subgame.self_s": s["core.subgame"].self_time,
        "core.game_init.calls": s["core.game_init"].calls,
        "core.game_init.busy_s": s["core.game_init"].busy,
        "dynamics.threshold_checks": s["dynamics.threshold"].calls,
        "dynamics.threshold_hits": int(s["dynamics.threshold"].counts.get("hits", 0)),
        "dynamics.hit_ratio": ratio(
            int(s["dynamics.threshold"].counts.get("hits", 0)), s["dynamics.threshold"].calls
        ),
        "dynamics.best_response.calls": s["dynamics.best_response"].calls,
        "dynamics.best_response.self_s": s["dynamics.best_response"].self_time,
        "dynamics.eps_br.calls": s["dynamics.eps_br"].calls,
        "dynamics.eps_br.self_s": s["dynamics.eps_br"].self_time,
        "dynamics.eps_br.moves": int(s["dynamics.eps_br"].counts.get("moves", 0)),
        "solver.solve.self_s": solve.self_time,
        "solver.moves": int(solve.counts.get("moves", 0)),
        "solver.blocks_m": ratio(int(solve.counts.get("blocks_m", 0)), solve.calls),
        "solver.phases_with_moves": int(solve.counts.get("phases_with_moves", 0)),
        "solver.checks_per_move": ratio(
            int(solve.counts.get("checks", 0)), int(solve.counts.get("moves", 0))
        ),
        "verify.approx_factor.calls": s["verify.approx_factor"].calls,
        "verify.approx_factor.busy_s": s["verify.approx_factor"].busy,
        "verify.brute.busy_s": brute.busy,
        "verify.brute.states": int(brute.counts.get("states", 0)),
        "verify.brute.states_per_s": brute.counts.get("states", 0) / brute.busy if brute.busy else 0.0,
        "verify.enum.busy_s": s["verify.enum"].busy,
        "verify.enum.states_found": int(s["verify.enum"].counts.get("states_found", 0)),
        "verify.audit.self_s": s["verify.audit"].self_time,
        "verify.audit.trials": int(s["verify.audit"].counts.get("trials", 0)),
        "hardness.derive.busy_s": s["hardness.derive"].busy,
        "hardness.build.self_s": s["hardness.build"].self_time,
        "hardness.structural.busy_s": s["hardness.structural"].busy,
        "hardness.gates": int(s["hardness.build"].counts.get("gates", 0)),
        "hardness.game_players": int(s["hardness.build"].counts.get("players", 0)),
        "hardness.game_resources": int(s["hardness.build"].counts.get("resources", 0)),
        "generators.generate.busy_s": setup.stats["generators.generate"].busy,
        "serialize.read.busy_s": s["serialize.read"].busy,
        "serialize.write.busy_s": s["serialize.write"].busy,
        "serialize.bytes_written": int(s["serialize.write"].counts.get("bytes", 0)),
        "cli.self_s": s["cli"].self_time,
    }


def wiring_problems(workload: str, items: Tracer, setup: Tracer) -> list[str]:
    """Spans that recorded calls where none are predicted, or none where some are."""
    problems = []
    for tracer, table in ((items, EXPECTED_USE), (setup, EXPECTED_SETUP_USE)):
        for name, users in table.items():
            calls = tracer.stats[name].calls
            if (workload in users) != (calls > 0):
                expect = "calls" if workload in users else "no calls"
                problems.append(f"{name}: {calls} calls, expected {expect} on {workload}")
    return problems

"""The three benchmark workloads: seeded set-up, timed items, untimed checks.

Each workload's set-up writes its inputs as files and returns a list of
rounds.  A round is a fixed mix of item kinds, so any whole number of rounds
has the same composition; the timed loop runs whole rounds.  An item is one
user-visible unit of work (a CLI call or a short chain of calls) that reads
its inputs from the files, so per-game lazy costs are paid inside the item.
Checks run outside the timed region and compare against `reference`, which
does not import the package.

The package is called through module attributes (`verify.enumerate_equilibria`)
so that the tracer's patched functions are the ones that run.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

from congames import cli, generators, hardness, serialize, solver, verify

import instances
import reference
from instances import PSI

D2_THETA = "3"
AUDIT_TRIALS = 10
FLIP_BUDGET = 10**12
MID_GATES = (33, 37)  # bundle gate count window of the flip-gen circuits


class SetupError(Exception):
    """The generated inputs do not have the property the workload claims."""


@dataclass
class Item:
    key: str
    kind: str
    files: dict
    meta: dict = field(default_factory=dict)


def _call_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2)
        fp.write("\n")


def _fields(line: str) -> dict:
    return dict(re.findall(r"(\w+)=(\S+)", line))


# ---------------------------------------------------------------------------
# solve: the phased solver on random and tiered games, through `congames solve`

# (family, n, d) per slot.  Tiered games have nearly fixed solve times, and
# the three n=72 ones hold the middle of a round, so item_p50_ms falls inside
# their cluster; the random games' times vary with their move counts.
SOLVE_ROUND = (
    ("gen", 48, 2),
    ("gen", 64, 1), ("gen", 64, 1),
    ("gen", 128, 1),
    ("tiered", 72, instances.D), ("tiered", 72, instances.D), ("tiered", 72, instances.D),
    ("tiered", 96, instances.D),
    ("gen", 256, 1), ("gen", 256, 1),
)


def setup_solve(seed: int, workdir: str, rounds: int) -> list[list[Item]]:
    rng = random.Random(f"solve-{seed}")
    pool = []
    for r in range(rounds):
        items = []
        for slot, (family, n, d) in enumerate(SOLVE_ROUND):
            key = f"r{r}s{slot}-{family}{n}d{d}"
            path = os.path.join(workdir, key + ".json")
            if family == "tiered":
                _write_json(instances.tiered_game(rng, n), path)
            else:
                spec = generators.GenSpec(
                    seed=rng.randrange(2**31),
                    n_players=n,
                    n_resources=n // 2,
                    strategies_per_player=4 if d == 1 else 3,
                    strategy_size=(1, 3),
                    degree=d,
                    coeff_range=(0, 8),
                )
                serialize.write_instance(generators.generate(spec), path)
            theta = D2_THETA if d >= 2 else None
            files = {"instance": path, "trace": os.path.join(workdir, key + ".trace.json")}
            items.append(Item(key, "solve", files, {"family": family, "theta": theta}))
        pool.append(items)
    return pool


def validate_solve(pool: list[list[Item]]) -> dict:
    """Every tiered game has m >= 3 blocks and moves in at least two phases."""
    tiered = [it for rnd in pool for it in rnd if it.meta["family"] == "tiered"]
    for it in tiered:
        m = reference.block_count(reference.Instance.load(it.files["instance"]), PSI)
        game, _ = serialize.read_instance(it.files["instance"])
        trace = solver.solve(game, solver.SolverConfig(psi=PSI))
        busy = sum(1 for p in trace.phases if p["moves"] > 0)
        if m < 3 or trace.parameters["m"] != m or busy < 2:
            raise SetupError(
                f"tiered instance {it.key}: m={m} (solver {trace.parameters['m']}), "
                f"phases with moves={busy}; the solve workload needs m >= 3 and >= 2"
            )
    return {"tiered_instances": len(tiered)}


def run_solve(item: Item) -> dict:
    argv = ["solve", item.files["instance"], "--psi", str(PSI), "--trace", item.files["trace"]]
    if item.meta["theta"] is not None:
        argv += ["--theta", item.meta["theta"]]
    return _call_cli(argv)


def check_solve(item: Item, out: dict) -> list[str]:
    if out["code"] != 0:
        return [f"exit code {out['code']}: {out['stderr'].strip()}"]
    got = _fields(out["stdout"])
    with open(item.files["trace"], "r", encoding="utf-8") as fp:
        trace = json.load(fp)
    inst = reference.Instance.load(item.files["instance"])
    n, d = inst.n, max(1, inst.degree)
    theta = None if item.meta["theta"] is None else Fraction(item.meta["theta"])
    rho = inst.rho_star(trace["summary"]["final_state"])
    bound = reference.solver_bound(n, d, PSI, theta)
    moves = int(got.get("moves", -1))
    errors = []
    if got.get("ok") != "true":
        errors.append(f"ok={got.get('ok')}")
    if rho is None or got.get("rho_star") != str(rho):
        errors.append(f"rho_star {got.get('rho_star')} != reference {rho}")
    elif rho > bound:
        errors.append(f"rho_star {rho} above bound {bound}")
    if got.get("bound") != str(bound):
        errors.append(f"bound {got.get('bound')} != reference {bound}")
    if moves != trace["summary"]["moves"] or moves > reference.solver_move_cap(n, d, PSI):
        errors.append(f"moves={moves} inconsistent with trace or above the cap")
    if item.meta["family"] == "tiered" and sum(p["moves"] > 0 for p in trace["phases"]) < 2:
        errors.append("tiered game moved in fewer than two phases")
    return errors


# ---------------------------------------------------------------------------
# oracle: exhaustive verification on small games

# (players, degree) per slot, two strategies of two resources each: 2^9 ..
# 2^12 states.  Fixed strategy sizes keep the work per state fixed, and the
# four 2^10 games hold the middle of a round, so item_p50_ms falls inside
# their cluster.
ORACLE_ROUND = (
    (9, 1), (9, 2),
    (10, 1), (10, 2), (10, 1), (10, 2),
    (11, 1), (11, 2),
    (12, 1), (12, 2),
)


def setup_oracle(seed: int, workdir: str, rounds: int) -> list[list[Item]]:
    rng = random.Random(f"oracle-{seed}")
    pool = []
    for r in range(rounds):
        items = []
        for slot, (n, d) in enumerate(ORACLE_ROUND):
            key = f"r{r}s{slot}-n{n}d{d}"
            path = os.path.join(workdir, key + ".json")
            spec = generators.GenSpec(
                seed=rng.randrange(2**31),
                n_players=n,
                n_resources=6,
                strategies_per_player=2,
                strategy_size=(2, 2),
                degree=d,
                coeff_range=(0, 6),
            )
            serialize.write_instance(generators.generate(spec), path)
            meta = {"q": Fraction(n + 1, n), "audit_seed": rng.randrange(1000)}
            items.append(Item(key, "oracle", {"instance": path}, meta))
        pool.append(items)
    return pool


def run_oracle(item: Item) -> dict:
    path = item.files["instance"]
    brute = _call_cli(["brute", path])
    game, _ = serialize.read_instance(path)
    eq_one = verify.enumerate_equilibria(game, rho=Fraction(1))
    eq_q = verify.enumerate_equilibria(game, rho=item.meta["q"])
    audit = _call_cli(
        ["audit", path, "--trials", str(AUDIT_TRIALS), "--seed", str(item.meta["audit_seed"])]
    )
    return {
        "brute": brute,
        "eq_one": [s.choices for s in eq_one],
        "eq_q": [s.choices for s in eq_q],
        "audit": audit,
    }


def check_oracle(item: Item, out: dict) -> list[str]:
    errors = []
    for step in ("brute", "audit"):
        if out[step]["code"] != 0:
            errors.append(f"{step} exit code {out[step]['code']}: {out[step]['stderr'].strip()}")
    if errors:
        return errors
    inst = reference.Instance.load(item.files["instance"])
    got = _fields(out["brute"]["stdout"])
    phi = inst.min_potential()
    argmin = tuple(int(c) for c in got["state"].split(","))
    if got.get("phi_star") != str(phi):
        errors.append(f"phi_star {got.get('phi_star')} != reference {phi}")
    if inst.potential(argmin) != phi:
        errors.append(f"printed argmin {argmin} does not reach phi_star")
    if argmin not in out["eq_one"]:
        errors.append(f"argmin {argmin} missing from the rho=1 equilibria")
    if not set(out["eq_one"]) <= set(out["eq_q"]):
        errors.append("rho=1 equilibria are not all rho=q equilibria")
    for rho, states in ((Fraction(1), out["eq_one"]), (item.meta["q"], out["eq_q"])):
        for s in states:
            r = inst.rho_star(s)
            if r is None or r > rho:
                errors.append(f"state {s} has rho_star {r} > {rho}")
    audit = json.loads(out["audit"]["stdout"])
    if audit["total_violations"] != 0 or audit["rosenthal"]["trials"] != AUDIT_TRIALS:
        errors.append(f"audit: {audit['total_violations']} violations")
    return errors


# ---------------------------------------------------------------------------
# flip: hardness games from NAND circuits

# (inputs, gates) of the tiny bundles in a round.  Their enumeration times
# are nearly fixed per shape (about 0.03, 0.1 and 0.2 s at 2, 3 and 4 bundle
# gates); two-input two-gate circuits vary from 0.3 s to 1 s, too widely for
# a steady round.  With the flip-gen item, the two (2, 1) bundles hold the
# middle of a round, so item_p50_ms falls inside their cluster.
FLIP_TINY_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 1))


def _bundle(circuit: dict):
    return hardness.derive_subcircuits(hardness.flip_instance_from_dict(circuit))


def setup_flip(seed: int, workdir: str, rounds: int) -> list[list[Item]]:
    rng = random.Random(f"flip-{seed}")
    pool = []
    for r in range(rounds):
        key = f"r{r}-mid"
        while True:
            circuit = instances.random_circuit(rng, 4, 6)
            gates = _bundle(circuit).total_gates()
            if MID_GATES[0] <= gates <= MID_GATES[1]:
                break
        files = {
            "circuit": os.path.join(workdir, key + ".circuit.json"),
            "game": os.path.join(workdir, key + ".game.json"),
            "bundle": os.path.join(workdir, key + ".bundle.json"),
        }
        _write_json(circuit, files["circuit"])
        items = [Item(key, "flipgen", files, {"gates": gates})]
        for t, (n_inputs, n_gates) in enumerate(FLIP_TINY_SHAPES):
            key = f"r{r}-tiny{t}"
            circuit = instances.random_circuit(rng, n_inputs, n_gates)
            files = {
                "circuit": os.path.join(workdir, key + ".circuit.json"),
                "bundle": os.path.join(workdir, key + ".bundle.json"),
            }
            _write_json(circuit, files["circuit"])
            with open(files["bundle"], "w", encoding="utf-8") as fp:
                serialize.dump_json(hardness.bundle_to_dict(_bundle(circuit)), fp)
            items.append(Item(key, "bundle", files))
        pool.append(items)
    return pool


def run_flipgen(item: Item) -> dict:
    f = item.files
    return _call_cli(["flip-gen", f["circuit"], "--out", f["game"], "--bundle-out", f["bundle"]])


def run_bundle(item: Item) -> dict:
    with open(item.files["bundle"], "r", encoding="utf-8") as fp:
        bundle = hardness.bundle_from_dict(json.load(fp))
    params = hardness.GadgetParams.for_bundle(bundle)
    game, labels = hardness.build_flip_game(bundle, params)
    eqs = verify.enumerate_equilibria(
        game, rho=Fraction(1), budget=FLIP_BUDGET, order=hardness.enumeration_order(labels)
    )
    vectors = sorted({tuple(hardness.read_input_bits(labels, s.choices)) for s in eqs})
    return {"equilibria": len(eqs), "vectors": vectors}


def check_flipgen(item: Item, out: dict) -> list[str]:
    if out["code"] != 0:
        return [f"exit code {out['code']}: {out['stderr'].strip()}"]
    got = _fields(out["stdout"])
    with open(item.files["game"], "r", encoding="utf-8") as fp:
        doc = json.load(fp)
    errors = [f"written game: {p}" for p in reference.structural_problems(doc)[:3]]
    if got.get("structural_ok") != "true":
        errors.append(f"structural_ok={got.get('structural_ok')}")
    shape = (len(doc["players"]), len(doc["resources"]), item.meta["gates"])
    printed = tuple(int(got.get(k, -1)) for k in ("players", "resources", "gates"))
    if printed != shape:
        errors.append(f"printed players/resources/gates {printed} != file {shape}")
    return errors


def check_bundle(item: Item, out: dict) -> list[str]:
    with open(item.files["circuit"], "r", encoding="utf-8") as fp:
        minima = reference.flip_local_minima(json.load(fp))
    if out["vectors"] != minima:
        return [f"decoded inputs {out['vectors']} != Flip local minima {minima}"]
    return []


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    setup: object
    rounds: int  # rounds in the seeded pool
    trace_rounds: int  # rounds replayed by the traced run
    validate: object = None


WORKLOADS = {
    "solve": Workload("solve", setup_solve, rounds=10, trace_rounds=4, validate=validate_solve),
    "oracle": Workload("oracle", setup_oracle, rounds=6, trace_rounds=3),
    "flip": Workload("flip", setup_flip, rounds=5, trace_rounds=5),
}

RUNNERS = {
    "solve": (run_solve, check_solve),
    "oracle": (run_oracle, check_oracle),
    "flipgen": (run_flipgen, check_flipgen),
    "bundle": (run_bundle, check_bundle),
}

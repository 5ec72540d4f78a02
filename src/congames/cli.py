"""Command line front end.

Commands: gen, solve, verify, brute, audit, flip-gen, bench.  Machine-facing
output always prints rationals exactly (p/q), never as floats.  Exit codes:
0 success; 4 when a command's own check fails (a missed guarantee or a failed
structural check); for a library error, the `exit_code` of its class (the
table is in `errors`); 2 for a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import generators, hardness, serialize, solver, verify
from .core import CongestionGame, State, to_factor, to_integer
from .dynamics import RunTrace
from .errors import CongestionGameError, ContractViolationError, ValidationError

EXIT_OK = 0
EXIT_CONTRACT = ContractViolationError.exit_code


def cmd_gen(args) -> int:
    spec = generators.GenSpec(
        seed=args.seed,
        n_players=args.n,
        n_resources=args.resources,
        strategies_per_player=args.strategies,
        strategy_size=(args.size_min, args.size_max),
        degree=args.d,
        coeff_range=(args.coeff_min, args.coeff_max),
        symmetric=args.symmetric,
    )
    game = generators.generate(spec)
    serialize.write_instance(game, args.out)
    print(
        f"wrote {args.out}: n={game.n_players} resources={game.n_resources} "
        f"d={game.degree} symmetric={str(args.symmetric).lower()}"
    )
    return EXIT_OK


def _solve_and_verify(
    game: CongestionGame, config: solver.SolverConfig
) -> tuple[RunTrace, verify.ApproxReport, str, bool, float]:
    """Solve, then check the final state exactly against the trace's bound.

    Returns (trace, report, bound, ok, solve seconds).  The bound is "1" for
    a degenerate solve, which must end in an exact equilibrium; `ok` also
    requires the move count to stay within the cap.
    """
    start = time.perf_counter()
    trace = solver.solve(game, config)
    elapsed = time.perf_counter() - start
    report = verify.approximation_factor(game, State.of(game, trace.final_state))
    params = trace.parameters or {}
    bound_str = params.get("bound", "1")
    cap = params.get("move_cap")
    ok = report.is_approx(bound_str) and (cap is None or trace.n_moves <= cap)
    return trace, report, bound_str, ok, elapsed


def cmd_solve(args) -> int:
    game, _labels = serialize.read_instance(args.instance)
    config = solver.SolverConfig(
        psi=args.psi,
        theta_override=args.theta,
        move_cap=args.move_cap,
        scheduler=args.scheduler,
        seed=args.seed,
    )
    trace, report, bound_str, ok, _elapsed = _solve_and_verify(game, config)
    if args.trace:
        trace.write_json(args.trace)
    print(
        f"moves={trace.n_moves} rho_star={report.rho_star_str()} "
        f"bound={bound_str} ok={str(ok).lower()}"
    )
    return EXIT_OK if ok else EXIT_CONTRACT


def cmd_verify(args) -> int:
    game, _labels = serialize.read_instance(args.instance)
    choices = serialize.read_state(args.state)
    state = State.of(game, choices)
    report = verify.approximation_factor(game, state)
    line = f"rho_star={report.rho_star_str()}"
    if args.rho is not None:
        inf = args.rho.lower() in ("inf", "infinity")
        rho = None if inf else to_factor(args.rho, "rho")
        line += f" rho={'inf' if rho is None else serialize.format_rational(rho)}"
        line += f" ok={str(report.is_approx(rho)).lower()}"
    print(line)
    if args.report:
        serialize.write_json(report.to_dict(), args.report)
    return EXIT_OK


def cmd_brute(args) -> int:
    game, _labels = serialize.read_instance(args.instance)
    state, phi = verify.brute_min_potential(game, budget=args.budget)
    print(
        f"phi_star={serialize.format_rational(phi)} "
        f"state={','.join(str(c) for c in state.choices)}"
    )
    return EXIT_OK


def _default_audit_corpus() -> list[CongestionGame]:
    corpus = []
    for seed in range(50):
        spec = generators.GenSpec(
            seed=seed,
            n_players=4,
            n_resources=6,
            strategies_per_player=2,
            strategy_size=(1, 3),
            degree=1,
            coeff_range=(0, 4),
        )
        corpus.append(generators.generate(spec))
    return corpus


def cmd_audit(args) -> int:
    to_integer(args.trials, "--trials", least=1)
    if args.instance:
        game, _labels = serialize.read_instance(args.instance)
        corpus = [game]
    else:
        corpus = _default_audit_corpus()
    trials_each = max(1, args.trials // len(corpus))
    total = verify.AuditReport()
    for idx, game in enumerate(corpus):
        total.merge(
            verify.audit_identities(
                game, seed=args.seed + idx, trials=trials_each, budget=args.budget
            )
        )
    sys.stdout.write(serialize.json_text(total.to_dict()))
    return EXIT_OK if total.total_violations == 0 else EXIT_CONTRACT


def cmd_flip_gen(args) -> int:
    circuit = hardness.read_flip_instance(args.circuit)
    bundle = hardness.derive_subcircuits(circuit)
    params = hardness.GadgetParams.for_bundle(bundle, rho=args.rho, alpha=args.alpha)
    game, labels = hardness.build_flip_game(bundle, params)
    report = hardness.structural_check(game)
    serialize.write_instance(game, args.out, labels=labels)
    if args.bundle_out:
        with open(args.bundle_out, "w", encoding="utf-8") as fp:
            serialize.dump_json(hardness.bundle_to_dict(bundle), fp)
    print(
        f"wrote {args.out}: players={game.n_players} "
        f"resources={game.n_resources} gates={bundle.total_gates()} "
        f"structural_ok={str(report.passed).lower()}"
    )
    return EXIT_OK if report.passed else EXIT_CONTRACT


def _bench_one(task: tuple[generators.GenSpec, solver.SolverConfig]) -> dict:
    spec, config = task
    game = generators.generate(spec)
    trace, report, bound_str, ok, elapsed = _solve_and_verify(game, config)
    params = trace.parameters
    return {
        "n": spec.n_players,
        "d": spec.degree,
        "psi": config.psi,
        "seed": spec.seed,
        "moves": trace.n_moves,
        "phases": len(trace.phases or []),
        "ms": int(elapsed * 1000),
        "rho_star": report.rho_star_str(),
        "bound": bound_str,
        "ok": str(ok).lower(),
        "move_bound": serialize.format_rational(
            solver.move_bound(params["n"], params["d"], params["psi"])
        ),
    }


def cmd_bench(args) -> int:
    try:
        ns = [int(t) for t in args.n_list.split(",") if t]
    except ValueError:
        raise ValidationError(
            f"--n-list takes comma-separated integers, got {args.n_list!r}"
        ) from None
    if not ns:
        raise ValidationError(f"--n-list names no player count, got {args.n_list!r}")
    to_integer(args.seeds, "--seeds", least=1)
    to_integer(args.workers, "--workers", least=1)
    tasks = [
        (
            generators.GenSpec(
                seed=seed,
                n_players=n,
                n_resources=args.resources,
                strategies_per_player=args.strategies,
                strategy_size=(1, min(3, args.resources)),
                degree=args.d,
                coeff_range=(0, args.coeff_max),
            ),
            solver.SolverConfig(psi=args.psi, theta_override=args.theta),
        )
        for n in ns
        for seed in range(args.seed0, args.seed0 + args.seeds)
    ]
    # More workers than CPUs only adds processes competing for them.
    workers = min(args.workers, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, tasks))
    else:
        rows = [_bench_one(t) for t in tasks]
    # Write the text in full before opening, so a failure leaves no file.
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    with open(args.out, "w", encoding="utf-8", newline="") as fp:
        fp.write(text.getvalue())
    bad = [r for r in rows if r["ok"] != "true"]
    print(f"wrote {args.out}: runs={len(rows)} failures={len(bad)}")
    return EXIT_OK if not bad else EXIT_CONTRACT


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="congames",
        description="Exact-arithmetic congestion game toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="number of players")
    p.add_argument("--resources", type=int, required=True)
    p.add_argument("--strategies", type=int, default=2, help="strategies per player")
    p.add_argument("--size-min", type=int, default=1)
    p.add_argument("--size-max", type=int, default=2)
    p.add_argument("--d", type=int, default=1, help="polynomial degree")
    p.add_argument("--coeff-min", type=int, default=0)
    p.add_argument("--coeff-max", type=int, default=4)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run the phased solver on an instance")
    p.add_argument("instance")
    p.add_argument("--psi", type=int, default=1)
    p.add_argument(
        "--theta", default=None, help="ratio bound: d >= 2 needs it, d = 1 ignores it"
    )
    p.add_argument("--scheduler", choices=solver.SCHEDULERS, default="scan")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--move-cap", type=int, default=None)
    p.add_argument("--trace", default=None, help="write the move trace JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="exact approximation factor of a state")
    p.add_argument("instance")
    p.add_argument("state", help="state JSON file")
    p.add_argument("--rho", default=None, help="factor to test against, or 'inf'")
    p.add_argument("--report", default=None, help="write the full report JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("brute", help="exhaustive minimum-potential state")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("audit", help="randomized exact identity audit")
    p.add_argument("instance", nargs="?", default=None)
    p.add_argument(
        "--trials",
        type=int,
        default=500,
        help="trials in all; without an instance they are split over the "
        "50-game default corpus, at least one per game",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("flip-gen", help="build a hardness game from a circuit")
    p.add_argument("circuit", help="Flip circuit JSON file")
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--rho", default="2")
    p.add_argument("--out", required=True)
    p.add_argument("--bundle-out", default=None)
    p.set_defaults(func=cmd_flip_gen)

    p = sub.add_parser("bench", help="sweep seeded instances, emit CSV records")
    p.add_argument("--n-list", default="4,8,12,16")
    p.add_argument("--seeds", type=int, default=5, help="seeds per n")
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--psi", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--resources", type=int, default=10)
    p.add_argument("--strategies", type=int, default=3)
    p.add_argument("--coeff-max", type=int, default=6)
    p.add_argument("--theta", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CongestionGameError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ValidationError.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""congames benchmark: seeded closed-loop workloads with exact output checks.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  With
`--trace 0` the workload runs whole rounds of its seeded item pool for about
`--seconds` seconds and reports the end-to-end metrics.  With `--trace 1` it
replays a fixed prefix of the pool twice per item, once plain and once with
the tracer installed, and reports the per-layer metrics, the tracer wiring
check and trace_overhead_ratio (scaled traced time over scaled plain time).
`--workload all` runs each workload in a child process of its own.  Every
output is checked after the timed region; the last line of stdout is one JSON
object, and the exit code is non-zero when any check fails.  See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5

# Printed in the report but not JSON metrics: fail_ratio is 0 whenever the run
# is correct, and item_p90_ms needs P90_MIN_SAMPLES distinct items, which only
# the solve workload has.
REPORTED_ONLY = {"fail_ratio": "ratio", "item_p90_ms": "ms"}
P90_MIN_SAMPLES = 100

# Calibration loop time on an unloaded host (2-vCPU Intel Xeon VM, Python
# 3.11.7); scaled times are expressed at that speed.
NOMINAL_PROBE_S = 0.0078


def _probe() -> float:
    """Time a fixed pure-Python Fraction loop that never touches the package.

    The collector is off during the loop, so its time does not depend on the
    garbage or live objects that the package call before it left behind.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 3000):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


class ScaledClock:
    """Times calls and scales each to the host's nominal speed.

    The benchmark runs on shared virtual machines whose speed drifts by up to
    2x for minutes at a time, which no amount of repetition inside a 30 s run
    averages out.  The calibration loop runs before the first timed call and
    after every one; a call's wall time is multiplied by NOMINAL_PROBE_S over
    the mean of the two loop times around it.  The loop does no package work,
    so a change to the package moves scaled times exactly as it moves wall
    times on a steady machine.
    """

    def __init__(self):
        self._last = _probe()

    def call(self, fn, *args):
        """Return (result, wall seconds, scaled seconds)."""
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        probe = _probe()
        scaled = wall * 2 * NOMINAL_PROBE_S / (self._last + probe)
        self._last = probe
        return result, wall, scaled


def _import_package(workdir: Path) -> float:
    """Import congames from ./src; return the median scaled time of fresh imports.

    `congames.cli` imports every other module of the package.  A first,
    untimed import loads the standard-library modules the package needs.  The
    timed imports then look for bytecode under an empty directory of this
    run, so each one compiles the package from source whether or not the
    checkout has `__pycache__` folders.
    """
    src = ROOT / "src"
    if not (src / "congames" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'congames'}")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(HERE)]
    importlib.import_module("congames.cli")
    sys.pycache_prefix = str(workdir / "pycache")
    clock, times = ScaledClock(), []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "congames"]:
            del sys.modules[name]
        times.append(clock.call(importlib.import_module, "congames.cli")[2])
    package = sys.modules["congames"]
    if Path(package.__file__).resolve().parent != (src / "congames").resolve():
        raise SystemExit(f"error: imported congames from {package.__file__}, not {src}")
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


class Runner:
    def __init__(self, workload, seed: int, workdir: Path):
        import workloads

        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.runners = workloads.RUNNERS
        self.outputs: dict[str, object] = {}  # item key -> first output
        self.problems: dict[str, list[str]] = {}  # item key -> failed checks
        self.items: dict[str, object] = {}

    def setup(self) -> list:
        self.workdir.mkdir(parents=True, exist_ok=True)
        return self.w.setup(self.seed, str(self.workdir), self.w.rounds)

    def run_item(self, item):
        run, _ = self.runners[item.kind]
        try:
            return run(item)
        except Exception as exc:  # a crash is a failed item, reported below
            return {"exception": f"{type(exc).__name__}: {exc}"}

    def record(self, item, out) -> None:
        """Keep an item's first output for checking; later ones must equal it."""
        self.items[item.key] = item
        first = self.outputs.setdefault(item.key, out)
        if first is not out and first != out:
            self.problems.setdefault(item.key, []).append("output differs between repeats")

    def check_all(self) -> None:
        for key, out in self.outputs.items():
            item = self.items[key]
            if "exception" in out:
                errors = [out["exception"]]
            else:
                _, check = self.runners[item.kind]
                try:
                    errors = check(item, out)
                except Exception as exc:  # malformed output fails the item
                    errors = [f"check raised {type(exc).__name__}: {exc}"]
            if errors:
                self.problems.setdefault(key, []).extend(errors)


def run_end_to_end(w, seed: int, seconds: float, workdir: Path, import_s: float) -> dict:
    runner = Runner(w, seed, workdir)
    clock = ScaledClock()
    setups, signatures = [], set()
    for _ in range(SETUP_REPEATS):
        pool, _, scaled = clock.call(runner.setup)
        setups.append(scaled)
        signatures.add(repr(pool))
    if len(signatures) != 1:
        raise SystemExit("error: set-up is not deterministic in the seed")
    setup_info = w.validate(pool) if w.validate else {}

    # Whole rounds, and at least one pass over the pool.  An item repeated
    # across passes is timed by the median of its scaled times.
    scaled_times: dict[str, list[float]] = {}
    wall_times: dict[str, list[float]] = {}
    executed = []
    clock = ScaledClock()
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds or rounds < len(pool):
        for item in pool[rounds % len(pool)]:
            out, wall, scaled = clock.call(runner.run_item, item)
            scaled_times.setdefault(item.key, []).append(scaled)
            wall_times.setdefault(item.key, []).append(wall)
            executed.append(item.key)
            runner.record(item, out)
        rounds += 1
    # Read before the checks, whose reference computations would add to it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.check_all()
    failed = sum(1 for key in executed if key in runner.problems)
    attempted = len(executed)
    times = [statistics.median(v) for v in scaled_times.values()]
    walls = [statistics.median(v) for v in wall_times.values()]
    wall_total = sum(sum(v) for v in wall_times.values())
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": 1000 * statistics.median(times),
        "item_p90_ms": (
            1000 * statistics.quantiles(times, n=10, method="inclusive")[-1]
            if len(times) >= P90_MIN_SAMPLES else None
        ),
        "fail_ratio": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "rounds": rounds,
        "runs": attempted,
        "percentile_samples": len(times),
        "wall_items_per_s": len(walls) / sum(walls),
        "wall_item_p50_ms": 1000 * statistics.median(walls),
        "speed_factor": wall_total / sum(sum(v) for v in scaled_times.values()),
        "timed_s": time.perf_counter() - start,
        "setup_runs_s": setups,
        "import_s": import_s,
        **setup_info,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": runner.problems, "info": info}


def run_traced(w, seed: int, workdir: Path) -> dict:
    import tracer as tr

    runner = Runner(w, seed, workdir)
    setup_tracer = tr.Tracer()
    setup_tracer.install()
    try:
        pool = runner.setup()
    finally:
        setup_tracer.uninstall()
    setup_info = w.validate(pool) if w.validate else {}

    items_tracer = tr.Tracer()
    plain = traced = 0.0
    executed = []
    clock = ScaledClock()
    for index, item in enumerate(it for rnd in pool[: w.trace_rounds] for it in rnd):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                items_tracer.install()
            try:
                out, _, elapsed = clock.call(runner.run_item, item)
            finally:
                items_tracer.uninstall()
            if with_trace:
                traced += elapsed
            else:
                plain += elapsed
            runner.record(item, out)
            executed.append(item.key)
    runner.check_all()
    wiring = tr.wiring_problems(w.name, items_tracer, setup_tracer)
    if wiring:
        runner.problems["tracer-wiring"] = wiring
    metrics = tr.layer_metrics(items_tracer, setup_tracer)
    metrics["trace_overhead_ratio"] = traced / plain
    info = {
        "traced_items": len(executed) // 2,
        "plain_s": plain,
        "traced_s": traced,
        "wiring_ok": not wiring,
        **setup_info,
    }
    return {"metrics": metrics, "attempted": len(executed),
            "failed": sum(1 for key in executed if key in runner.problems),
            "problems": runner.problems, "info": info}


def _print_report(name: str, result: dict, units: dict) -> None:
    print(f"== {name}")
    for metric, value in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric:34s} {shown:>16s} {units.get(metric, '')}")
    for key, errors in sorted(result["problems"].items()):
        for err in errors:
            print(f"  FAIL {key}: {err}")


def run_children(args, names: list[str]) -> int:
    """Run each workload in a child process; print its report and merge the JSON.

    A child per workload keeps one workload's peak memory and imports out of
    the next one's figures.  Metric names are prefixed by the workload name.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if not isinstance(result, dict) or "metrics" not in result:
            raise SystemExit(f"error: workload {name} printed no result (exit code {proc.returncode})")
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="solve, oracle, flip or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fp:
        spec = json.load(fp)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_children(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if not args.trace:
        units.update(REPORTED_ONLY)

    # Turn SIGTERM into SystemExit so the work directory is still removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = HERE / ".work" / f"{os.getpid()}"
    try:
        import_s = _import_package(workdir)
        import workloads

        w = workloads.WORKLOADS[args.workload]
        if args.trace:
            result = run_traced(w, args.seed, workdir / w.name)
        else:
            result = run_end_to_end(w, args.seed, args.seconds, workdir / w.name, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": result["info"],
    }
    mismatch = set(units) ^ set(result["metrics"])
    if mismatch:
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    _print_report(args.workload, result, units)
    print("env: " + json.dumps(env, sort_keys=True))

    correct = result["failed"] == 0 and not result["problems"]
    reported = {
        metric: {"value": value, "unit": units[metric]}
        for metric, value in result["metrics"].items() if metric not in REPORTED_ONLY
    }
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

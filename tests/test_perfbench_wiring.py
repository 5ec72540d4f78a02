"""The benchmark's tracer wiring check passes on one round of every workload.

This mirrors `perfbench/run.py --trace 1`: each workload's one-round pool is
set up under one tracer and its items run under a second; every item's check
must pass and `tracer.wiring_problems` must report nothing.  A refactor that
stops calling a function the tracer expects a workload to reach then fails
here, not only in a benchmark run.  The perfbench modules are loaded from
their files and used as they are.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(monkeypatch, name):
    """Import perfbench/<name>.py under its own name for this test only.

    `workloads` imports `instances` and `reference` by those names.
    """
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_wiring_check_passes_on_every_workload(monkeypatch, tmp_path):
    for name in ("instances", "reference"):
        load(monkeypatch, name)
    tracer, workloads = load(monkeypatch, "tracer"), load(monkeypatch, "workloads")
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        setup_tracer, items_tracer = tracer.Tracer(), tracer.Tracer()
        setup_tracer.install()
        try:
            (pool,) = workload.setup(1, str(workdir), 1)
        finally:
            setup_tracer.uninstall()
        items_tracer.install()
        try:
            outputs = [(item, workloads.RUNNERS[item.kind][0](item)) for item in pool]
        finally:
            items_tracer.uninstall()
        for item, out in outputs:
            _, check = workloads.RUNNERS[item.kind]
            assert check(item, out) == [], (name, item.key)
        assert tracer.wiring_problems(name, items_tracer, setup_tracer) == [], name

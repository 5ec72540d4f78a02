"""The benchmark's span tracer still finds every package name it wraps.

`perfbench/tracer.py` patches functions and methods of `congames` by name
from outside the package.  A refactor that renames or deletes one of them
breaks `perfbench/run.py --trace 1`; this test makes it fail here instead.
The tracer module is loaded from its file and used as it is.
"""

import importlib.util
import sys
from pathlib import Path

import congames.cli  # noqa: F401  (imports every module the tracer patches)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound(module, cls_name, attr):
    """The object the tracer replaces: a module function or a class attribute."""
    owner = sys.modules[f"congames.{module}"]
    if cls_name is None:
        return getattr(owner, attr)
    return vars(getattr(owner, cls_name))[attr]


def unwrap(value):
    return getattr(value, "__func__", value)


def test_install_replaces_every_target_and_uninstall_restores_it():
    tracer_module = load_tracer()
    targets = tracer_module.TARGETS
    originals = [bound(*target[1:]) for target in targets]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for target, original in zip(targets, originals):
            wrapped = unwrap(bound(*target[1:]))
            assert wrapped.__wrapped__ is unwrap(original), target
        # every module that imported a traced function sees the wrapper
        dynamics = congames.dynamics.epsilon_br_dynamics
        assert congames.epsilon_br_dynamics is dynamics
        assert congames.verify.epsilon_br_dynamics is dynamics
    finally:
        tracer.uninstall()
    for target, original in zip(targets, originals):
        assert bound(*target[1:]) is original, target

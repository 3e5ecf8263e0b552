"""The names perfbench reaches into softlev by.

``perfbench/spans.py`` rebinds softlev functions by module and attribute
name for its traced run, and ``perfbench/run.py`` imports a few more for
its set-up timing.  A refactor that drops or renames one of them breaks the
benchmark without failing any other test, so this module checks them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from softlev import _kernels, cli, harness
from softlev.optimize import OptimizerConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _softlev_bindings():
    """Every (module, attribute, object) binding in the loaded softlev modules."""
    return {
        (name, key): val
        for name, mod in list(sys.modules.items())
        if name == "softlev" or name.startswith("softlev.")
        for key, val in vars(mod).items()
    }


def test_tracer_install_and_uninstall_restore_every_name(spans):
    before = _softlev_bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        rebound = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert {key for _, key, _ in rebound} >= {"max_hellinger_softmax", "leverage_h2_objective", "__init__", "qr"}
    for owner, key, orig in rebound:
        assert getattr(owner, key) is orig, f"{key} was not restored"
    after = _softlev_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_setup_code_names_exist():
    assert _kernels.BACKEND == "numpy"
    assert callable(_kernels.warmup)
    assert callable(cli._resolve_spec_path)
    assert callable(harness.load_model_spec)


def test_warmup_calls_every_kernel_perfbench_times(spans):
    # A kernel left out of warmup() pays its lazy set-up inside a timed run.
    tracer = spans.Tracer()
    try:
        tracer.install()
        _kernels.warmup()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    kernels = [name for name in spans.LAYERS if name.startswith("kernels.")]
    assert kernels
    assert [name for name in kernels if metrics[f"{name}.calls"] < 1] == []


def test_traced_sweep_reports_its_grid(spans):
    # spans._extra_grid reads the thread budget off _gather_grid's first
    # argument; the traced sweep needs it for harness.grid_efficiency.  The
    # hypotest layer is traced through harness.estimate_sample_complexity,
    # which each grid point calls once.
    model = harness.gaussian_instance("softmax", 4, 2, seed=1)
    spec = harness.ExperimentSpec(model=model, eps_grid=(0.3, 0.15), trials=20, opt=OptimizerConfig(restarts=2), seed=9)
    tracer = spans.Tracer()
    try:
        tracer.install()
        harness.run_sweep(spec)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["harness.sweep_point.calls"] == 2
    assert metrics["hypotest.estimate_sample_complexity.calls"] == 2
    assert metrics["harness.grid_efficiency"] > 0

"""The benchmark's tracer must find every function it wraps.

perfbench/tracer.py reports a target it cannot find as absent instead of
failing, so a rename in softstep would silently drop that layer's metrics
from a traced benchmark run.  These tests load the tracer by path and hold
the package to its target list.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from softstep.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TOY_DATA = "blobs:n_per_class=120,sigma=8"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_a_callable_module_attribute(tracer):
    for target in tracer.E2E_TARGETS + tracer.LAYER_TARGETS:
        module = importlib.import_module(target.module)
        assert callable(getattr(module, target.attr, None)), (
            f"{target.module}.{target.attr}")


@pytest.fixture
def installed(tracer):
    """A Tracer wrapping every layer target; the modules are restored after."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "softstep" or name.startswith("softstep.")]
    saved = [(m, dict(vars(m))) for m in modules]
    recorder = tracer.Tracer()
    absent = recorder.install(tracer.LAYER_TARGETS)
    try:
        yield recorder, absent
    finally:
        for module, attrs in saved:
            for key, value in attrs.items():
                if vars(module).get(key) is not value:
                    setattr(module, key, value)


def test_traced_train_and_evaluate_reach_every_wrapper(tracer, installed,
                                                       tmp_path):
    # the CLI looks its runners up when a command runs, so the wrappers
    # installed on the module are the ones called
    recorder, absent = installed
    assert absent == []
    flags = ["--dataset", TOY_DATA, "--loss", "auroc", "--approximation",
             "sigmoid_fit", "--epochs", "2", "--window", "2",
             "--batch-size", "64", "--seed", "5",
             "--checkpoint", str(tmp_path / "m.ckpt")]
    assert main(["train", *flags, "--out", str(tmp_path / "t.tsv")]) == 0
    assert main(["evaluate", *flags, "--out", str(tmp_path / "e.tsv")]) == 0
    metrics = tracer.summarize(recorder.spans, recorder.missing_spans)
    assert metrics["cli.train.calls"] == 1
    assert metrics["cli.evaluate.calls"] == 1
    assert metrics["training.train.calls"] == 1
    assert metrics["training.validation.calls"] == 2
    assert recorder.counters["trainings"] == 1
    for name, _ in tracer.LAYER_SPANS:
        assert f"{name}.calls" in metrics, name

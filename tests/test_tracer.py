"""perfbench's tracer can still wrap every lsikit layer it names.

The traced benchmark run imports each ``lsikit.<layer>`` in
``tracer.LAYERS``, wraps its public functions and patches
``SparseMatrix.toarray``; a renamed or deleted function would otherwise
only break that run.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import lsikit.lsi
from lsikit.matrix import SparseMatrix

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files in perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lsikit_functions():
    return {(name, attr): obj
            for name, module in list(sys.modules.items())
            if name == "lsikit" or name.startswith("lsikit.")
            for attr, obj in vars(module).items() if inspect.isfunction(obj)}


def test_tracer_instruments_a_completion_and_restores_every_function(monkeypatch):
    tracing = _load_tracer(monkeypatch)
    for layer in tracing.LAYERS:
        importlib.import_module(f"lsikit.{layer}")
    originals = _lsikit_functions()
    original_toarray = SparseMatrix.toarray
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        assert lsikit.lsi.completion_step is not originals[("lsikit.lsi", "completion_step")]
        _, trace = lsikit.lsi.complete(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    finally:
        restore()
    steps = len(trace.norms) - 1
    assert steps >= 2
    assert [span[0] for span in tracer.spans].count("lsi.completion_step") == steps
    metrics, traced_steps = tracing.layer_metrics(tracer.spans, 1.0, {}, {})
    assert traced_steps == steps
    assert metrics["lsi.completion_step.calls"] == steps
    restored = _lsikit_functions()
    assert restored.keys() == originals.keys()
    assert [key for key, obj in originals.items() if restored[key] is not obj] == []
    assert SparseMatrix.toarray is original_toarray

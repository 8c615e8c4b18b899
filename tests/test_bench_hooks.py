"""The benchmark tracer's method hooks must name live methods.

``bench/spans.py`` wraps, for its traced run, the methods listed in its
``METHODS`` table by looking each up in its class's own ``__dict__``.
A rename in the library would otherwise break only the traced run.
The module is loaded by path; the tracer is not installed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_method_exists_on_its_class():
    spans = load_spans()
    assert spans.METHODS
    for layer, classes in spans.METHODS.items():
        assert layer in spans.LAYERS
        module = importlib.import_module(f"moritacat.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name, None)
            assert isinstance(cls, type), f"moritacat.{layer}.{cls_name} is not a class"
            for meth in methods:
                assert meth in cls.__dict__, f"{layer}.{cls_name}.{meth} is not defined"

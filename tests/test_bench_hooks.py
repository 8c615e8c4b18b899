"""The benchmark tracer's hooks must name live functions and methods.

``bench/spans.py`` wraps, for its traced run, the methods listed in its
``METHODS`` table by looking each up in its class's own ``__dict__``,
and counts eliminations by the span names in its ``ELIMINATE`` table.
A rename in the library would otherwise break only the traced run, or
drop calls from the elimination counts without any error.
The module is loaded by path; the tracer is not installed.
"""

import importlib
import importlib.util
import inspect
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


def test_every_counted_elimination_exists():
    # ``ELIMINATE`` keys are span names: ``layer.function`` for a wrapped
    # module-level function, ``layer.Class.method`` for a listed method.
    spans = load_spans()
    assert spans.ELIMINATE
    for key in spans.ELIMINATE:
        layer, *path = key.split(".")
        assert layer in spans.LAYERS
        module = importlib.import_module(f"moritacat.{layer}")
        if len(path) == 1:
            (name,) = path
            fn = getattr(module, name, None)
            assert not name.startswith("_"), f"{key} is private and not wrapped"
            assert inspect.isfunction(fn), f"{key} is not a function"
            assert fn.__module__ == module.__name__, f"{key} is defined elsewhere"
        else:
            cls_name, meth = path
            cls = getattr(module, cls_name, None)
            assert isinstance(cls, type), f"moritacat.{layer}.{cls_name} is not a class"
            assert meth in cls.__dict__, f"{key} is not defined"
            listed = spans.METHODS.get(layer, {}).get(cls_name, ())
            assert meth in listed, f"{key} is not wrapped"

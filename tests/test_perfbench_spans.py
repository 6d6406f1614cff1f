"""perfbench's per-layer metrics read spans named after the program's
functions; a span whose function was renamed or removed reads 0 and looks
like a saving.  This keeps every name they read pointing at a function that
the tracer wraps."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module of its own (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers, spans = _load("layers"), _load("spans")


def _span_names():
    """Every span name in METRICS and HOOKS, less the prefix patterns and the
    solve closure that a hook names."""
    names = set(layers.HOOKS)
    for _, arg in layers.METRICS.values():
        if isinstance(arg, list):
            names.update(arg)
    return sorted(n for n in names if not n.endswith("*") and n != layers.LINEAR_SOLVE)


@pytest.mark.parametrize("name", _span_names())
def test_span_names_a_wrapped_function(name):
    """layer.function or layer.Class.method, as spans.Tracer.install names
    what it wraps: a public function of ctrlstop.<layer>, or a function in a
    class of that module, each defined there."""
    layer, *path = name.split(".")
    assert layer in spans.LAYER_MODULES, name
    module = importlib.import_module(f"{spans.PACKAGE}.{layer}")
    if len(path) == 1:
        fn = vars(module).get(path[0])
        assert not path[0].startswith("_"), name
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
    else:
        cls_name, meth = path
        assert not cls_name.startswith("_") and (meth == "__call__" or not meth.startswith("_")), name
        cls = vars(module).get(cls_name)
        assert inspect.isclass(cls) and cls.__module__ == module.__name__, name
        assert inspect.isfunction(vars(cls).get(meth)), name

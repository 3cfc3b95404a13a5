"""The benchmark's span table resolves against the package.

``perfbench/spans.py`` wraps functions by module and attribute name, and a
name it cannot find only drops that span from the benchmark.  This test loads
that module from its file, without changing it, so a renamed or deleted
wrapped function fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves_and_uninstall_restores_it():
    spans = load_spans()
    targets = [
        (importlib.import_module(module_name), attribute)
        for entries in spans.WRAP_TABLE.values()
        for module_name, attribute, _ in entries
    ]
    originals = [getattr(module, attribute, None) for module, attribute in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        assert all(getattr(module, attribute) is not original
                   for (module, attribute), original in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(module, attribute, None) is original
               for (module, attribute), original in zip(targets, originals))

"""The benchmark's names and constants agree with the package.

``perfbench/spans.py`` wraps functions by module and attribute name, and a
name it cannot find only drops that span from the benchmark;
``perfbench/run.py`` keeps its own copies of the benchmark names and query
shape.  These tests load both modules from their files, without changing
them, so a renamed function or a changed constant fails here instead of only
in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from weakpairs import corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(stem):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves_and_uninstall_restores_it():
    spans = load_perfbench("spans")
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


def test_run_copies_the_benchmark_names_and_query_shape():
    # run.py puts its own directory first on sys.path and imports these siblings by bare name
    siblings = [name for name in ("calibrate", "gen", "spans") if name not in sys.modules]
    path = list(sys.path)
    try:
        run = load_perfbench("run")
    finally:
        sys.path[:] = path
        for name in siblings:
            sys.modules.pop(name, None)
    assert run.BENCH_NAMES == corpus.BENCHMARK_NAMES
    assert (run.POSITIVES, run.NEGATIVES) == (corpus.POSITIVES_PER_QUERY, corpus.NEGATIVES_PER_QUERY)

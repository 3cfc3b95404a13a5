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

from weakpairs import corpus, evaluate, optim
from weakpairs.encoder import init_model
from weakpairs.textproc import build_vocab

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


def test_eval_text_preparation_is_traced_inside_the_encode_span():
    spans = load_perfbench("spans")
    model = init_model(build_vocab(["alpha beta gamma"], max_size=10), dim=4, seed=0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        evaluate.embed_text(model, ["Alpha beta @bob", "gamma https://t.co/x", "Alpha beta @bob"])
    finally:
        tracer.uninstall()
    (encode,) = [i for i, node in enumerate(tracer.nodes) if node["name"] == "encoder.encode"]
    children = {node["name"]: node["count"] for node in tracer.nodes if node["parent"] == encode}
    assert children == {"textproc.clean": 2, "textproc.encode_ids": 2}


def test_training_tokenizes_each_pair_text_once_inside_the_train_span():
    spans = load_perfbench("spans")
    model = init_model(build_vocab(["alpha beta gamma delta"], max_size=10), dim=4, seed=0)
    pairs = [corpus.PairExample(f"alpha beta {i}", f"gamma {i} delta", "qt", f"a{i}", f"p{i}") for i in range(7)]
    config = optim.TrainConfig(batch_size=3, epochs=2)  # two steps an epoch, one pair left over
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, log = optim.train(model, pairs, config)
    finally:
        tracer.uninstall()
    (train,) = [i for i, node in enumerate(tracer.nodes) if node["name"] == "optim.train"]
    children = {node["name"]: node["count"] for node in tracer.nodes if node["parent"] == train}
    assert children["textproc.encode_ids"] == 2 * len(pairs)
    assert children["encoder.forward"] == len(log) == 4


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

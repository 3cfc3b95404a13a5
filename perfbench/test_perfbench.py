"""Self-tests for the benchmark harness: span self time, the tail-percentile rule,
the injected-count check, the wrap table and the machine-speed scaling.

Run from the repository root:
    python3 -m pytest perfbench -q
"""

import gc
import random
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from spans import MissingSpan, Tracer, tail_percentile  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_and_merges_hot_calls():
    clock = FakeClock()
    tracer = Tracer(table={}, hot=frozenset({"leaf"}), clock=clock)
    with tracer.span("stage"):
        clock.now += 1.0
        with tracer.span("layer"):
            clock.now += 2.0
            for _ in range(3):
                with tracer.span("leaf"):
                    clock.now += 0.5
        clock.now += 0.25
    stage, layer = tracer.find("stage")[0], tracer.find("layer")[0]
    (leaf,) = tracer.find("leaf")
    assert tracer.nodes[leaf]["count"] == 3 and tracer.nodes[leaf]["parent"] == layer
    assert tracer.total("leaf") == pytest.approx(1.5)
    assert tracer.self_time(layer) == pytest.approx(2.0)
    assert tracer.self_time(stage) == pytest.approx(1.25)
    # a stage's time is its direct layer spans plus its self time
    assert tracer.nodes[stage]["total"] == pytest.approx(tracer.nodes[layer]["total"] + tracer.self_time(stage))
    assert tracer.total("leaf", under=stage) == pytest.approx(1.5)
    assert tracer.total("leaf", under=leaf) == 0.0


def test_step_times_run_from_train_start_to_each_update_return():
    clock = FakeClock()
    tracer = Tracer(table={}, clock=clock)
    with tracer.span("optim.train"):
        for cost in (1.0, 3.0):
            clock.now += cost
            with tracer.span("optim.adamw"):
                clock.now += 0.5
    assert tracer.step_times() == pytest.approx([1.5, 3.5])


@pytest.mark.parametrize(
    "n, pct",
    [(10, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_rung_with_ten_samples_beyond(n, pct):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    got_pct, value = tail_percentile(samples)
    assert got_pct == pct
    if n >= 20:
        assert sum(1 for x in samples if x > value) >= 10
    else:
        assert value == (n + 1) // 2  # too few samples: the median


def test_wrap_table_reports_a_renamed_function_as_missing_and_restores_originals():
    module = types.ModuleType("fake_layer")
    module.present = lambda x: x + 1
    original = module.present
    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer(table={"fake": [("fake_layer", "present", "fake.present"), ("fake_layer", "renamed", "fake.gone")]})
        tracer.install()
        assert module.present(1) == 2 and module.present is not original
        tracer.uninstall()
    finally:
        del sys.modules["fake_layer"]
    assert module.present is original
    assert tracer.calls("fake.present") == 1
    with pytest.raises(MissingSpan):
        tracer.total("fake.gone")


def test_injected_counts_match_what_ingest_counts(tmp_path):
    from weakpairs import ingest, synth

    records = synth.generate_records(topics=4, pairs_per_topic=60, vocab_size=200, noise=0.5, seed=3, responses_per_target=6)
    lines, injected = gen._stream_lines(records, random.Random(5))
    assert min(injected.values()) > 0
    files = gen._write_stream(lines, tmp_path)
    parses = [ingest.parse_stream_file(tmp_path / f["path"], "en") for f in files]
    kept, totals = ingest.merge_runs(parses)
    facts = {"stats": {"totals": totals.as_dict()}}
    manifest = {"injected": injected, "lines": len(lines), "records": len(records)}
    assert run.check_ingest(manifest, facts) == []
    assert len(kept) == len(records)
    assert {f["path"].rsplit(".", 1)[-1] for f in files} == {"gz", "bz2"}

    manifest["injected"] = dict(injected, malformed=injected["malformed"] + 1)
    assert run.check_ingest(manifest, facts) == [
        f"ingest malformed = {injected['malformed']}, expected {injected['malformed'] + 1}"
    ]


def test_scaling_divides_out_a_slower_machine_and_keeps_a_faster_program():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale([1.0, 3.0], [ref, ref]) == pytest.approx(4.0)
    # the same work on a machine half as fast: stage and kernel both take twice as long
    assert calibrate.scale([2.0, 6.0], [2 * ref, 2 * ref]) == pytest.approx(4.0)
    # a program twice as fast on the same machine reads twice as fast
    assert calibrate.scale([0.5, 1.5], [ref, ref]) == pytest.approx(2.0)
    # a ratio of sums: a long stage in a slow stretch weighs as much as its kernel says
    assert calibrate.scale([1.0, 1.0], [ref, 3 * ref]) == pytest.approx(1.0)

    facts = [{"seconds": dict.fromkeys(run.STAGES, 2.0), "kernel_s": dict.fromkeys(run.STAGES, 2 * ref),
              "stats": {"totals": {"lines": 100}}, "losses": [0.1] * 4, "batch_size": 8, "sentences": 62,
              "ndcg": {"dq": 0.5}, "pearson": 0.5}]
    scaled, wall = run.end_to_end(1.0, facts), run.end_to_end(1.0, facts, scaled=False)
    assert scaled["pipeline_s"] == pytest.approx(4.0) and wall["pipeline_s"] == pytest.approx(8.0)
    assert scaled["ingest_lines_per_s"] == pytest.approx(2 * wall["ingest_lines_per_s"])


def test_calibration_kernel_is_timed_and_leaves_the_collector_as_it_was():
    assert calibrate.kernel_s() > 0.0
    assert gc.isenabled()

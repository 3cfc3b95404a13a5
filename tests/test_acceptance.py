"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline.  The expensive end-to-end artifacts are built once per module
through the CLI surface and shared.
"""

import csv
import hashlib
import itertools
import json
import math
import random
import string
import time
from pathlib import Path

import numpy as np
import pytest

from fdcheck import central_diff_grad, max_rel_error, sample_smooth_case, scalar_objective
from test_optim import brute_force_mn_loss
from weakpairs.cli import derive_seed, main
from weakpairs.corpus import (
    build_benchmark,
    build_co_pairs,
    build_pairs,
    exclude_ids,
    index_responses,
    read_benchmark,
    read_pairs,
)
from weakpairs.encoder import backprop, encode_with_trace, init_model
from weakpairs.evaluate import (
    eval_ranking,
    ndcg,
    pearson,
    permutation_ndcg_baseline,
    rank_candidates,
)
from weakpairs.ingest import QUOTE, RelationEdge
from weakpairs.optim import TrainConfig, mn_loss, train, triplet_loss
from weakpairs.textproc import build_vocab, clean


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


# --- criterion 1: gradient oracle ---------------------------------------------


def test_criterion_1_gradient_oracle():
    started = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    triples = 0
    while triples < 100:
        model, ids, grad_out = sample_smooth_case(rng, vocab_tokens=20)
        _, trace = encode_with_trace(model, [ids])
        analytic = backprop(model, trace, [grad_out])
        for name, param in model.params.items():
            numeric = central_diff_grad(lambda: scalar_objective(model, ids, grad_out), param)
            worst = max(worst, max_rel_error(analytic[name], numeric))
        triples += 1
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 120.0
    report(1, ok, f"gradient oracle: max rel err {worst:.3e} over {triples} triples, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 120.0


# --- criterion 2: loss oracles -------------------------------------------------


def test_criterion_2_loss_oracles():
    rng = np.random.default_rng(202)
    worst_gap = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 9))
        anchors = rng.standard_normal((n, int(rng.integers(2, 7))))
        positives = rng.standard_normal(anchors.shape)
        scale = float(rng.uniform(0.5, 30.0))
        loss, _, _ = mn_loss(anchors, positives, scale=scale)
        oracle = brute_force_mn_loss(anchors.tolist(), positives.tolist(), scale)
        worst_gap = max(worst_gap, abs(loss - oracle))

    # closed-form piecewise checks, including loss = margin at s_p = s_n
    hand_cases = [
        ((0, 0), (3, 4), (6, 8), 1.0, 0.0),          # 5 - 10 + 1 < 0
        ((0, 0), (1, 0), (0, 2), 2.0, 1.0),          # 1 - 2 + 2
        ((1, 1), (4, 5), (4, 5), 0.7, 0.7),          # equal p and n leave the margin
        ((0, 0), (1, 0), (2, 0), 1.0, 0.0),          # exact hinge point
    ]
    exact = True
    for a, p, n_, margin, expected in hand_cases:
        loss, _ = triplet_loss(np.array(a, float), np.array(p, float), np.array(n_, float), margin)
        exact = exact and (loss == pytest.approx(expected, abs=1e-15))

    ok = worst_gap < 1e-10 and exact
    report(2, ok, f"loss oracles: mn-vs-brute-force gap {worst_gap:.2e}, triplet closed-form exact={exact}")
    assert worst_gap < 1e-10
    assert exact


# --- criterion 3: metric oracles ------------------------------------------------


def test_criterion_3_metric_oracles():
    def oracle_dcg(rel):
        return sum(r / math.log2(k + 1) for k, r in enumerate(rel, start=1))

    def oracle_ndcg(rel):
        return oracle_dcg(rel) / max(oracle_dcg(p) for p in itertools.permutations(rel))

    ndcg_exact = True
    for length in range(1, 7):
        for bits in itertools.product((0, 1), repeat=length):
            if any(bits):
                ndcg_exact = ndcg_exact and ndcg(list(bits)) == pytest.approx(
                    oracle_ndcg(bits), abs=1e-12
                )
    rnd = random.Random(3)
    for _ in range(100):
        rel = [round(rnd.uniform(0, 4), 2) for _ in range(rnd.randrange(1, 7))]
        if not any(rel):
            rel[0] = 2.0
        ndcg_exact = ndcg_exact and ndcg(rel) == pytest.approx(oracle_ndcg(tuple(rel)), abs=1e-12)

    rng = np.random.default_rng(33)
    pearson_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 25))
        x, y = rng.standard_normal((2, n))
        mx, my = sum(x) / n, sum(y) / n
        cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
        oracle = cov / math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
        pearson_gap = max(pearson_gap, abs(pearson(x, y) - oracle))

    scaling_ok = True
    for _ in range(200):
        sims = rng.standard_normal(30)
        factor = float(rng.uniform(1e-3, 1e3))
        scaling_ok = scaling_ok and rank_candidates(list(sims)) == rank_candidates(
            list(sims * factor)
        )

    ok = ndcg_exact and pearson_gap < 1e-12 and scaling_ok
    report(
        3,
        ok,
        f"metric oracles: ndcg exhaustive exact={ndcg_exact}, pearson gap {pearson_gap:.2e}, "
        f"ranking scale-invariant={scaling_ok}",
    )
    assert ndcg_exact
    assert pearson_gap < 1e-12
    assert scaling_ok


# --- criterion 4: pipeline properties -------------------------------------------


def _random_edges(rnd: random.Random, num_targets: int):
    edges = []
    for t in range(num_targets):
        kind = QUOTE if rnd.random() < 0.5 else "reply"
        for r in range(rnd.randrange(1, 7)):
            edges.append(
                RelationEdge(
                    kind=kind,
                    target_id=f"t{t}",
                    response_id=f"t{t}r{r}",
                    target_text=f"target body words {t} alpha granite lantern",
                    response_text=f"response body words {t} {r} copper stream beacon",
                )
            )
    return edges


def test_criterion_4_pipeline_properties():
    rnd = random.Random(404)

    one_per_target = True
    for trial in range(15):
        index = index_responses(_random_edges(rnd, rnd.randrange(3, 25)))[0]
        for kind, builder in (("qt", build_pairs), ("rp", build_pairs),
                              ("coqt", build_co_pairs), ("corp", build_co_pairs)):
            pairs = builder(index, kind, seed=trial)
            if kind in ("qt", "rp"):
                targets = [p.anchor_id for p in pairs]
            else:
                targets = [p.anchor_id.rsplit("r", 1)[0] for p in pairs]
            one_per_target = one_per_target and len(targets) == len(set(targets))

    bench_edges = []
    for t in range(30):
        for r in range(8):
            bench_edges.append(
                RelationEdge(
                    kind=QUOTE,
                    target_id=f"q{t}",
                    response_id=f"q{t}r{r}",
                    target_text=f"bench target words {t} granite lantern harbor",
                    response_text=f"bench response words {t} {r} copper stream beacon",
                )
            )
    bench_index = index_responses(bench_edges)[0]
    bench = build_benchmark(bench_index, "dq", num_queries=5, seed=1)
    shape_ok = all(
        len(q.positives) == 5 and len(q.negatives) == 25 for q in bench.queries
    )
    pairs = exclude_ids(build_pairs(bench_index, "qt", seed=2), bench.involved_ids())
    train_ids = {p.anchor_id for p in pairs} | {p.positive_id for p in pairs}
    disjoint = not (train_ids & bench.involved_ids())

    alphabet = string.printable + "  éñ漢字"
    fragments = ("https://", "http://t.co/", "@", "@@", "  ", "\t", "HTTP://X.Y/z")
    idempotent = True
    for i in range(10_000):
        pieces = []
        for _ in range(rnd.randrange(0, 8)):
            if rnd.random() < 0.25:
                pieces.append(rnd.choice(fragments))
            else:
                pieces.append("".join(rnd.choice(alphabet) for _ in range(rnd.randrange(0, 10))))
        text = "".join(pieces)
        once = clean(text)
        idempotent = idempotent and clean(once) == once

    ok = one_per_target and shape_ok and disjoint and idempotent
    report(
        4,
        ok,
        f"pipeline properties: one-pair-per-target={one_per_target}, bench shape 5/25={shape_ok}, "
        f"train/bench ids disjoint={disjoint}, clean idempotent on 10k strings={idempotent}",
    )
    assert ok


# --- criteria 5-8: end-to-end learning on the synthetic task --------------------

MASTER_SEED = 20
SYNTH_ARGS = ("--topics", 50, "--pairs-per-topic", 40, "--vocab-size", 600, "--noise", 0.3)


def run_learning_pipeline(work: Path, master: int) -> dict:
    """Criterion-5 recipe, CLI-driven: train on one synthetic store, evaluate on a
    held-out DQ benchmark generated from an independent store."""
    work.mkdir(parents=True, exist_ok=True)
    train_store = work / "train_store.jsonl"
    bench_store = work / "bench_store.jsonl"

    assert run_cli("--seed", master, "synth", *SYNTH_ARGS, "--out", train_store) == 0
    assert run_cli("--seed", master, "ingest", "--inputs", train_store,
                   "--out", work / "train_records.jsonl") == 0
    assert run_cli("--seed", master, "build", "--records", work / "train_records.jsonl",
                   "--dataset", "qt", "--bench-queries", 0, "--out-dir", work / "train_built") == 0

    bench_master = derive_seed(master, "benchmark-store")
    assert run_cli("--seed", bench_master, "synth", *SYNTH_ARGS,
                   "--responses-per-target", 5, "--out", bench_store) == 0
    assert run_cli("--seed", bench_master, "ingest", "--inputs", bench_store,
                   "--out", work / "bench_records.jsonl") == 0
    assert run_cli("--seed", bench_master, "build", "--records", work / "bench_records.jsonl",
                   "--dataset", "qt", "--bench-queries", 200, "--out-dir", work / "bench_built") == 0

    pairs_path = work / "train_built" / "pairs_qt.tsv"
    bench_path = work / "bench_built" / "bench_dq.jsonl"
    checkpoint = work / "model.ckpt"
    assert run_cli("--seed", master, "train", "--pairs", pairs_path, "--out", checkpoint) == 0
    assert run_cli("--seed", master, "eval", "--checkpoint", checkpoint, "--inputs", bench_path,
                   "--out-dir", work / "reports") == 0

    # the untrained twin: same vocab recipe, same derived init seed, no training
    pairs = read_pairs(pairs_path)
    texts = [p.anchor_text for p in pairs] + [p.positive_text for p in pairs]
    vocab = build_vocab(texts, max_size=2000)
    untrained = init_model(vocab, dim=64, use_block=True,
                           seed=derive_seed(master, "encoder-init"))
    bench = read_benchmark(bench_path, name="dq")
    untrained_value = eval_ranking(untrained, bench).value

    trained_report = json.loads((work / "reports" / "report_bench_dq.json").read_text())
    return {
        "pairs_path": pairs_path,
        "bench_path": bench_path,
        "bench": bench,
        "checkpoint_sha": hashlib.sha256(checkpoint.read_bytes()).hexdigest(),
        "trained_value": trained_report["value"],
        "per_query": trained_report["per_query"],
        "untrained_value": untrained_value,
        "train_pairs": len(pairs),
    }


@pytest.fixture(scope="module")
def learning_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("acceptance_e2e")
    started = time.time()
    result = run_learning_pipeline(work, MASTER_SEED)
    result["elapsed"] = time.time() - started
    result["work"] = work
    return result


def test_criterion_5_end_to_end_learning(learning_run):
    baseline = permutation_ndcg_baseline(5, 25)
    gain = learning_run["trained_value"] - learning_run["untrained_value"]
    ok = (
        gain >= 0.15
        and learning_run["trained_value"] > baseline
        and learning_run["elapsed"] < 300.0
    )
    report(
        5,
        ok,
        f"end-to-end learning: untrained {learning_run['untrained_value']:.4f} -> "
        f"trained {learning_run['trained_value']:.4f} (gain {gain:+.4f} >= 0.15), "
        f"mc baseline {baseline:.4f}, runtime {learning_run['elapsed']:.1f}s "
        f"on {learning_run['train_pairs']} pairs",
    )
    assert gain >= 0.15
    assert learning_run["trained_value"] > baseline
    assert learning_run["elapsed"] < 300.0


def test_criterion_6_mn_beats_triplet(learning_run, tmp_path_factory):
    work = tmp_path_factory.mktemp("acceptance_c6")
    bench = learning_run["bench"]
    wins = 0
    scores = []
    for run_seed in range(5):
        prefix = work / f"run{run_seed}"
        prefix.mkdir()
        assert run_cli("--seed", run_seed, "synth", *SYNTH_ARGS,
                       "--out", prefix / "store.jsonl") == 0
        assert run_cli("--seed", run_seed, "ingest", "--inputs", prefix / "store.jsonl",
                       "--out", prefix / "records.jsonl") == 0
        assert run_cli("--seed", run_seed, "build", "--records", prefix / "records.jsonl",
                       "--dataset", "qt", "--bench-queries", 0, "--out-dir", prefix) == 0
        pairs = read_pairs(prefix / "pairs_qt.tsv")
        texts = [p.anchor_text for p in pairs] + [p.positive_text for p in pairs]
        vocab = build_vocab(texts, max_size=2000)
        values = {}
        for loss in ("multiple_negatives", "triplet"):
            model = init_model(vocab, dim=64, use_block=True,
                               seed=derive_seed(run_seed, "encoder-init"))
            config = TrainConfig(loss=loss, batch_size=50, seed=derive_seed(run_seed, "train"))
            model, _ = train(model, pairs, config)
            values[loss] = eval_ranking(model, bench).value
        wins += values["multiple_negatives"] >= values["triplet"]
        scores.append((round(values["multiple_negatives"], 4), round(values["triplet"], 4)))
    ok = wins >= 4
    report(6, ok, f"MNLoss >= TripletLoss in {wins}/5 matched runs (mn, tl per run: {scores})")
    assert wins >= 4


def test_criterion_7_corpus_and_batch_sweeps(learning_run, tmp_path_factory):
    work = tmp_path_factory.mktemp("acceptance_c7")
    pool_seed = derive_seed(MASTER_SEED, "sweep-pool")
    assert run_cli("--seed", pool_seed, "synth", "--topics", 50, "--pairs-per-topic", 1400,
                   "--vocab-size", 600, "--noise", 0.3, "--out", work / "pool_store.jsonl") == 0
    assert run_cli("--seed", pool_seed, "ingest", "--inputs", work / "pool_store.jsonl",
                   "--out", work / "pool_records.jsonl") == 0
    assert run_cli("--seed", pool_seed, "build", "--records", work / "pool_records.jsonl",
                   "--dataset", "qt", "--bench-queries", 0, "--out-dir", work / "pool_built") == 0
    pool_path = work / "pool_built" / "pairs_qt.tsv"

    assert run_cli("--seed", MASTER_SEED, "sweep", "--axis", "corpus_size",
                   "--values", 500, 2000, 8000, 32000,
                   "--pairs", pool_path, "--benchmark", learning_run["bench_path"],
                   "--include-baseline", "--out-dir", work / "corpus_sweep") == 0
    with open(work / "corpus_sweep" / "sweep_summary.csv") as handle:
        corpus_rows = list(csv.DictReader(handle))
    curve = [(int(r["value"]), float(r["ndcg"])) for r in corpus_rows]
    steps = [b >= a - 1e-12 for (_, a), (_, b) in zip(curve, curve[1:])]
    non_decreasing = sum(steps)

    assert run_cli("--seed", MASTER_SEED, "sweep", "--axis", "batch_size",
                   "--values", 2, 10, 50,
                   "--pairs", pool_path, "--benchmark", learning_run["bench_path"],
                   "--out-dir", work / "batch_sweep") == 0
    with open(work / "batch_sweep" / "sweep_summary.csv") as handle:
        batch_rows = {int(r["value"]): float(r["ndcg"]) for r in csv.DictReader(handle)}
    plateau_gap = batch_rows[50] - batch_rows[10]

    ok = non_decreasing >= 3 and plateau_gap <= 0.05
    report(
        7,
        ok,
        f"sweeps: corpus curve {curve} has {non_decreasing}/4 non-decreasing steps "
        f"(including the untrained baseline step); batch nDCG(50) - nDCG(10) = "
        f"{plateau_gap:+.4f} <= 0.05",
    )
    assert non_decreasing >= 3
    assert plateau_gap <= 0.05


def test_criterion_8_determinism(learning_run, tmp_path_factory):
    rerun = run_learning_pipeline(tmp_path_factory.mktemp("acceptance_c8"), MASTER_SEED)
    same_checkpoint = rerun["checkpoint_sha"] == learning_run["checkpoint_sha"]
    same_values = (
        rerun["trained_value"] == learning_run["trained_value"]
        and rerun["per_query"] == learning_run["per_query"]
        and rerun["untrained_value"] == learning_run["untrained_value"]
    )
    ok = same_checkpoint and same_values
    report(
        8,
        ok,
        f"determinism: checkpoint bitwise identical={same_checkpoint}, "
        f"report values identical={same_values}",
    )
    assert same_checkpoint
    assert same_values

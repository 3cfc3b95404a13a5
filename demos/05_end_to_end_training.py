"""The full loop: mine pairs from a synthetic stream, train, evaluate.

Targets and responses in the synthetic stream use disjoint halves of each
topic's vocabulary, the way a quote comments on a tweet with its own words:
an untrained encoder scores near the random floor, and one epoch of
contrastive training has to learn the cross-vocabulary topic structure.

Run: python demos/05_end_to_end_training.py   (about 20 seconds)
"""

import tempfile
import time
from pathlib import Path

from weakpairs import (
    build_benchmark,
    build_pairs,
    build_vocab,
    eval_ranking,
    index_responses,
    init_model,
    permutation_ndcg_baseline,
    train,
)
from weakpairs.ingest import extract_relations, index_records, join_reply_targets, parse_stream_file
from weakpairs.optim import TrainConfig
from weakpairs.synth import generate_records, write_store

work = Path(tempfile.mkdtemp())
t0 = time.time()

# training stream: many single-response targets -> many (quoted, quote) pairs
train_store = work / "train.jsonl"
write_store(generate_records(topics=40, pairs_per_topic=50, vocab_size=600,
                             noise=0.3, seed=1), train_store)
records, _ = parse_stream_file(train_store, "en")
edges, _ = join_reply_targets(extract_relations(records), index_records(records))
pairs = build_pairs(index_responses(edges)[0], "qt", seed=1)

# evaluation stream: an independent generation, so its tweets are held out
# of training by construction; hub targets make benchmark queries possible
eval_store = work / "eval.jsonl"
write_store(generate_records(topics=40, pairs_per_topic=50, vocab_size=600,
                             noise=0.3, seed=2, responses_per_target=5), eval_store)
eval_records, _ = parse_stream_file(eval_store, "en")
eval_edges, _ = join_reply_targets(extract_relations(eval_records), index_records(eval_records))
bench = build_benchmark(index_responses(eval_edges)[0], "dq", num_queries=150, seed=2)

print(f"{len(pairs)} training pairs, {len(bench.queries)} benchmark queries")

vocab = build_vocab([p.anchor_text for p in pairs] + [p.positive_text for p in pairs], 2000)
model = init_model(vocab, dim=64, seed=3)

floor = permutation_ndcg_baseline(5, 25)
before = eval_ranking(model, bench).value
print(f"random-ranking floor:  nDCG = {floor:.4f}")
print(f"untrained encoder:     nDCG = {before:.4f}")

for loss_name in ("multiple_negatives", "triplet"):
    model = init_model(vocab, dim=64, seed=3)
    config = TrainConfig(loss=loss_name, batch_size=50, seed=4)
    model, log = train(model, pairs, config)
    score = eval_ranking(model, bench).value
    print(f"trained with {loss_name:19s} nDCG = {score:.4f} "
          f"(batch loss {log[0]['loss']:.3f} -> {log[-1]['loss']:.3f})")

print(f"\ndone in {time.time() - t0:.1f}s")

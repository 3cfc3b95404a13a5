"""From a raw tweet stream to training pairs and a ranking benchmark.

The stream here is synthetic, but it is written in the same JSON-lines
schema as the real archives, so the exact same parsing path applies.

Run: python demos/02_mining_pairs.py
"""

import tempfile
from pathlib import Path

from weakpairs import build_benchmark, build_co_pairs, build_pairs, exclude_ids, index_responses
from weakpairs.ingest import extract_relations, index_records, join_reply_targets, parse_stream_file
from weakpairs.synth import generate_records, write_store

work = Path(tempfile.mkdtemp())
store = work / "stream.jsonl"
write_store(
    generate_records(topics=12, pairs_per_topic=30, vocab_size=400, noise=0.25,
                     seed=7, responses_per_target=6),
    store,
)

# 1. parse the stream, keeping only the filter language
records, stats = parse_stream_file(store, lang_filter="en")
print(f"parsed {stats.parsed} records ({stats.malformed} malformed, "
      f"{stats.filtered_lang} other-language)")

# 2. resolve quote/reply links into (target, response) edges; replies carry
#    no embedded target text, so a join pass fills it from the record index
edges = extract_relations(records)
edges, dropped = join_reply_targets(edges, index_records(records))
print(f"{len(edges)} relation edges ({dropped} replies pointed outside the stream)")

# one pass cleans each text once, drops edges whose response is under 20
# characters, and groups the rest by target: every corpus and benchmark reads it
index, short = index_responses(edges)
print(f"{sum(len(targets) for targets in index.values())} targets after cleaning "
      f"({short} responses too short)")

# 3. the held-out benchmark comes first: 5 positives + 25 negatives per query
bench = build_benchmark(index, "dq", num_queries=3, seed=7)
query = bench.queries[0]
print(f"\nbenchmark query: {query.query_text[:60]}...")
print(f"  positive: {query.positives[0][:60]}...")
print(f"  negative: {query.negatives[0][:60]}...")

# 4. training corpora exclude every tweet the benchmark touched
banned = bench.involved_ids()
for kind, builder in (("qt", build_pairs), ("rp", build_pairs),
                      ("coqt", build_co_pairs), ("corp", build_co_pairs)):
    pairs = exclude_ids(builder(index, kind, seed=7), banned)
    print(f"{kind:5s}: {len(pairs)} pairs after banning {len(banned)} benchmark ids")

pair = exclude_ids(build_pairs(index, "qt", seed=7), banned)[0]
print(f"\nsample qt pair:\n  anchor:   {pair.anchor_text[:70]}\n  positive: {pair.positive_text[:70]}")
print("(one pair per quoted tweet, so viral tweets cannot dominate)")

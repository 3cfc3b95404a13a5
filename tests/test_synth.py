"""Synthetic store generator tests."""

import hashlib
import json

import pytest

from weakpairs.errors import UsageError
from weakpairs.ingest import extract_relations, index_records, join_reply_targets, parse_stream_file
from weakpairs.synth import generate_records, stream_records, write_store
from weakpairs.textproc import clean


def parse_store(tmp_path, records):
    path = tmp_path / "store.jsonl"
    write_store(records, path)
    parsed, stats = parse_stream_file(path, "en")
    return parsed, stats


class TestGenerateRecords:
    def test_edge_count_by_construction(self, tmp_path):
        records = generate_records(topics=50, pairs_per_topic=40, vocab_size=600, noise=0.3, seed=1)
        parsed, _ = parse_store(tmp_path, records)
        edges = extract_relations(parsed)
        assert len(edges) == 50 * 40

    def test_same_seed_identical_store(self):
        kwargs = dict(topics=5, pairs_per_topic=8, vocab_size=200, noise=0.4, seed=9)
        assert generate_records(**kwargs) == generate_records(**kwargs)

    def test_different_seeds_disjoint_ids(self):
        a = generate_records(topics=3, pairs_per_topic=6, vocab_size=150, noise=0.2, seed=1)
        b = generate_records(topics=3, pairs_per_topic=6, vocab_size=150, noise=0.2, seed=2)
        assert not ({r["id_str"] for r in a} & {r["id_str"] for r in b})

    def test_noise_zero_pairs_share_a_topic(self, tmp_path):
        # at noise=0 every token on both sides of a relation belongs to one
        # and the same topic
        records = generate_records(topics=4, pairs_per_topic=10, vocab_size=200, noise=0.0, seed=3)
        parsed, _ = parse_store(tmp_path, records)
        edges = extract_relations(parsed)
        edges, _ = join_reply_targets(edges, index_records(parsed))
        assert edges
        for edge in edges:
            target_tokens = clean(edge.target_text).split()
            response_tokens = clean(edge.response_text).split()
            topics = {token[:8] for token in target_tokens + response_tokens}
            assert len(topics) == 1
            assert topics.pop().startswith("topic")

    def test_targets_and_responses_use_disjoint_vocabulary(self, tmp_path):
        records = generate_records(topics=3, pairs_per_topic=8, vocab_size=200, noise=0.0, seed=5)
        parsed, _ = parse_store(tmp_path, records)
        edges = extract_relations(parsed)
        edges, _ = join_reply_targets(edges, index_records(parsed))
        for edge in edges:
            target_tokens = set(clean(edge.target_text).split())
            response_tokens = set(clean(edge.response_text).split())
            assert not (target_tokens & response_tokens)

    def test_texts_survive_cleaning_length_filter(self, tmp_path):
        records = generate_records(topics=3, pairs_per_topic=5, vocab_size=150, noise=0.5, seed=4)
        parsed, _ = parse_store(tmp_path, records)
        for record in parsed:
            assert len(clean(record.text)) >= 20

    def test_quote_records_embed_target_text(self):
        records = generate_records(
            topics=2, pairs_per_topic=4, vocab_size=100, noise=0.1, seed=5, responses_per_target=2
        )
        quotes = [r for r in records if "quoted_status" in r]
        assert quotes
        by_id = {r["id_str"]: r for r in records}
        for quote in quotes:
            hub = by_id[quote["quoted_status"]["id_str"]]
            assert quote["quoted_status"]["text"] == hub["text"]

    def test_replies_reference_by_id_only(self):
        records = generate_records(
            topics=2, pairs_per_topic=4, vocab_size=100, noise=0.1, seed=6, responses_per_target=2
        )
        replies = [r for r in records if "in_reply_to_status_id_str" in r]
        assert replies
        ids = {r["id_str"] for r in records}
        for reply in replies:
            assert reply["in_reply_to_status_id_str"] in ids
            assert "quoted_status" not in reply

    def test_responses_per_target_controls_hub_size(self, tmp_path):
        records = generate_records(
            topics=2, pairs_per_topic=10, vocab_size=100, noise=0.2, seed=7, responses_per_target=5
        )
        parsed, _ = parse_store(tmp_path, records)
        edges = extract_relations(parsed)
        per_target = {}
        for edge in edges:
            per_target[edge.target_id] = per_target.get(edge.target_id, 0) + 1
        assert set(per_target.values()) == {5}
        assert len(edges) == 20

    def test_validation(self):
        with pytest.raises(UsageError):
            generate_records(topics=1, pairs_per_topic=4, vocab_size=100, noise=0.2, seed=0)
        with pytest.raises(UsageError):
            generate_records(topics=4, pairs_per_topic=4, vocab_size=100, noise=1.5, seed=0)
        with pytest.raises(UsageError):
            generate_records(topics=90, pairs_per_topic=4, vocab_size=100, noise=0.2, seed=0)
        # the streaming form checks when called, before any record is drawn
        with pytest.raises(UsageError):
            stream_records(topics=4, pairs_per_topic=0, vocab_size=100, noise=0.2, seed=0)

    def test_store_is_valid_archive_jsonl(self, tmp_path):
        records = generate_records(topics=2, pairs_per_topic=3, vocab_size=100, noise=0.3, seed=8)
        path = tmp_path / "store.jsonl"
        write_store(records, path)
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            assert "id_str" in obj and "text" in obj and obj["lang"] == "en"


# sha256 over json.dumps of each record, each ended by a newline, as Random.choice
# and randint drew them; any change to the draws moves a digest.  vocab 230 gives
# 46 filler and 18 own tokens per topic and role, sizes that take redraws.
PINNED_STREAMS = [
    (0.0, 1, 1, 400, "a69572c01a73995e45acb0840cf4029e24d68237c81f55c37729a64d690883ed"),
    (0.0, 6, 2, 235, "25c34a36a7d9443b9ac1e856836de4f59a4fff8c2a4c6f287f23e0cab39ddfb0"),
    (0.6, 1, 3, 400, "154b3f0b764d3212ac905532777f52504f6f0204e5d2bb97ab007c793a658b78"),
    (0.6, 6, 4, 235, "123229651a2afd0f8a1016f81b0c95e367405c818cc96945168ffbd226130a0f"),
    (1.0, 1, 5, 400, "712edcff439161b8e3e6521c76675990521018c5edad2de4d5bb02037adbda57"),
    (1.0, 6, 6, 235, "2c99bc0bdb5fec363de6b00c59a8339b45a44530c6c484ff55173d01ae234816"),
]


@pytest.mark.parametrize("noise, responses_per_target, seed, count, digest", PINNED_STREAMS)
def test_record_stream_pinned(noise, responses_per_target, seed, count, digest):
    records = generate_records(
        topics=5, pairs_per_topic=40, vocab_size=230, noise=noise, seed=seed,
        responses_per_target=responses_per_target,
    )
    assert len(records) == count
    texts = [r["text"] for r in records]
    # both decoration branches are drawn, so the digest covers them
    assert any("https://t.co/" in t for t in texts) and any("@user" in t for t in texts)
    body = "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")
    assert hashlib.sha256(body).hexdigest() == digest

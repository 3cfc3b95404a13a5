"""Synthetic tweet-stream generator for desk-scale pipeline runs.

Texts are bags of topic-specific tokens mixed with shared filler tokens; a
``noise`` fraction controls the mix.  Target tweets draw from one half of
their topic's vocabulary and responses from the other half, the way a quote
comments on a tweet with its own words: a (target, response) pair shares a
topic but almost no literal tokens, so ranking its relations well requires
learned embeddings rather than lexical overlap.  At noise=0 every token of
both sides belongs to the pair's topic.  Records are emitted in the exact
archive JSONL schema, so the regular ingest path consumes them unmodified.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from .atomic import write_jsonl
from .errors import UsageError

TEXT_MIN_TOKENS = 6
TEXT_MAX_TOKENS = 12
DECORATION_PROB = 0.15  # chance of appending a URL or mention, exercised by cleaning


def _stable_hash(value: str) -> int:
    return int.from_bytes(hashlib.sha256(value.encode("utf-8")).digest()[:8], "little")


class _TopicSpace:
    def __init__(self, topics: int, vocab_size: int):
        shared = max(10, vocab_size // 5)
        per_topic = (vocab_size - shared) // topics
        if per_topic < 4:
            raise UsageError(
                f"vocab_size {vocab_size} too small for {topics} topics: each topic "
                f"needs >= 4 own tokens after reserving {shared} filler tokens"
            )
        half = per_topic // 2
        self.filler = [f"filler{i:04d}" for i in range(shared)]
        self.target_tokens = [
            [f"topic{t:03d}src{j:03d}" for j in range(half)] for t in range(topics)
        ]
        self.response_tokens = [
            [f"topic{t:03d}rsp{j:03d}" for j in range(half, per_topic)] for t in range(topics)
        ]

    def text(self, topic: int, role: str, noise: float, rng: random.Random) -> str:
        own = self.target_tokens[topic] if role == "target" else self.response_tokens[topic]
        length = rng.randint(TEXT_MIN_TOKENS, TEXT_MAX_TOKENS)
        tokens = [
            rng.choice(self.filler) if rng.random() < noise else rng.choice(own)
            for _ in range(length)
        ]
        if rng.random() < DECORATION_PROB:
            if rng.random() < 0.5:
                tokens.append(f"https://t.co/{rng.randrange(16**6):06x}")
            else:
                tokens.append(f"@user{rng.randrange(10**4):04d}")
        return " ".join(tokens)


def generate_records(
    topics: int,
    pairs_per_topic: int,
    vocab_size: int,
    noise: float,
    seed: int,
    responses_per_target: int = 1,
) -> list[dict]:
    """Generate raw archive-schema objects: hubs plus quote/reply responses.

    Each topic contributes exactly ``pairs_per_topic`` relation edges, spread
    over target tweets carrying ``responses_per_target`` responses each
    (alternating quote targets and reply targets).  Replies reference their
    target by id only, quotes embed the quoted text, exactly as the archive
    does.
    """
    if topics < 2:
        raise UsageError(f"need at least 2 topics, got {topics}")
    if pairs_per_topic < 1:
        raise UsageError(f"pairs_per_topic must be >= 1, got {pairs_per_topic}")
    if responses_per_target < 1:
        raise UsageError(f"responses_per_target must be >= 1, got {responses_per_target}")
    if not 0.0 <= noise <= 1.0:
        raise UsageError(f"noise must be in [0, 1], got {noise}")

    space = _TopicSpace(topics, vocab_size)
    rng = random.Random(seed)
    # the id prefix is seed-derived so stores from different seeds do not collide
    id_base = (_stable_hash(f"synth:{seed}") % 9_000_000) + 1_000_000
    counter = 0

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"{id_base}{counter:09d}"

    records: list[dict] = []
    for topic in range(topics):
        remaining = pairs_per_topic
        target_index = 0
        while remaining > 0:
            take = min(responses_per_target, remaining)
            remaining -= take
            hub_id = next_id()
            hub_text = space.text(topic, "target", noise, rng)
            records.append({"id_str": hub_id, "text": hub_text, "lang": "en"})
            as_quote = target_index % 2 == 0
            target_index += 1
            for _ in range(take):
                obj = {
                    "id_str": next_id(),
                    "text": space.text(topic, "response", noise, rng),
                    "lang": "en",
                }
                if as_quote:
                    obj["quoted_status"] = {"id_str": hub_id, "text": hub_text}
                else:
                    obj["in_reply_to_status_id_str"] = hub_id
                records.append(obj)
    return records


def write_store(records: list[dict], path: str | Path) -> int:
    return write_jsonl(path, records)

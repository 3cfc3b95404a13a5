"""Synthetic tweet-stream generator for desk-scale pipeline runs.

Texts are bags of topic-specific tokens mixed with shared filler tokens; a
``noise`` fraction controls the mix.  Target tweets draw from one half of
their topic's vocabulary and responses from the other half, the way a quote
comments on a tweet with its own words: a (target, response) pair shares a
topic but almost no literal tokens, so ranking its relations well requires
learned embeddings rather than lexical overlap.  At noise=0 every token of
both sides belongs to the pair's topic.  Records are emitted in the exact
archive JSONL schema, so the regular ingest path consumes them unmodified.

Draw rule: every index below ``n`` (a text's length, a token in its pool, a
decoration's number) is ``k = n.bit_length()`` bits from the seeded Mersenne
Twister's ``getrandbits(k)``, drawn again while it reads ``n`` or more; every
coin is ``random()``.  That is the rule ``Random.choice`` and ``randint``
apply, taken here without their call overhead, so a seed's records depend on
those two public methods alone.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Iterable, Iterator

from .atomic import write_jsonl
from .errors import UsageError

TEXT_MIN_TOKENS = 6
TEXT_MAX_TOKENS = 12
DECORATION_PROB = 0.15  # chance of appending a URL or mention, exercised by cleaning


def _stable_hash(value: str) -> int:
    return int.from_bytes(hashlib.sha256(value.encode("utf-8")).digest()[:8], "little")


def _below(bits, n: int) -> int:
    """A uniform index in [0, n): ``n.bit_length()`` bits from ``bits``, drawn again while they read >= n."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


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
        filler = self.filler
        bits, uniform = rng.getrandbits, rng.random
        own_n, filler_n = len(own), len(filler)
        own_k, filler_k = own_n.bit_length(), filler_n.bit_length()
        tokens = []
        for _ in range(TEXT_MIN_TOKENS + _below(bits, TEXT_MAX_TOKENS - TEXT_MIN_TOKENS + 1)):
            # _below inlined: the call costs as much as the draw
            if uniform() < noise:
                pool, n, k = filler, filler_n, filler_k
            else:
                pool, n, k = own, own_n, own_k
            r = bits(k)
            while r >= n:
                r = bits(k)
            tokens.append(pool[r])
        if uniform() < DECORATION_PROB:
            if uniform() < 0.5:
                tokens.append(f"https://t.co/{_below(bits, 16**6):06x}")
            else:
                tokens.append(f"@user{_below(bits, 10**4):04d}")
        return " ".join(tokens)


def stream_records(
    topics: int,
    pairs_per_topic: int,
    vocab_size: int,
    noise: float,
    seed: int,
    responses_per_target: int = 1,
) -> Iterator[dict]:
    """Raw archive-schema objects, made one at a time: hubs plus quote/reply responses.

    Each topic contributes exactly ``pairs_per_topic`` relation edges, spread
    over target tweets carrying ``responses_per_target`` responses each
    (alternating quote targets and reply targets).  Replies reference their
    target by id only, quotes embed the quoted text, exactly as the archive
    does.  The settings are checked when this is called, before the first
    record is made: a bad one raises UsageError here.
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
    return _records(space, topics, pairs_per_topic, noise, seed, responses_per_target)


def _records(
    space: _TopicSpace, topics: int, pairs_per_topic: int, noise: float, seed: int, responses_per_target: int
) -> Iterator[dict]:
    rng = random.Random(seed)
    # the id prefix is seed-derived so stores from different seeds do not collide
    id_base = (_stable_hash(f"synth:{seed}") % 9_000_000) + 1_000_000
    counter = 0

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"{id_base}{counter:09d}"

    for topic in range(topics):
        remaining = pairs_per_topic
        target_index = 0
        while remaining > 0:
            take = min(responses_per_target, remaining)
            remaining -= take
            hub_id = next_id()
            hub_text = space.text(topic, "target", noise, rng)
            yield {"id_str": hub_id, "text": hub_text, "lang": "en"}
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
                yield obj


def generate_records(
    topics: int,
    pairs_per_topic: int,
    vocab_size: int,
    noise: float,
    seed: int,
    responses_per_target: int = 1,
) -> list[dict]:
    """``stream_records``' objects as one list."""
    return list(stream_records(topics, pairs_per_topic, vocab_size, noise, seed, responses_per_target))


def write_store(records: Iterable[dict], path: str | Path) -> int:
    return write_jsonl(path, records)

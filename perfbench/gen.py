"""Workload generator for the weakpairs benchmark (set-up only, never timed as a stage).

Writes, from one seed, everything a workload's pipeline reads:

- ``stream/``: archive-shaped tweet objects (``user``, ``entities``,
  ``created_at``, ``source`` around the fields ingest reads, about 1 KB per
  line) from ``weakpairs.synth``, shuffled over several ``.gz`` files and one
  ``.bz2`` file, with a fixed number of truncated lines, non-``en`` lines and
  ``{"delete": ...}`` notices mixed in;
- ``graded.tsv``: graded pairs of held-out texts, score 5 for one topic and 0
  for two, each side 1 to ``graded_max_texts`` texts of its topic joined;
- ``manifest.json``: sizes and the exact injected-line counts.

Run from the repository root:
    PYTHONPATH=src python3 perfbench/gen.py --workload archive --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import bz2
import gzip
import hashlib
import json
import random
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

TOPICS = 100
NOISE = 0.6  # at 0.3 the co-response benchmarks reach 0.99 nDCG; 0.6 leaves headroom
SYNTH_VOCAB = 600  # two tokens per topic and role, so topics are learnable in a few steps
RESPONSES_PER_TARGET = 6
HELDOUT_PAIRS_PER_TOPIC = 24  # held-out texts per topic for the graded pairs: 4 hubs, 24 responses
GZ_FILES = 4
BZ2_SHARE = 0.1  # bz2 is slow to write, so its file is smaller than the gzip ones
USERS = 2000  # accounts in the archive; each tweet's author is drawn from them
LANGS = ("es", "pt", "ja", "fr", "de", "und")
SOURCES = ("Twitter for Android", "Twitter for iPhone", "Twitter Web App", "TweetDeck")
WORDS = (
    "signal harvest window orbital number granite velvet copper stream meadow lantern "
    "crystal harbor thunder silver marble beacon hollow ember drift quartz saffron timber "
    "violet breeze cinder fan of news music coffee travel photos opinions my own dad runner"
).split()


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; what it loads and bypasses is in BENCHMARK.json."""

    pairs_per_topic: int
    tail_tokens: int  # rare tokens appended to every text (long-tail vocabulary)
    bench_queries: int  # per benchmark built by `build`
    pairs_per_dataset: int
    train_args: tuple[str, ...]
    graded_pairs: int
    graded_max_texts: int


WORKLOADS = {
    # ingest, corpus and inference do the work: large objects, 4 x 60 benchmark
    # queries each shuffling the whole candidate pool, cleaning several times per
    # record, and 6k graded pairs of ragged length; training is small
    "archive": Workload(
        pairs_per_topic=150, tail_tokens=0,
        bench_queries=60, pairs_per_dataset=200, train_args=(),
        graded_pairs=6000, graded_max_texts=7,
    ),
    # encoder and optim do the work: per-sentence dense V x dim gradient buffers
    # at V ~ 20k; the rare tail inflates V while topic tokens stay learnable
    "bigvocab": Workload(
        pairs_per_topic=60, tail_tokens=20,
        bench_queries=20, pairs_per_dataset=125, train_args=("--vocab-size", "100000"),
        graded_pairs=1500, graded_max_texts=1,
    ),
}


def injected_counts(records: int) -> dict[str, int]:
    """Lines mixed into the stream, as ingest must count them."""
    return {"malformed": records // 100, "filtered_lang": records // 50, "no_text": records // 40}


def _seed(seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{purpose}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _user(rng: random.Random, uid: int) -> dict:
    name = "".join(rng.choice("aeioubdfgklmnprstvz") for _ in range(rng.randint(5, 10)))
    return {
        "id": uid,
        "id_str": str(uid),
        "name": name.title(),
        "screen_name": f"{name}{rng.randrange(1000)}",
        "location": rng.choice(("", "Lisbon", "Osaka", "Lagos", "Denver, CO")),
        "description": " ".join(rng.choices(WORDS, k=rng.randint(6, 16))),
        "protected": False,
        "verified": False,
        "followers_count": rng.randrange(20000),
        "friends_count": rng.randrange(3000),
        "statuses_count": rng.randrange(90000),
        "created_at": f"Mon Mar {rng.randint(10, 28)} 0{rng.randrange(10)}:14:05 +0000 2014",
        "profile_image_url_https": f"https://pbs.twimg.com/profile_images/{uid}/{name}_normal.jpg",
    }


_URL_RE = re.compile(r"https?://\S+")
_MENTION_RE = re.compile(r"@(\w+)")


def _entities(text: str) -> dict:
    return {
        "hashtags": [],
        "urls": [{"url": u, "expanded_url": u, "display_url": u[8:]} for u in _URL_RE.findall(text)],
        "user_mentions": [{"screen_name": m, "name": m} for m in _MENTION_RE.findall(text)],
        "symbols": [],
    }


def _archive_object(rng: random.Random, users: list[dict], obj: dict, index: int) -> dict:
    """Wrap a synth record in the fields a real archive object carries."""
    tweet_id = int(obj["id_str"])
    out = {
        "created_at": f"Sat Oct 17 {index // 3600 % 24:02d}:{index // 60 % 60:02d}:{index % 60:02d} +0000 2020",
        "id": tweet_id,
        "id_str": obj["id_str"],
        "text": obj["text"],
        "source": f'<a href="http://twitter.com" rel="nofollow">{rng.choice(SOURCES)}</a>',
        "truncated": False,
        "in_reply_to_status_id_str": obj.get("in_reply_to_status_id_str"),
        "user": rng.choice(users),
        "is_quote_status": "quoted_status" in obj,
        "retweet_count": 0,
        "favorite_count": 0,
        "entities": _entities(obj["text"]),
        "lang": obj["lang"],
        "timestamp_ms": str(1602957600000 + index * 37),
    }
    if "quoted_status" in obj:
        quoted = obj["quoted_status"]
        out["quoted_status"] = {
            "id_str": quoted["id_str"],
            "text": quoted["text"],
            "user": rng.choice(users),
            "entities": _entities(quoted["text"]),
            "lang": "en",
        }
    return out


def _add_tail(records: list[dict], tail_tokens: int, rng: random.Random) -> None:
    """Append rare tokens to every text; quotes keep embedding their hub's text."""
    if tail_tokens == 0:
        return
    letters = "abcdefghijklmnopqrstuvwxyz"
    texts: dict[str, str] = {}
    for obj in records:
        chars = "".join(rng.choices(letters, k=7 * tail_tokens))
        tail = " ".join(chars[i : i + 7] for i in range(0, len(chars), 7))
        obj["text"] = texts[obj["id_str"]] = f"{obj['text']} {tail}"
        quoted = obj.get("quoted_status")
        if quoted is not None:
            quoted["text"] = texts[quoted["id_str"]]


def _stream_lines(records: list[dict], rng: random.Random) -> tuple[list[str], dict[str, int]]:
    users = [_user(rng, 10_000_000 + u) for u in range(USERS)]
    lines = [json.dumps(_archive_object(rng, users, obj, i)) for i, obj in enumerate(records)]
    counts = injected_counts(len(records))
    for _ in range(counts["malformed"]):
        whole = lines[rng.randrange(len(records))]
        lines.append(whole[: rng.randint(10, len(whole) - 2)])  # a proper prefix is never valid JSON
    for i in range(counts["filtered_lang"]):
        obj = dict(records[rng.randrange(len(records))], id_str=str(9_000_000_000_000_000 + i))
        obj["lang"] = rng.choice(LANGS)
        obj.pop("quoted_status", None)
        lines.append(json.dumps(_archive_object(rng, users, obj, i)))
    for i in range(counts["no_text"]):
        gone = records[rng.randrange(len(records))]["id_str"]
        lines.append(json.dumps({"delete": {"status": {"id": int(gone), "id_str": gone, "user_id": i},
                                            "timestamp_ms": str(1602957600000 + i)}}))
    rng.shuffle(lines)
    return lines, counts


def _write_stream(lines: list[str], out: Path) -> list[dict]:
    out.mkdir(parents=True, exist_ok=True)
    gz_lines = round(len(lines) * (1.0 - BZ2_SHARE))
    bounds = [k * gz_lines // GZ_FILES for k in range(GZ_FILES + 1)] + [len(lines)]
    files = []
    for k in range(GZ_FILES + 1):
        part = lines[bounds[k] : bounds[k + 1]]
        if k < GZ_FILES:
            path = out / f"stream-{k:02d}.json.gz"
            handle = gzip.GzipFile(path, "wb", compresslevel=1, mtime=0)  # no timestamp: same seed, same bytes
        else:
            path = out / f"stream-{k:02d}.json.bz2"
            handle = bz2.BZ2File(path, "wb", compresslevel=1)
        data = ("\n".join(part) + "\n").encode("utf-8")
        with handle:
            handle.write(data)
        files.append({"path": path.name, "lines": len(part), "raw_bytes": len(data)})
    return files


def _records(pairs_per_topic: int, seed: int) -> list[dict]:
    from weakpairs import synth

    return synth.generate_records(
        topics=TOPICS, pairs_per_topic=pairs_per_topic, vocab_size=SYNTH_VOCAB, noise=NOISE,
        seed=seed, responses_per_target=RESPONSES_PER_TARGET,
    )


def _heldout_texts(seed: int) -> list[list[str]]:
    """Texts per topic from held-out records: own ids, the training stream's topic vocabulary."""
    records = _records(HELDOUT_PAIRS_PER_TOPIC, _seed(seed, "heldout"))
    block = -(-HELDOUT_PAIRS_PER_TOPIC // RESPONSES_PER_TARGET) + HELDOUT_PAIRS_PER_TOPIC
    return [[r["text"] for r in records[t * block : (t + 1) * block]] for t in range(TOPICS)]


def _graded(spec: Workload, by_topic: list[list[str]], rng: random.Random) -> list[str]:
    def sentence(topic: int) -> str:
        return " ".join(rng.choices(by_topic[topic], k=rng.randint(1, spec.graded_max_texts)))

    rows = []
    for i in range(spec.graded_pairs):
        a = rng.randrange(TOPICS)
        b = a if i % 2 == 0 else (a + rng.randrange(1, TOPICS)) % TOPICS
        rows.append(f"{sentence(a)}\t{sentence(b)}\t{5 if a == b else 0}")
    return rows


def generate(workload: str, seed: int, out: Path) -> None:
    """Write one workload's inputs and their manifest under ``out``."""
    spec = WORKLOADS[workload]
    rng = random.Random(_seed(seed, "shape"))
    records = _records(spec.pairs_per_topic, _seed(seed, "stream"))
    _add_tail(records, spec.tail_tokens, rng)
    lines, injected = _stream_lines(records, rng)
    files = _write_stream(lines, out / "stream")

    graded = _graded(spec, _heldout_texts(seed), rng)
    (out / "graded.tsv").write_text("\n".join(graded) + "\n", encoding="utf-8")

    manifest = {
        "workload": workload,
        "seed": seed,
        "spec": asdict(spec),
        "records": len(records),
        "lines": len(lines),
        "injected": injected,
        "files": files,
        "graded_pairs": len(graded),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

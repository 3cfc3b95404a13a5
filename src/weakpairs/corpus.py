"""Build training pair corpora and held-out ranking benchmarks from relation edges.

Four pair corpora exist: ``qt`` (quoted tweet, quote), ``rp`` (tweet, reply),
``coqt`` (two quotes of the same tweet) and ``corp`` (two replies of the same
tweet).  Each target tweet contributes at most one pair per corpus, which
keeps viral tweets from dominating.  The matching ranking benchmarks are
``dq``, ``dr`` (query = target tweet, candidates = its responses) and ``cq``,
``cr`` (query = one response, positives = co-responses).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .atomic import read_jsonl, read_tsv, write_jsonl, write_tsv
from .errors import DataError
from .ingest import QUOTE, REPLY, RelationEdge, escape_field, unescape_field
from .textproc import clean

MIN_CHARS = 20

# Each pair corpus draws on one relation and has one benchmark built beside it.
# A direct corpus pairs a target with one of its responses; a co corpus pairs two
# responses of one target, and its benchmark's queries are responses too.
_RELATION_FOR = {"qt": QUOTE, "rp": REPLY, "coqt": QUOTE, "corp": REPLY}
BENCH_FOR_DATASET = {"qt": "dq", "rp": "dr", "coqt": "cq", "corp": "cr"}
CO_DATASETS = ("coqt", "corp")

PAIR_DATASETS = tuple(_RELATION_FOR)
BENCHMARK_NAMES = tuple(BENCH_FOR_DATASET.values())
_DATASET_FOR_BENCH = {bench: dataset for dataset, bench in BENCH_FOR_DATASET.items()}

# relation -> [(target id, target text or None, [(response id, response text)])]
ResponseIndex = dict[str, list[tuple[str, str | None, list[tuple[str, str]]]]]

POSITIVES_PER_QUERY = 5
NEGATIVES_PER_QUERY = 25


@dataclass
class PairExample:
    """One weakly-similar training pair of cleaned texts."""

    anchor_text: str
    positive_text: str
    dataset: str
    anchor_id: str
    positive_id: str


@dataclass
class BenchmarkQuery:
    query_text: str
    positives: list[str]
    negatives: list[str]
    involved_ids: set[str] = field(default_factory=set)


@dataclass
class RankingBenchmark:
    name: str
    queries: list[BenchmarkQuery]

    def involved_ids(self) -> set[str]:
        ids: set[str] = set()
        for query in self.queries:
            ids |= query.involved_ids
        return ids


def index_responses(edges: Iterable[RelationEdge]) -> tuple[ResponseIndex, int]:
    """Clean every edge text once and group the edges by target; return (index, dropped).

    Each distinct text goes through ``clean`` exactly once, however many edges
    share it.  An edge whose response cleans to under ``MIN_CHARS``
    characters is dropped and counted; a target text that does counts as
    missing.  The index holds, per relation, one entry per target in id
    order: (target id, target text, [(response id, response text)] sorted by
    id).  A target's text is the first non-missing one in edge order; a
    response id counts once per target, with the text of its first edge.
    Every corpus and benchmark of a build reads this one index.
    """
    memo: dict[str, str | None] = {}

    def valid(text: str) -> str | None:
        if text not in memo:
            cleaned = clean(text)
            memo[text] = cleaned if len(cleaned) >= MIN_CHARS else None
        return memo[text]

    texts: dict[tuple[str, str], str | None] = {}
    responses: dict[str, dict[str, dict[str, str]]] = {QUOTE: {}, REPLY: {}}
    dropped = 0
    for edge in edges:
        response_text = valid(edge.response_text)
        if response_text is None:
            dropped += 1
            continue
        target_text = valid(edge.target_text) if edge.target_text else None
        if texts.get((edge.kind, edge.target_id)) is None:
            texts[edge.kind, edge.target_id] = target_text
        responses[edge.kind].setdefault(edge.target_id, {}).setdefault(edge.response_id, response_text)
    index = {
        relation: [
            (target_id, texts[relation, target_id], sorted(by_target[target_id].items()))
            for target_id in sorted(by_target)
        ]
        for relation, by_target in responses.items()
    }
    return index, dropped


def build_pairs(index: ResponseIndex, kind: str, seed: int) -> list[PairExample]:
    """Build direct pairs (anchor = target text, positive = response text).

    ``index`` comes from ``index_responses``; a target with no text left
    yields no pair.  When several responses remain for one target, exactly
    one is chosen uniformly at random under the seed.
    """
    if kind not in PAIR_DATASETS or kind in CO_DATASETS:
        raise ValueError(f"kind must be a direct pair corpus, got {kind!r}")
    rng = random.Random(seed)
    pairs = []
    for target_id, target_text, responses in index[_RELATION_FOR[kind]]:
        if target_text is not None:
            response_id, response_text = responses[rng.randrange(len(responses))]
            pairs.append(PairExample(target_text, response_text, kind, target_id, response_id))
    return pairs


def build_co_pairs(index: ResponseIndex, kind: str, seed: int) -> list[PairExample]:
    """Build co-response pairs: two distinct responses to the same target.

    ``index`` comes from ``index_responses``.  Only targets with at least two
    responses yield a pair, and each target yields exactly one;
    anchor/positive order is the draw order.
    """
    if kind not in CO_DATASETS:
        raise ValueError(f"kind must be one of {CO_DATASETS}, got {kind!r}")
    rng = random.Random(seed)
    pairs = []
    for _, _, responses in index[_RELATION_FOR[kind]]:
        if len(responses) >= 2:
            (a_id, a_text), (p_id, p_text) = rng.sample(responses, 2)
            pairs.append(PairExample(a_text, p_text, kind, a_id, p_id))
    return pairs


def sample_corpus(pairs: Sequence[PairExample], n: int, seed: int) -> list[PairExample]:
    """Uniform sample of n pairs without replacement; output order is the shuffled draw order."""
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    if n > len(pairs):
        raise DataError(f"requested {n} pairs but only {len(pairs)} are available")
    return random.Random(seed).sample(list(pairs), n)


def exclude_ids(pairs: Iterable[PairExample], banned: set[str]) -> list[PairExample]:
    """Drop every pair that touches a banned tweet id on either side."""
    return [p for p in pairs if p.anchor_id not in banned and p.positive_id not in banned]


def _untried_indices(rng: random.Random, n: int) -> Iterator[int]:
    """Indices 0..n-1 in random order: uniform draws, skipping any already tried.

    A consumer that stops early pays only for the draws it took; one that
    does not stops once every index has been tried.
    """
    tried: set[int] = set()
    while len(tried) < n:
        index = rng.randrange(n)
        if index not in tried:
            tried.add(index)
            yield index


def build_benchmark(
    index: ResponseIndex,
    name: str,
    num_queries: int,
    seed: int,
    banned: set[str] | frozenset[str] = frozenset(),
) -> RankingBenchmark:
    """Assemble a held-out ranking benchmark of 5-positive / 25-negative queries.

    For ``dq``/``dr`` the query is a target tweet and positives are its own
    responses; for ``cq``/``cr`` the query is itself a response and positives
    are five co-responses of the same target.  Negatives always come from
    responses of other targets, drawn one index at a time from the whole
    pool, so a query costs the candidates it examines, not the pool size.
    Within one query no candidate text repeats and no negative duplicates the
    query text.  Ids listed in ``banned`` (e.g. from previously built
    benchmarks) never appear.  ``index`` comes from ``index_responses``.
    """
    if name not in BENCHMARK_NAMES:
        raise ValueError(f"benchmark name must be one of {BENCHMARK_NAMES}, got {name!r}")
    banned = set(banned)
    dataset = _DATASET_FOR_BENCH[name]
    co_style = dataset in CO_DATASETS
    need = POSITIVES_PER_QUERY + (1 if co_style else 0)

    pools: dict[str, list[tuple[str, str]]] = {}  # responses not banned, each text once
    eligible = []  # (target id, target text)
    for target_id, target_text, responses in index[_RELATION_FOR[dataset]]:
        texts: set[str] = set()
        pool = pools[target_id] = []
        for response in responses:
            response_id, text = response
            if response_id not in banned and text not in texts:
                texts.add(text)
                pool.append(response)
        if len(pool) >= need and (co_style or (target_id not in banned and target_text is not None)):
            eligible.append((target_id, target_text))
    if len(eligible) < num_queries:
        raise DataError(
            f"benchmark {name}: need {num_queries} queries but only {len(eligible)} "
            f"eligible targets (>= {need} distinct valid responses required)"
        )

    rng = random.Random(seed)
    chosen = rng.sample(eligible, num_queries)
    all_candidates = [
        (target_id, response_id, text) for target_id, pool in pools.items() for response_id, text in pool
    ]

    queries = []
    for target_id, target_text in chosen:
        involved: set[str] = set()
        if co_style:
            picks = rng.sample(pools[target_id], need)
            query_id, query_text = picks[0]
            positives = picks[1:]
            involved.add(query_id)
        else:
            query_text = target_text
            positives = rng.sample(pools[target_id], POSITIVES_PER_QUERY)
            involved.add(target_id)

        used_texts = {text for _, text in positives} | {query_text}
        negatives: list[tuple[str, str]] = []
        for index in _untried_indices(rng, len(all_candidates)):
            cand_target, cand_id, cand_text = all_candidates[index]
            if cand_target == target_id or cand_text in used_texts:
                continue
            negatives.append((cand_id, cand_text))
            used_texts.add(cand_text)
            if len(negatives) == NEGATIVES_PER_QUERY:
                break
        if len(negatives) < NEGATIVES_PER_QUERY:
            raise DataError(
                f"benchmark {name}: query target {target_id} found only "
                f"{len(negatives)} of {NEGATIVES_PER_QUERY} negatives"
            )

        involved.update(rid for rid, _ in positives)
        involved.update(rid for rid, _ in negatives)
        queries.append(
            BenchmarkQuery(
                query_text=query_text,
                positives=[text for _, text in positives],
                negatives=[text for _, text in negatives],
                involved_ids=involved,
            )
        )
    return RankingBenchmark(name=name, queries=queries)


# --- on-disk formats ---------------------------------------------------------


def write_pairs(pairs: Iterable[PairExample], path: str | Path) -> int:
    """Pair file: TSV of anchor_id, positive_id, dataset, anchor_text, positive_text."""
    rows = (
        (p.anchor_id, p.positive_id, p.dataset, escape_field(p.anchor_text), escape_field(p.positive_text))
        for p in pairs
    )
    return write_tsv(path, rows)


def read_pairs(path: str | Path) -> list[PairExample]:
    return [
        PairExample(
            anchor_text=unescape_field(anchor_text),
            positive_text=unescape_field(positive_text),
            dataset=dataset,
            anchor_id=anchor_id,
            positive_id=positive_id,
        )
        for _, (anchor_id, positive_id, dataset, anchor_text, positive_text) in read_tsv(path, 5, "pair")
    ]


def write_benchmark(bench: RankingBenchmark, path: str | Path) -> int:
    """Benchmark file: JSON-lines, one query object per line."""
    objs = (
        dict(query=q.query_text, positives=q.positives, negatives=q.negatives, ids=sorted(q.involved_ids))
        for q in bench.queries
    )
    return write_jsonl(path, objs)


def read_benchmark(path: str | Path, name: str | None = None) -> RankingBenchmark:
    """Load a benchmark file, validating the 5-positive / 25-negative shape per line."""
    queries = []
    for lineno, obj in read_jsonl(path, "benchmark"):
        where = f"{path}: benchmark line {lineno}"
        if not isinstance(obj.get("query"), str):
            raise DataError(f"{where}: missing query text")
        positives = obj.get("positives")
        negatives = obj.get("negatives")
        if not isinstance(positives, list) or len(positives) != POSITIVES_PER_QUERY:
            raise DataError(f"{where}: expected {POSITIVES_PER_QUERY} positives")
        if not isinstance(negatives, list) or len(negatives) != NEGATIVES_PER_QUERY:
            raise DataError(f"{where}: expected {NEGATIVES_PER_QUERY} negatives")
        if not all(isinstance(text, str) for text in positives + negatives):
            raise DataError(f"{where}: positives and negatives must be strings")
        ids = obj.get("ids", [])
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise DataError(f"{where}: ids must be a list of strings")
        queries.append(BenchmarkQuery(obj["query"], positives, negatives, involved_ids=set(ids)))
    return RankingBenchmark(name=name or Path(path).stem, queries=queries)

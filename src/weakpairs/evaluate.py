"""Ranking evaluation (nDCG over cosine-ranked candidates) and graded-pair Pearson.

Per ranking query the 30 candidates are sorted by descending cosine
similarity to the query embedding, ties broken by original candidate index
(positives listed before negatives).  nDCG uses the standard base-2 log
discount over the full candidate list.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import read_tsv, write_jsonl
from .corpus import NEGATIVES_PER_QUERY, POSITIVES_PER_QUERY, RankingBenchmark
from .encoder import EncoderModel, embed_text
from .errors import DataError, NumericError

_GRADED_WINDOW = 512  # graded pairs embedded per embed_text call; see CHANGES.md for the measurement
SCORE_RANGE = (0.0, 5.0)  # the range every graded score must lie in


@dataclass
class GradedPairDataset:
    """Sentence pairs with human-graded similarity scores in ``SCORE_RANGE``."""

    pairs: list[tuple[str, str, float]]
    name: str = "graded"


@dataclass
class EvalReport:
    benchmark: str
    metric: str
    value: float
    per_query: list[float] | None = None
    meta: dict = field(default_factory=dict)

    def write(self, path: str | Path) -> None:
        write_jsonl(path, [asdict(self)])


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cosine of u and v along the last axis, broadcast over the leading axes."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape[-1:] != v.shape[-1:]:
        raise ValueError(f"vector shapes differ: {u.shape} vs {v.shape}")
    norm_u = np.linalg.norm(u, axis=-1)
    norm_v = np.linalg.norm(v, axis=-1)
    if not (norm_u.all() and norm_v.all()):
        raise NumericError("cosine similarity undefined for zero vectors")
    return np.einsum("...d,...d->...", u, v) / (norm_u * norm_v)


def dcg(relevances: Sequence[float]) -> float:
    rel = np.asarray(relevances, dtype=np.float64)
    ranks = np.arange(1, rel.size + 1)
    return float(np.sum(rel / np.log2(ranks + 1)))


def ndcg(relevances_in_ranked_order: Sequence[float]) -> float:
    """Normalized discounted cumulative gain of one ranked relevance list."""
    rel = np.asarray(relevances_in_ranked_order, dtype=np.float64)
    if rel.size == 0:
        raise ValueError("empty relevance list")
    if np.any(rel < 0):
        raise ValueError("relevances must be non-negative")
    ideal_dcg = dcg(np.sort(rel)[::-1])
    if ideal_dcg == 0.0:
        raise NumericError("nDCG undefined: all relevances are zero")
    return dcg(rel) / ideal_dcg


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation; errors on constant input where it is undefined."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"need two equal-length 1-d sequences, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt(np.sum(dx * dx) * np.sum(dy * dy))
    if denom == 0.0:
        raise NumericError("Pearson correlation undefined for constant sequences")
    return float(np.sum(dx * dy) / denom)


def rank_candidates(similarities: Sequence[float]) -> list[int]:
    """Indices sorted by descending similarity; ties keep original index order."""
    sims = np.asarray(similarities, dtype=np.float64)
    return list(np.argsort(-sims, kind="stable"))


def eval_ranking(model: EncoderModel, bench: RankingBenchmark) -> EvalReport:
    """Mean nDCG over a benchmark: candidates ranked by cosine to the query embedding.

    The whole benchmark is embedded in one call, so a text shared by several
    queries is encoded once.
    """
    if not bench.queries:
        raise DataError(f"benchmark {bench.name} has no queries")
    vecs = embed_text(
        model, [text for query in bench.queries for text in (query.query_text, *query.positives, *query.negatives)]
    )
    per_query = []
    start = 0
    for qi, query in enumerate(bench.queries):
        end = start + 1 + len(query.positives) + len(query.negatives)
        try:
            sims = cosine_similarity(vecs[start], vecs[start + 1 : end])
        except NumericError as exc:
            raise DataError(f"benchmark {bench.name}, query {qi}: {exc}") from exc
        start = end
        order = rank_candidates(sims)
        relevances = [1.0 if idx < len(query.positives) else 0.0 for idx in order]
        per_query.append(ndcg(relevances))
    return EvalReport(
        benchmark=bench.name,
        metric="ndcg",
        value=float(np.mean(per_query)),
        per_query=per_query,
        meta={"queries": len(per_query)},
    )


def eval_graded(model: EncoderModel, data: GradedPairDataset) -> EvalReport:
    """Pearson's r between cosine similarities and the gold graded scores."""
    predicted = []
    for start in range(0, len(data.pairs), _GRADED_WINDOW):
        window = data.pairs[start : start + _GRADED_WINDOW]
        vecs = embed_text(model, [text1 for text1, _, _ in window] + [text2 for _, text2, _ in window])
        try:
            predicted.extend(cosine_similarity(vecs[: len(window)], vecs[len(window) :]))
        except NumericError as exc:
            zero_pair = np.flatnonzero(~np.linalg.norm(vecs, axis=-1).reshape(2, -1).all(axis=0))[0]
            raise DataError(f"graded pairs {data.name}, pair {start + zero_pair}: {exc}") from exc
    gold = [score for _, _, score in data.pairs]
    return EvalReport(
        benchmark=data.name,
        metric="pearson",
        value=pearson(predicted, gold),
        per_query=None,
        meta={"pairs": len(gold)},
    )


def permutation_ndcg_baseline(
    num_positives: int = POSITIVES_PER_QUERY, num_negatives: int = NEGATIVES_PER_QUERY
) -> float:
    """Exact mean nDCG of a uniformly random ranking of the benchmark shape.

    Each of the N = positives + negatives ranks holds a positive with
    probability positives / N, so the expected DCG is that fraction of the sum
    of all N discounts; the ideal DCG is the sum of the first ``positives``.
    """
    if num_positives < 1 or num_negatives < 0:
        raise ValueError(f"need >= 1 positive and >= 0 negatives, got {num_positives} and {num_negatives}")
    discounts = 1.0 / np.log2(np.arange(2, num_positives + num_negatives + 2))
    return float(num_positives / discounts.size * discounts.sum() / discounts[:num_positives].sum())


def load_graded_tsv(path: str | Path) -> GradedPairDataset:
    """Read a graded-pair file: plain TSV rows of text1, text2, score; the dataset is named by the file stem."""
    path = Path(path)
    lo, hi = SCORE_RANGE
    pairs = []
    for lineno, (text1, text2, raw_score) in read_tsv(path, 3, "graded"):
        try:
            score = float(raw_score)
        except ValueError as exc:
            raise DataError(f"{path}: graded line {lineno}: bad score {raw_score!r}") from exc
        if not lo <= score <= hi:
            raise DataError(
                f"{path}: graded line {lineno}: score {score} outside declared range [{lo}, {hi}]"
            )
        pairs.append((text1, text2, score))
    if len(pairs) < 2:
        raise DataError(f"{path}: need at least 2 graded pairs, got {len(pairs)}")
    if len({score for _, _, score in pairs}) < 2:
        raise DataError(f"{path}: gold scores are constant; Pearson is undefined")
    return GradedPairDataset(pairs=pairs, name=path.stem)

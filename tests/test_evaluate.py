"""Metric tests: nDCG vs an exhaustive oracle, Pearson vs the definition, ranking protocol."""

import itertools
import math
import random

import numpy as np
import pytest

from fdcheck import mean_pool_model, toy_vocab
from weakpairs import evaluate
from weakpairs.corpus import BenchmarkQuery, RankingBenchmark
from weakpairs.encoder import embed_text, init_model
from weakpairs.errors import DataError, NumericError
from weakpairs.evaluate import (
    EvalReport,
    GradedPairDataset,
    cosine_similarity,
    dcg,
    eval_graded,
    eval_ranking,
    load_graded_tsv,
    ndcg,
    pearson,
    permutation_ndcg_baseline,
    rank_candidates,
)


def oracle_dcg(relevances):
    """DCG straight from the definition."""
    return sum(rel / math.log2(k + 1) for k, rel in enumerate(relevances, start=1))


def oracle_ndcg(relevances):
    """Best DCG found by enumerating every ordering — brute force by definition."""
    best = max(oracle_dcg(p) for p in itertools.permutations(relevances))
    return oracle_dcg(relevances) / best


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([2.0, -1.0, 0.5])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_hand_value(self):
        assert cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
            1 / math.sqrt(2)
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(NumericError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            u, v = rng.standard_normal((2, 4))
            assert -1.0 - 1e-12 <= cosine_similarity(u, v) <= 1.0 + 1e-12


class TestNdcg:
    def test_perfect_ranking(self):
        assert ndcg([1, 1, 0, 0, 0]) == pytest.approx(1.0)

    def test_hand_computed_interleaved(self):
        # DCG = 1 + 1/log2(4); ideal = 1 + 1/log2(3)
        expected = (1 + 1 / math.log2(4)) / (1 + 1 / math.log2(3))
        assert ndcg([1, 0, 1, 0]) == pytest.approx(expected)
        assert ndcg([1, 0, 1, 0]) == pytest.approx(0.9197207, abs=1e-6)

    def test_interleaved_is_neither_max_nor_min(self):
        values = {perm: oracle_dcg(perm) for perm in set(itertools.permutations((1, 0, 1, 0)))}
        target = oracle_dcg((1, 0, 1, 0))
        assert min(values.values()) < target < max(values.values())

    def test_all_zero_rejected(self):
        with pytest.raises(NumericError):
            ndcg([0, 0, 0])

    def test_negative_relevance_rejected(self):
        with pytest.raises(ValueError):
            ndcg([1, -1])

    def test_matches_exhaustive_oracle_binary_lists(self):
        # every 0/1 relevance list of length <= 6 with at least one positive
        for length in range(1, 7):
            for bits in itertools.product((0, 1), repeat=length):
                if not any(bits):
                    continue
                assert ndcg(list(bits)) == pytest.approx(oracle_ndcg(bits), abs=1e-12)

    def test_matches_oracle_real_gains(self):
        rng = random.Random(9)
        for _ in range(60):
            length = rng.randrange(1, 7)
            rel = [round(rng.uniform(0, 3), 3) for _ in range(length)]
            if not any(rel):
                rel[0] = 1.0
            assert ndcg(rel) == pytest.approx(oracle_ndcg(tuple(rel)), abs=1e-12)

    def test_bounded_by_one_for_any_permutation(self):
        rel = [3, 2, 2, 1, 0, 0]
        for perm in itertools.permutations(rel):
            assert ndcg(list(perm)) <= 1.0 + 1e-12

    def test_at_k_cutoff(self):
        # at k=2 only the first two ranks count against the ideal top-2
        assert ndcg([0, 1, 1, 1], at_k=2) == pytest.approx(
            (1 / math.log2(3)) / (1 + 1 / math.log2(3))
        )


class TestPermutationBaseline:
    @pytest.mark.parametrize("positives, negatives", [(1, 0), (1, 4), (2, 3), (3, 5), (4, 10)])
    def test_matches_exhaustive_enumeration(self, positives, negatives):
        # mean nDCG over every placement of the positives among all ranks, each equally likely
        slots = positives + negatives
        ideal = oracle_dcg([1] * positives)
        values = [
            oracle_dcg([1 if rank in placed else 0 for rank in range(slots)]) / ideal
            for placed in itertools.combinations(range(slots), positives)
        ]
        expected = sum(values) / len(values)
        assert permutation_ndcg_baseline(positives, negatives) == pytest.approx(expected, abs=1e-12)

    def test_benchmark_shape_floor(self):
        assert permutation_ndcg_baseline() == pytest.approx(0.5178739511302707, abs=1e-12)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            permutation_ndcg_baseline(0, 25)


class TestPearson:
    def test_positive_affine(self):
        x = [1.0, 2.0, 5.0, 7.0]
        y = [2 * v + 3 for v in x]
        assert pearson(x, y) == pytest.approx(1.0)

    def test_negation(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_constant_rejected(self):
        with pytest.raises(NumericError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = rng.standard_normal((2, 8))
            assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            mean_x = sum(x) / n
            mean_y = sum(y) / n
            cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
            var_x = sum((a - mean_x) ** 2 for a in x)
            var_y = sum((b - mean_y) ** 2 for b in y)
            oracle = cov / math.sqrt(var_x * var_y)
            assert abs(pearson(x, y) - oracle) < 1e-12


def tiny_benchmark(queries):
    return RankingBenchmark(name="toy", queries=queries)


def make_query(query_text, positives, negatives):
    return BenchmarkQuery(
        query_text=query_text,
        positives=positives,
        negatives=negatives,
        involved_ids=set(),
    )


class TestEvalRanking:
    def vocab_model(self, **kwargs):
        return mean_pool_model(toy_vocab(30), dim=8, seed=1, **kwargs)

    def test_positives_identical_to_query_rank_first(self):
        model = self.vocab_model()
        # 5 positives embedding exactly like the query must fill the top ranks
        report = eval_ranking(model, tiny_benchmark([make_query(
            "tok001 tok002", ["tok001 tok002"] * 5, [f"tok0{10 + i // 5}" for i in range(25)]
        )]))
        assert report.value == pytest.approx(1.0)

    def test_adversarial_model_matches_worst_case_formula(self):
        model = self.vocab_model()
        # embed negatives as the query text itself; positives far away
        query = make_query(
            "tok001",
            positives=["tok002"] * 1 + [f"tok00{i}" for i in range(3, 7)],
            negatives=["tok001"] * 25,
        )
        model.params["embedding"][:] = 0.0
        rng = np.random.default_rng(0)
        model.params["embedding"][1:] = rng.uniform(-1, 1, size=model.params["embedding"][1:].shape)
        # force positives to embed opposite to the query
        q_vec = model.params["embedding"][model.vocab.token_to_id["tok001"]]
        for tok in ("tok002", "tok003", "tok004", "tok005", "tok006"):
            model.params["embedding"][model.vocab.token_to_id[tok]] = -q_vec + rng.uniform(
                -0.01, 0.01, size=q_vec.shape
            )
        report = eval_ranking(model, tiny_benchmark([query]))
        worst = ndcg([0.0] * 25 + [1.0] * 5)
        assert report.value == pytest.approx(worst)

    def test_ties_broken_by_candidate_index(self):
        sims = [0.5, 0.9, 0.5, 0.9]
        assert rank_candidates(sims) == [1, 3, 0, 2]

    def test_scaling_invariance_of_rankings(self):
        # multiplying every embedding by a positive scalar leaves rankings alone
        rng = np.random.default_rng(6)
        for _ in range(50):
            sims = rng.standard_normal(12)
            assert rank_candidates(list(sims)) == rank_candidates(list(sims * 7.3))

    def test_random_model_close_to_permutation_baseline(self):
        # a random encoder induces near-uniform random rankings on unrelated
        # token soup; over >= 1000 queries its mean nDCG must sit within 0.02
        # of the exact permutation baseline
        model = mean_pool_model(toy_vocab(1100), dim=8, seed=3)
        rng = random.Random(0)
        tokens = [f"tok{i:03d}" for i in range(1000)]
        queries = []
        for _ in range(1000):
            picks = rng.sample(tokens, 31)
            queries.append(make_query(picks[0], picks[1:6], picks[6:31]))
        report = eval_ranking(model, tiny_benchmark(queries))
        baseline = permutation_ndcg_baseline(5, 25)
        assert abs(report.value - baseline) < 0.02

    def test_error_names_query(self):
        model = self.vocab_model()
        model.params["embedding"][:] = 0.0  # all embeddings zero -> cosine fails
        bench = tiny_benchmark([make_query("tok001", ["tok002"] * 5, ["tok003"] * 25)])
        with pytest.raises(DataError, match="query 0"):
            eval_ranking(model, bench)

    def test_shared_candidates_score_as_per_query_embedding(self, monkeypatch):
        # candidates recur across queries, and the benchmark is embedded in one call; scores and
        # rankings must equal embedding each query's 31 texts on their own
        model = init_model(toy_vocab(30), dim=8, seed=5)
        rng = random.Random(8)
        texts = [" ".join(f"tok{rng.randrange(30):03d}" for _ in range(rng.randint(1, 9))) for _ in range(40)]
        queries = []
        for _ in range(12):
            picks = rng.choices(texts, k=31)
            queries.append(make_query(picks[0], picks[1:6], picks[6:]))
        bench = tiny_benchmark(queries)
        rankings = []

        def recording_rank_candidates(sims):
            rankings.append(rank_candidates(sims))
            return rankings[-1]

        monkeypatch.setattr(evaluate, "rank_candidates", recording_rank_candidates)
        report = eval_ranking(model, bench)
        for query, score, ranking in zip(bench.queries, report.per_query, rankings, strict=True):
            vecs = embed_text(model, [query.query_text, *query.positives, *query.negatives])
            reference = rank_candidates(cosine_similarity(vecs[0], vecs[1:]))
            assert ranking == reference
            assert abs(score - ndcg([1.0 if idx < 5 else 0.0 for idx in reference])) <= 1e-12

    def test_report_fields(self):
        model = self.vocab_model()
        bench = tiny_benchmark(
            [make_query("tok001 tok002", [f"tok00{i}" for i in range(3, 8)],
                        [f"tok0{10 + i}" for i in range(19)] + ["tok009"] * 6)]
        )
        report = eval_ranking(model, bench)
        assert report.metric == "ndcg"
        assert len(report.per_query) == 1
        assert 0.0 <= report.value <= 1.0


class TestEvalGraded:
    def test_perfect_agreement(self):
        model = mean_pool_model(toy_vocab(20), dim=6, seed=2)
        pairs = [
            ("tok001 tok002", "tok001 tok002", 5.0),
            ("tok003", "tok004", 1.0),
            ("tok005 tok006", "tok005 tok007", 3.0),
            ("tok008", "tok009", 2.0),
        ]
        data = GradedPairDataset(pairs=pairs)
        report = eval_graded(model, data)
        assert report.metric == "pearson"
        assert -1.0 <= report.value <= 1.0

    def test_constant_predictions_rejected(self):
        # a model that embeds every text identically produces constant
        # predictions, where Pearson is undefined
        model = mean_pool_model(toy_vocab(20), dim=6, seed=2)
        model.params["embedding"][1:] = np.ones(6)
        pairs = [("tok001", "tok002", 5.0), ("tok003", "tok004", 1.0)]
        with pytest.raises(NumericError):
            eval_graded(model, GradedPairDataset(pairs=pairs))

    def test_zero_norm_embedding_names_pair(self):
        # pair 530 sits in the second embedding window; its second text embeds to zero
        model = mean_pool_model(toy_vocab(20), dim=6, seed=2)
        model.params["embedding"][model.vocab.token_to_id["tok009"]] = 0.0
        pairs = [("tok001", "tok009" if i == 530 else f"tok00{i % 8}", float(i % 5)) for i in range(600)]
        with pytest.raises(DataError, match="graded pairs toy, pair 530: cosine similarity undefined"):
            eval_graded(model, GradedPairDataset(pairs=pairs, name="toy"))

    def test_hand_built_fixture_matches_hand_pearson(self):
        model = mean_pool_model(toy_vocab(10), dim=2)
        emb = model.params["embedding"]
        emb[2] = [1.0, 0.0]   # tok000
        emb[3] = [1.0, 0.0]   # tok001: cos = 1
        emb[4] = [0.0, 1.0]   # tok002: cos vs tok000 = 0
        emb[5] = [1.0, 1.0]   # tok003: cos vs tok000 = 1/sqrt(2)
        pairs = [
            ("tok000", "tok001", 5.0),
            ("tok000", "tok002", 0.0),
            ("tok000", "tok003", 3.0),
        ]
        report = eval_graded(model, GradedPairDataset(pairs=pairs))
        preds = [1.0, 0.0, 1 / math.sqrt(2)]
        gold = [5.0, 0.0, 3.0]
        assert report.value == pytest.approx(pearson(preds, gold))


class TestGradedFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "graded.tsv"
        path.write_text("first text\tsecond text\t4.5\nthird\tfourth\t0\n")
        data = load_graded_tsv(path)
        assert data.pairs == [("first text", "second text", 4.5), ("third", "fourth", 0.0)]

    def test_out_of_range_score(self, tmp_path):
        path = tmp_path / "graded.tsv"
        path.write_text("a\tb\t9.5\nc\td\t1\n")
        with pytest.raises(DataError, match="line 1"):
            load_graded_tsv(path)

    def test_constant_gold_rejected(self, tmp_path):
        path = tmp_path / "graded.tsv"
        path.write_text("a\tb\t2\nc\td\t2\n")
        with pytest.raises(DataError, match="constant"):
            load_graded_tsv(path)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "graded.tsv"
        path.write_text("only two\tcolumns\n")
        with pytest.raises(DataError, match="line 1"):
            load_graded_tsv(path)


class TestReportSerialization:
    def test_json_report_fields(self, tmp_path):
        report = EvalReport(benchmark="dq", metric="ndcg", value=0.5, per_query=[0.5], meta={"x": 1})
        path = tmp_path / "report.json"
        report.write(path)
        import json

        obj = json.loads(path.read_text())
        assert set(obj) == {"benchmark", "metric", "value", "per_query", "meta"}

    def test_report_is_one_utf8_json_line_of_its_fields(self, tmp_path):
        # non-ASCII is kept as UTF-8, and a NaN or inf score is written as JSON's NaN/Infinity, not refused
        import json
        from dataclasses import asdict

        report = EvalReport(benchmark="dq", metric="pearson", value=math.nan, per_query=[0.25, math.inf],
                            meta={"checkpoint": "modèle/日本.ckpt"})
        path = tmp_path / "report.json"
        report.write(path)
        assert path.read_bytes() == (json.dumps(asdict(report), ensure_ascii=False) + "\n").encode("utf-8")
        assert path.read_bytes().count(b"\n") == 1

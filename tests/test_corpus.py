"""Pair corpus and benchmark construction tests."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakpairs.corpus as corpus_mod
from conftest import make_edge
from weakpairs.cli import main
from weakpairs.corpus import (
    MIN_CHARS,
    NEGATIVES_PER_QUERY,
    PairExample,
    build_benchmark,
    build_co_pairs,
    build_pairs,
    exclude_ids,
    index_responses,
    read_benchmark,
    read_pairs,
    sample_corpus,
    write_benchmark,
    write_pairs,
)
from weakpairs.errors import DataError
from weakpairs.ingest import (
    QUOTE,
    REPLY,
    RelationEdge,
    extract_relations,
    index_records,
    join_reply_targets,
    read_records,
)


def quote_edges_for_targets(multiplicities: dict[str, int], words=None):
    """kind=quote edges where target t gets multiplicities[t] distinct responses."""
    edges = []
    for target, count in multiplicities.items():
        for i in range(count):
            edges.append(make_edge(QUOTE, target, f"{target}resp{i}", response_words=words))
    return edges


@pytest.fixture
def clean_calls(monkeypatch):
    """Counts the texts passed to ``corpus.clean``, the name ``index_responses`` calls."""
    calls = Counter()
    real_clean = corpus_mod.clean

    def counting_clean(text):
        calls[text] += 1
        return real_clean(text)

    monkeypatch.setattr(corpus_mod, "clean", counting_clean)
    return calls


class TestCleanEdges:
    def test_texts_cleaned_and_short_ones_handled(self):
        edges = [
            RelationEdge(QUOTE, "t1", "r1", "Quoted TEXT  https://t.co/x long enough",
                         "A Response @someone of length"),
            RelationEdge(QUOTE, "t2", "r2", "@who tiny", "another response long enough"),
            RelationEdge(REPLY, "t3", "r3", "a target text long enough here", "@so short https://x.y"),
            RelationEdge(REPLY, "t4", "r4", None, "reply with no target text yet"),
        ]
        index, dropped = index_responses(edges)
        assert dropped == 1
        assert index == {
            QUOTE: [("t1", "quoted text long enough", [("r1", "a response of length")]),
                    ("t2", None, [("r2", "another response long enough")])],
            REPLY: [("t4", None, [("r4", "reply with no target text yet")])],
        }
        assert all(len(text) >= MIN_CHARS
                   for targets in index.values() for _, _, responses in targets for _, text in responses)

    def test_each_distinct_text_cleaned_once(self, clean_calls):
        edges = [make_edge(QUOTE, "t1", f"r{i}") for i in range(4)]
        shared = ("the same reply text each time",)
        edges += [make_edge(REPLY, "t2", f"s{i}", response_words=shared) for i in range(3)]
        edges += [make_edge(QUOTE, "t3", "r9", target_words=shared)]
        index_responses(edges)
        distinct = {e.target_text for e in edges} | {e.response_text for e in edges}
        assert clean_calls == Counter({text: 1 for text in distinct})

    def test_full_build_cleans_each_distinct_text_once(self, tmp_cwd, clean_calls):
        assert main(["--seed", "11", "synth", "--topics", "10", "--pairs-per-topic", "32",
                     "--vocab-size", "260", "--noise", "0.2", "--responses-per-target", "8",
                     "--out", "store.jsonl"]) == 0
        assert main(["--seed", "11", "ingest", "--inputs", "store.jsonl", "--out", "records.jsonl"]) == 0
        assert main(["--seed", "11", "build", "--records", "records.jsonl", "--dataset", "all",
                     "--bench-queries", "2", "--out-dir", "built"]) == 0
        records = read_records("records.jsonl")
        edges, _ = join_reply_targets(extract_relations(records), index_records(records))
        distinct = {e.response_text for e in edges} | {e.target_text for e in edges if e.target_text}
        assert clean_calls == Counter({text: 1 for text in distinct})


class TestBuildPairs:
    def test_one_pair_per_target(self):
        edges = quote_edges_for_targets({"t1": 3})
        pairs = build_pairs(index_responses(edges)[0], "qt", seed=0)
        assert len(pairs) == 1
        assert pairs[0].anchor_id == "t1"
        assert pairs[0].dataset == "qt"

    def test_anchor_is_target_positive_is_response(self):
        edge = make_edge(QUOTE, "tgt", "rsp",
                         target_words=("quoted", "granite", "lantern", "words"),
                         response_words=("quoting", "copper", "stream", "words"))
        pair = build_pairs(index_responses([edge])[0], "qt", seed=0)[0]
        assert pair.anchor_text == "quoted granite lantern words"
        assert pair.positive_text == "quoting copper stream words"

    def test_short_cleaned_target_filters_whole_target(self):
        edge = make_edge(QUOTE, "t1", "r1", target_words=("tiny",))
        assert build_pairs(index_responses([edge])[0], "qt", seed=0) == []

    def test_short_cleaned_response_drops_that_edge_only(self):
        edges = [
            make_edge(QUOTE, "t1", "r1", response_words=("ok",)),
            make_edge(QUOTE, "t1", "r2"),
        ]
        pairs = build_pairs(index_responses(edges)[0], "qt", seed=0)
        assert len(pairs) == 1
        assert pairs[0].positive_id == "r2"

    def test_cleaning_applied_before_length_check(self):
        # raw text is long but cleans down to under 20 chars
        edge = make_edge(
            QUOTE, "t1", "r1",
            target_words=("@mentionLongName", "https://t.co/abcdef", "hi"),
        )
        assert build_pairs(index_responses([edge])[0], "qt", seed=0) == []

    def test_hundred_edges_forty_targets(self):
        rng = random.Random(5)
        multiplicities = {f"t{i:02d}": 1 for i in range(40)}
        extra = rng.choices(list(multiplicities), k=60)
        for t in extra:
            multiplicities[t] += 1
        assert sum(multiplicities.values()) == 100
        edges = quote_edges_for_targets(multiplicities)
        pairs = build_pairs(index_responses(edges)[0], "qt", seed=1)
        assert len(pairs) == 40

    def test_kind_selects_relation(self):
        edges = [make_edge(QUOTE, "a", "b"), make_edge(REPLY, "c", "d")]
        index = index_responses(edges)[0]
        assert [p.dataset for p in build_pairs(index, "rp", seed=0)] == ["rp"]
        assert build_pairs(index, "rp", seed=0)[0].anchor_id == "c"

    def test_deterministic_under_seed(self):
        edges = quote_edges_for_targets({"t1": 5, "t2": 4, "t3": 3})
        index = index_responses(edges)[0]
        assert build_pairs(index, "qt", seed=9) == build_pairs(index, "qt", seed=9)

    def test_seed_changes_choice(self):
        edges = quote_edges_for_targets({"t1": 30})
        index = index_responses(edges)[0]
        chosen = {build_pairs(index, "qt", seed=s)[0].positive_id for s in range(8)}
        assert len(chosen) > 1

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            build_pairs(index_responses([])[0], "coqt", seed=0)


class TestBuildCoPairs:
    def test_single_response_target_yields_nothing(self):
        edges = quote_edges_for_targets({"t1": 1})
        assert build_co_pairs(index_responses(edges)[0], "coqt", seed=0) == []

    def test_five_responses_yield_exactly_one_pair(self):
        edges = quote_edges_for_targets({"t1": 5})
        pairs = build_co_pairs(index_responses(edges)[0], "coqt", seed=0)
        assert len(pairs) == 1
        assert pairs[0].anchor_id != pairs[0].positive_id

    def test_multiplicities_1_2_4_give_two_pairs(self):
        edges = quote_edges_for_targets({"a": 1, "b": 2, "c": 4})
        pairs = build_co_pairs(index_responses(edges)[0], "coqt", seed=0)
        assert len(pairs) == 2

    def test_pair_sides_are_responses_of_same_target(self):
        edges = quote_edges_for_targets({"t1": 4, "t2": 4})
        for pair in build_co_pairs(index_responses(edges)[0], "coqt", seed=3):
            prefix = pair.anchor_id[:2]
            assert pair.positive_id.startswith(prefix)

    def test_reply_kind(self):
        edges = [make_edge(REPLY, "t", f"r{i}") for i in range(3)]
        pairs = build_co_pairs(index_responses(edges)[0], "corp", seed=0)
        assert len(pairs) == 1
        assert pairs[0].dataset == "corp"

    def test_only_response_text_needed(self):
        edges = [
            make_edge(QUOTE, "t", "r1"),
            make_edge(QUOTE, "t", "r2"),
        ]
        for e in edges:
            e.target_text = None  # co pairs must not require the target text
        assert len(build_co_pairs(index_responses(edges)[0], "coqt", seed=0)) == 1


class TestSampleCorpus:
    def pairs(self, n):
        return [
            PairExample(f"anchor text number {i} granite", f"positive text number {i} copper",
                        "qt", f"a{i}", f"p{i}")
            for i in range(n)
        ]

    def test_full_sample_is_permutation(self):
        pairs = self.pairs(10)
        out = sample_corpus(pairs, 10, seed=1)
        assert len(out) == 10
        assert sorted(p.anchor_id for p in out) == sorted(p.anchor_id for p in pairs)

    def test_zero_sample_empty(self):
        assert sample_corpus(self.pairs(5), 0, seed=1) == []

    def test_deterministic(self):
        pairs = self.pairs(50)
        assert sample_corpus(pairs, 20, seed=7) == sample_corpus(pairs, 20, seed=7)

    def test_oversample_names_both_counts(self):
        with pytest.raises(DataError, match=r"12.*5|5.*12"):
            sample_corpus(self.pairs(5), 12, seed=0)


class TestExcludeIds:
    def test_empty_ban_is_identity(self):
        pairs = TestSampleCorpus().pairs(4)
        assert exclude_ids(pairs, set()) == pairs

    def test_all_banned_empty(self):
        pairs = TestSampleCorpus().pairs(4)
        banned = {p.anchor_id for p in pairs}
        assert exclude_ids(pairs, banned) == []

    def test_three_of_ten_touch_banned(self):
        pairs = TestSampleCorpus().pairs(10)
        banned = {"a0", "p3", "a7"}
        assert len(exclude_ids(pairs, banned)) == 7


def benchmark_fixture_edges(num_targets=20, responses_each=8, kind=QUOTE):
    edges = []
    for t in range(num_targets):
        for r in range(responses_each):
            edges.append(
                make_edge(
                    kind,
                    f"t{t:02d}",
                    f"t{t:02d}r{r}",
                    target_words=(f"query", "text", "for", "target", f"number{t:02d}"),
                    response_words=(f"response", "words", f"target{t:02d}", f"reply{r}", "content"),
                )
            )
    return edges


class TestBuildBenchmark:
    def test_shape_five_positives_twentyfive_negatives(self):
        bench = build_benchmark(index_responses(benchmark_fixture_edges())[0], "dq", num_queries=3, seed=0)
        assert len(bench.queries) == 3
        for query in bench.queries:
            assert len(query.positives) == 5
            assert len(query.negatives) == 25

    def test_positives_come_from_own_target_negatives_do_not(self):
        bench = build_benchmark(index_responses(benchmark_fixture_edges())[0], "dq", num_queries=2, seed=1)
        for query in bench.queries:
            target_tag = query.query_text.split()[-1].replace("number", "target")
            for text in query.positives:
                assert target_tag in text
            for text in query.negatives:
                assert target_tag not in text

    def test_no_candidate_text_repeats_within_query(self):
        bench = build_benchmark(index_responses(benchmark_fixture_edges())[0], "dq", num_queries=4, seed=2)
        for query in bench.queries:
            candidates = query.positives + query.negatives
            assert len(set(candidates)) == len(candidates)
            assert query.query_text not in query.negatives

    def test_target_with_exactly_five_responses_is_usable(self):
        edges = benchmark_fixture_edges(num_targets=1, responses_each=5)
        edges += benchmark_fixture_edges(num_targets=10, responses_each=4)
        # only t00 of the first group has >= 5 responses; negatives come from the rest
        bench = build_benchmark(index_responses(edges[:5] + edges[5:])[0], "dq", num_queries=1, seed=0)
        [query] = bench.queries
        assert sorted(query.positives) == sorted(
            f"response words target00 reply{r} content" for r in range(5)
        )

    def test_co_benchmark_query_is_a_response(self):
        bench = build_benchmark(index_responses(benchmark_fixture_edges())[0], "cq", num_queries=3, seed=0)
        for query in bench.queries:
            assert query.query_text.startswith("response words")
            assert len(query.positives) == 5

    def test_co_needs_six_responses(self):
        edges = benchmark_fixture_edges(num_targets=12, responses_each=5)
        with pytest.raises(DataError, match="0 eligible"):
            build_benchmark(index_responses(edges)[0], "cq", num_queries=1, seed=0)

    def test_insufficient_queries_error_names_counts(self):
        with pytest.raises(DataError, match="need 50 queries but only 20"):
            build_benchmark(index_responses(benchmark_fixture_edges())[0], "dq", num_queries=50, seed=0)

    def test_involved_ids_cover_query_and_candidates(self):
        bench = build_benchmark(index_responses(benchmark_fixture_edges())[0], "dq", num_queries=2, seed=3)
        for query in bench.queries:
            assert len(query.involved_ids) == 31  # target + 5 positives + 25 negatives

    def test_banned_ids_never_appear(self):
        index = index_responses(benchmark_fixture_edges())[0]
        first = build_benchmark(index, "dq", num_queries=2, seed=0)
        second = build_benchmark(index, "dq", num_queries=2, seed=0, banned=first.involved_ids())
        assert not (first.involved_ids() & second.involved_ids())

    def test_training_exclusion_gives_empty_intersection(self):
        index = index_responses(benchmark_fixture_edges())[0]
        bench = build_benchmark(index, "dq", num_queries=3, seed=0)
        pairs = build_pairs(index, "qt", seed=1)
        surviving = exclude_ids(pairs, bench.involved_ids())
        training_ids = {p.anchor_id for p in surviving} | {p.positive_id for p in surviving}
        assert not (training_ids & bench.involved_ids())

    def test_deterministic(self):
        index = index_responses(benchmark_fixture_edges())[0]
        b1 = build_benchmark(index, "dq", num_queries=3, seed=5)
        b2 = build_benchmark(index, "dq", num_queries=3, seed=5)
        assert [q.query_text for q in b1.queries] == [q.query_text for q in b2.queries]
        assert [q.negatives for q in b1.queries] == [q.negatives for q in b2.queries]


class TestNegativeDraw:
    def test_pool_with_exactly_25_acceptable_negatives_yields_all(self):
        edges = benchmark_fixture_edges(num_targets=6, responses_each=5)
        bench = build_benchmark(index_responses(edges)[0], "dq", num_queries=6, seed=4)
        for query in bench.queries:
            target_tag = query.query_text.split()[-1].replace("number", "target")
            others = {e.response_text for e in edges if target_tag not in e.response_text}
            assert len(others) == NEGATIVES_PER_QUERY
            assert set(query.negatives) == others

    def test_pool_with_24_acceptable_negatives_raises(self):
        # t00 has 5 responses and is the only eligible target; t01..t06 hold 24
        edges = benchmark_fixture_edges(num_targets=1, responses_each=5)
        edges += benchmark_fixture_edges(num_targets=7, responses_each=4)
        with pytest.raises(DataError, match="found only 24 of 25 negatives"):
            build_benchmark(index_responses(edges)[0], "dq", num_queries=1, seed=0)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_negatives_are_valid_under_random_pools(self, data):
        phrases = [f"candidate phrase number {k:03d}" for k in range(100)]
        kind = data.draw(st.sampled_from([QUOTE, REPLY]))
        edges = []
        for t in range(data.draw(st.integers(2, 12))):
            target_text = data.draw(st.sampled_from(phrases))
            for r in range(data.draw(st.integers(1, 10))):
                response_text = data.draw(st.sampled_from(phrases))
                edges.append(RelationEdge(kind, f"T{t}", f"T{t}R{r}", target_text, response_text))
        all_ids = sorted({e.target_id for e in edges} | {e.response_id for e in edges})
        banned = data.draw(st.sets(st.sampled_from(all_ids), max_size=6))
        name = data.draw(st.sampled_from(["dq", "cq"] if kind == QUOTE else ["dr", "cr"]))
        num_queries = data.draw(st.integers(1, 3))
        seed = data.draw(st.integers(0, 2**32))
        index = index_responses(edges)[0]
        try:
            bench = build_benchmark(index, name, num_queries=num_queries, seed=seed, banned=banned)
        except DataError:
            return
        target_of = {e.response_id: e.target_id for e in edges}
        text_of = {e.response_id: e.response_text for e in edges}
        co_style = name in ("cq", "cr")
        for query in bench.queries:
            ids = query.involved_ids
            assert not ids & banned
            assert len(set(query.negatives)) == NEGATIVES_PER_QUERY
            assert not set(query.negatives) & (set(query.positives) | {query.query_text})
            if co_style:
                [query_id] = [i for i in ids if text_of[i] == query.query_text]
                target = target_of[query_id]
            else:
                [target] = [i for i in ids if i not in target_of]
            own = {i for i in ids if target_of.get(i) == target}
            others = ids - own - {target}
            assert len(own) == len(query.positives) + co_style  # no negative from the query's target
            assert len(ids) == 1 + len(query.positives) + NEGATIVES_PER_QUERY
            assert {text_of[i] for i in others} == set(query.negatives)
        again = build_benchmark(index, name, num_queries=num_queries, seed=seed, banned=banned)
        assert again == bench


class TestCorpusProperties:
    def test_one_per_target_randomized(self):
        rng = random.Random(17)
        for trial in range(20):
            multiplicities = {f"t{i}": rng.randrange(1, 6) for i in range(rng.randrange(2, 30))}
            edges = quote_edges_for_targets(multiplicities)
            index = index_responses(edges)[0]
            for kind, builder in (("qt", build_pairs), ("coqt", build_co_pairs)):
                pairs = builder(index, kind, seed=trial)
                if kind == "qt":
                    targets = [p.anchor_id for p in pairs]
                else:
                    targets = [p.anchor_id.split("resp")[0] for p in pairs]
                counts = Counter(targets)
                assert all(v == 1 for v in counts.values())


# --- the three edge groupings the builders used before sharing one response index ---


def reference_build_pairs(edges, kind, seed):
    """Per-edge candidates of targets with a text; each edge keeps its own target text."""
    relation = {"qt": QUOTE, "rp": REPLY}[kind]
    by_target = {}
    for edge in edges:
        if edge.kind == relation and edge.target_text is not None:
            by_target.setdefault(edge.target_id, []).append(
                (edge.response_id, edge.target_text, edge.response_text)
            )
    rng = random.Random(seed)
    pairs = []
    for target_id in sorted(by_target):
        candidates = sorted(by_target[target_id])
        response_id, anchor, positive = candidates[rng.randrange(len(candidates))]
        pairs.append(PairExample(anchor, positive, kind, target_id, response_id))
    return pairs


def reference_build_co_pairs(edges, kind, seed):
    """Per-target response id -> text dicts; targets with two responses give one pair."""
    relation = {"coqt": QUOTE, "corp": REPLY}[kind]
    by_target = {}
    for edge in edges:
        if edge.kind == relation:
            by_target.setdefault(edge.target_id, {}).setdefault(edge.response_id, edge.response_text)
    rng = random.Random(seed)
    pairs = []
    for target_id in sorted(by_target):
        responses = sorted(by_target[target_id].items())
        if len(responses) >= 2:
            (a_id, a_text), (p_id, p_text) = rng.sample(responses, 2)
            pairs.append(PairExample(a_text, p_text, kind, a_id, p_id))
    return pairs


def reference_build_benchmark(edges, name, num_queries, seed, banned=frozenset()):
    """Response pools without banned ids or repeated texts; target texts from non-banned edges only."""
    relation = {"dq": QUOTE, "dr": REPLY, "cq": QUOTE, "cr": REPLY}[name]
    co_style = name in ("cq", "cr")
    need = corpus_mod.POSITIVES_PER_QUERY + co_style
    raw, target_texts = {}, {}
    for edge in edges:
        if edge.kind != relation or edge.response_id in banned:
            continue
        raw.setdefault(edge.target_id, {}).setdefault(edge.response_id, edge.response_text)
        if edge.target_id not in target_texts and edge.target_text is not None:
            target_texts[edge.target_id] = edge.target_text
    pools = {}
    for target_id, responses in raw.items():
        seen = set()
        pools[target_id] = []
        for response_id, text in sorted(responses.items()):
            if text not in seen:
                seen.add(text)
                pools[target_id].append((response_id, text))
    eligible = [
        t for t in sorted(pools)
        if len(pools[t]) >= need and (co_style or (t not in banned and t in target_texts))
    ]
    if len(eligible) < num_queries:
        raise DataError(f"benchmark {name}: only {len(eligible)} eligible targets")
    rng = random.Random(seed)
    chosen = rng.sample(eligible, num_queries)
    all_candidates = [(t, rid, text) for t in sorted(pools) for rid, text in pools[t]]
    queries = []
    for target_id in chosen:
        if co_style:
            picks = rng.sample(pools[target_id], need)
            (query_id, query_text), positives = picks[0], picks[1:]
        else:
            query_id, query_text = target_id, target_texts[target_id]
            positives = rng.sample(pools[target_id], corpus_mod.POSITIVES_PER_QUERY)
        used = {text for _, text in positives} | {query_text}
        negatives = []
        for index in corpus_mod._untried_indices(rng, len(all_candidates)):
            cand_target, cand_id, cand_text = all_candidates[index]
            if cand_target != target_id and cand_text not in used:
                negatives.append((cand_id, cand_text))
                used.add(cand_text)
                if len(negatives) == NEGATIVES_PER_QUERY:
                    break
        if len(negatives) < NEGATIVES_PER_QUERY:
            raise DataError(f"benchmark {name}: too few negatives")
        queries.append(corpus_mod.BenchmarkQuery(
            query_text,
            [text for _, text in positives],
            [text for _, text in negatives],
            {query_id} | {rid for rid, _ in positives + negatives},
        ))
    return corpus_mod.RankingBenchmark(name, queries)


class TestOneGroupingPerRelation:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_builders_equal_reference_when_targets_agree_on_their_text(self, data):
        phrases = [f"shared candidate phrase {k:03d}" for k in range(150)]
        edges = []
        for t in range(data.draw(st.integers(1, 24))):
            kind = data.draw(st.sampled_from([QUOTE, REPLY]))
            target_text = data.draw(st.none() | st.sampled_from(phrases))  # one text per target
            for r in range(data.draw(st.integers(1, 10))):
                response_text = data.draw(st.sampled_from(phrases))
                edges.append(RelationEdge(kind, f"T{t}", f"T{t}R{r}", target_text, response_text))
        edges = data.draw(st.permutations(edges))
        seed = data.draw(st.integers(0, 2**32))
        index = index_responses(edges)[0]
        for kind in ("qt", "rp"):
            assert build_pairs(index, kind, seed) == reference_build_pairs(edges, kind, seed)
        for kind in ("coqt", "corp"):
            assert build_co_pairs(index, kind, seed) == reference_build_co_pairs(edges, kind, seed)
        all_ids = sorted({e.target_id for e in edges} | {e.response_id for e in edges})
        banned = data.draw(st.sets(st.sampled_from(all_ids), max_size=8))
        num_queries = data.draw(st.integers(1, 2))
        for name in corpus_mod.BENCHMARK_NAMES:
            try:
                expected = reference_build_benchmark(edges, name, num_queries, seed, banned)
            except DataError:
                with pytest.raises(DataError):
                    build_benchmark(index, name, num_queries, seed, banned)
                continue
            assert build_benchmark(index, name, num_queries, seed, banned) == expected

    def test_target_text_is_the_first_one_in_edge_order(self):
        first = "first quoted text of target"
        edges = [RelationEdge(QUOTE, "t1", "r1", None, "a response with no quoted text")]
        edges += [RelationEdge(QUOTE, "t1", f"r{i}", text, f"response number {i} to the target")
                  for i, text in ((2, first), (3, "a later quoted text that differs"))]
        index = index_responses(edges)[0]
        pairs = [build_pairs(index, "qt", seed=seed)[0] for seed in range(40)]
        assert {p.anchor_text for p in pairs} == {first}
        assert {p.positive_id for p in pairs} == {"r1", "r2", "r3"}

    def test_query_text_comes_from_banned_edges_too(self):
        first = "query text seen on a banned edge"
        edges = [RelationEdge(QUOTE, "t00", "t00r0", None, "response words target00 reply0 content")]
        edges.append(RelationEdge(QUOTE, "t00", "t00r1", first, "response words target00 reply1 content"))
        edges += [RelationEdge(QUOTE, "t00", f"t00r{r}", "a later query text that differs",
                               f"response words target00 reply{r} content") for r in range(2, 8)]
        edges += benchmark_fixture_edges(num_targets=8, responses_each=4)[4:]  # t01..t07: negatives only
        bench = build_benchmark(index_responses(edges)[0], "dq", num_queries=1, seed=0, banned={"t00r1"})
        assert [q.query_text for q in bench.queries] == [first]

    def test_response_id_counts_once_per_target(self):
        edges = [make_edge(QUOTE, "t1", "r1")] * 30 + [make_edge(QUOTE, "t1", "r2")]
        index = index_responses(edges)[0]
        chosen = Counter(build_pairs(index, "qt", seed=seed)[0].positive_id for seed in range(200))
        assert 60 < chosen["r2"] < 140


class TestPairAndBenchmarkFiles:
    def test_pair_tsv_roundtrip(self, tmp_path):
        pairs = [
            PairExample("text with\ttab inside here", "and a\nnewline positive", "qt", "a1", "p1"),
            PairExample("plain anchor text here", "plain positive text here", "rp", "a2", "p2"),
        ]
        path = tmp_path / "pairs.tsv"
        assert write_pairs(pairs, path) == 2
        assert read_pairs(path) == pairs

    def test_pair_tsv_bad_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\tc\n")
        with pytest.raises(DataError, match="line 1"):
            read_pairs(path)

    def test_benchmark_jsonl_roundtrip(self, tmp_path):
        bench = build_benchmark(index_responses(benchmark_fixture_edges())[0], "dq", num_queries=2, seed=0)
        path = tmp_path / "dq.jsonl"
        write_benchmark(bench, path)
        loaded = read_benchmark(path, name="dq")
        assert loaded.name == "dq"
        assert [q.query_text for q in loaded.queries] == [q.query_text for q in bench.queries]
        assert loaded.involved_ids() == bench.involved_ids()

    def test_benchmark_shape_validation_names_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        good = {"query": "q", "positives": ["p"] * 5, "negatives": ["n"] * 25, "ids": []}
        bad = {"query": "q", "positives": ["p"] * 4, "negatives": ["n"] * 25, "ids": []}
        import json

        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataError, match="line 2"):
            read_benchmark(path)

    @pytest.mark.parametrize(
        "change",
        [
            {"positives": [1, 2, 3, 4, 5]},
            {"negatives": [None] * 25},
            {"ids": 5},
            {"ids": [[1]]},
        ],
        ids=["int-positives", "null-negatives", "int-ids", "nested-ids"],
    )
    def test_benchmark_non_string_texts_and_ids_rejected(self, tmp_path, change):
        path = tmp_path / "typed.jsonl"
        good = {"query": "q", "positives": ["p"] * 5, "negatives": ["n"] * 25, "ids": ["1"]}
        import json

        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **change}) + "\n")
        with pytest.raises(DataError, match=r"typed\.jsonl: benchmark line 2"):
            read_benchmark(path)

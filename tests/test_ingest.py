"""Stream parsing, relation extraction and on-disk format tests."""

import bz2
import gzip
import json
import random

import pytest

from weakpairs.errors import DataError
from weakpairs.ingest import (
    QUOTE,
    REPLY,
    RelationEdge,
    TweetRecord,
    extract_relations,
    index_records,
    join_reply_targets,
    merge_runs,
    parse_stream_file,
    read_records,
    write_records,
)


def tweet_obj(tweet_id, text="some tweet text", lang="en", reply_to=None, quoted=None):
    obj = {"id_str": str(tweet_id), "text": text, "lang": lang}
    if reply_to is not None:
        obj["in_reply_to_status_id_str"] = str(reply_to)
    if quoted is not None:
        quoted_id, quoted_text = quoted
        obj["quoted_status"] = {"id_str": str(quoted_id), "text": quoted_text}
    return obj


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as handle:
        for obj in objs:
            handle.write((obj if isinstance(obj, str) else json.dumps(obj)) + "\n")


class TestParseStreamFile:
    def test_passthrough_english_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [tweet_obj(1, text="hello there", lang="en")])
        records, stats = parse_stream_file(path, "en")
        assert len(records) == 1
        assert records[0] == TweetRecord(id="1", text="hello there")
        assert stats.parsed == 1

    @pytest.mark.parametrize(
        "line, lang_filter, kept",
        [
            ('{"id_str":"1","text":"hola","lang":"es"}', "en", False),
            ('{"id_str":"1","text":"no language"}', "", True),
            ('{"id_str":"1","text":"no language","lang":null}', "", True),
            ('{"id_str":"1","text":"no language"}', "en", False),
            ('{"id_str":"1","text":"no language","lang":null}', "en", False),
            ('{"id_str":"1","text":"a lone surrogate","lang":"\\ud83d"}', "en", False),
        ],
        ids=["other-language", "absent-no-filter", "null-no-filter", "absent", "null", "lone-surrogate"],
    )
    def test_language_filter(self, tmp_path, line, lang_filter, kept):
        # the language is read to filter on, never stored, so a lone surrogate there is no record text
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [line])
        records, stats = parse_stream_file(path, lang_filter)
        assert [r.id for r in records] == (["1"] if kept else [])
        assert (stats.parsed, stats.filtered_lang, stats.malformed) == ((1, 0, 0) if kept else (0, 1, 0))

    def test_mixed_file_counts(self, tmp_path):
        # 10 lines: 8 valid english, 2 malformed
        objs = [tweet_obj(i) for i in range(8)]
        lines = [json.dumps(o) for o in objs[:4]] + ["{bad json", "[1,2,3"] + [
            json.dumps(o) for o in objs[4:]
        ]
        path = tmp_path / "mixed.jsonl"
        write_jsonl(path, lines)
        records, stats = parse_stream_file(path, "en")
        assert len(records) == 8
        assert stats.malformed == 2
        assert stats.lines == 10

    def test_deletion_notice_skipped(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"delete": {"status": {"id_str": "5"}}}, tweet_obj(6)])
        records, stats = parse_stream_file(path, "en")
        assert [r.id for r in records] == ["6"]
        assert stats.no_text == 1

    def test_full_text_fallback(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"id_str": "9", "full_text": "the long form", "lang": "en"}])
        records, _ = parse_stream_file(path, "en")
        assert records[0].text == "the long form"

    def test_missing_id_is_malformed(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"text": "no id here", "lang": "en"}])
        records, stats = parse_stream_file(path, "en")
        assert records == []
        assert stats.malformed == 1

    def test_lone_surrogate_escape_in_record_text_is_malformed(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [
            '{"id_str":"9","text":"hi there friend \\ud83d","lang":"en"}',
            '{"id_str":"10","text":"a pair \\ud83d\\ude00 is fine","lang":"en"}',
            '{"id_str":"11","text":"only an unused field","lang":"en","user":{"name":"\\udc00"}}',
        ])
        records, stats = parse_stream_file(path, "en")
        assert [r.id for r in records] == ["10", "11"]
        assert records[0].text == "a pair \U0001f600 is fine"
        assert stats.malformed == 1 and stats.lines == 3

    def test_quote_and_reply_fields_parsed(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [tweet_obj(3, reply_to=1, quoted=(2, "original words"))])
        records, _ = parse_stream_file(path, "en")
        record = records[0]
        assert record.reply_to == "1"
        assert record.quoted_id == "2"
        assert record.quoted_text == "original words"

    @pytest.mark.parametrize("opener,suffix", [(gzip.open, ".gz"), (bz2.open, ".bz2")])
    def test_compressed_inputs(self, tmp_path, opener, suffix):
        path = tmp_path / f"a.jsonl{suffix}"
        with opener(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(tweet_obj(1)) + "\n")
        records, _ = parse_stream_file(path, "en")
        assert len(records) == 1

    def test_unreadable_file_raises_with_path(self, tmp_path):
        with pytest.raises(OSError, match="nope.jsonl"):
            parse_stream_file(tmp_path / "nope.jsonl", "en")

    def test_order_independent_record_set(self, tmp_path):
        objs = [tweet_obj(i, text=f"text number {i}") for i in range(20)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, objs)
        shuffled = objs[:]
        random.Random(3).shuffle(shuffled)
        write_jsonl(b, shuffled)
        rec_a, _ = parse_stream_file(a, "en")
        rec_b, _ = parse_stream_file(b, "en")
        key = lambda r: r.id
        assert sorted(rec_a, key=key) == sorted(rec_b, key=key)


class TestMergeRuns:
    def test_duplicate_ids_first_wins(self, tmp_path):
        first = [TweetRecord(id="1", text="first copy")]
        second = [
            TweetRecord(id="1", text="second copy"),
            TweetRecord(id="2", text="fresh"),
        ]
        from weakpairs.ingest import ParseStats

        merged, totals = merge_runs([(first, ParseStats(parsed=1)), (second, ParseStats(parsed=2))])
        assert [r.id for r in merged] == ["1", "2"]
        assert merged[0].text == "first copy"
        assert totals.duplicate_ids == 1
        assert totals.parsed == 3  # per-file sums are preserved


class TestExtractRelations:
    def test_quote_edge_with_embedded_text(self):
        record = TweetRecord(id="r", text="my comment", quoted_id="t", quoted_text="the original")
        edges = extract_relations([record])
        assert edges == [
            RelationEdge(kind=QUOTE, target_id="t", response_id="r",
                         target_text="the original", response_text="my comment")
        ]

    def test_reply_edge_has_no_target_text(self):
        record = TweetRecord(id="r", text="my reply", reply_to="t")
        edges = extract_relations([record])
        assert edges == [
            RelationEdge(kind=REPLY, target_id="t", response_id="r",
                         target_text=None, response_text="my reply")
        ]

    def test_record_with_both_relations_emits_two_edges(self):
        record = TweetRecord(
            id="r", text="both", reply_to="a", quoted_id="b", quoted_text="q"
        )
        edges = extract_relations([record])
        assert len(edges) == 2
        assert {e.kind for e in edges} == {QUOTE, REPLY}

    def test_edge_counts_match_relation_counts(self):
        rng = random.Random(11)
        records = []
        quotes = replies = 0
        for i in range(300):
            quoted = (f"q{rng.randrange(40)}", "quoted words") if rng.random() < 0.5 else None
            reply_to = f"t{rng.randrange(40)}" if rng.random() < 0.5 else None
            quotes += quoted is not None
            replies += reply_to is not None
            records.append(
                TweetRecord(
                    id=f"id{i}",
                    text="body",
                    reply_to=reply_to,
                    quoted_id=quoted[0] if quoted else None,
                    quoted_text=quoted[1] if quoted else None,
                )
            )
        edges = extract_relations(records)
        assert sum(e.kind == QUOTE for e in edges) == quotes
        assert sum(e.kind == REPLY for e in edges) == replies

    def test_no_self_loops_emitted(self):
        record = TweetRecord(id="x", text="t", reply_to="x", quoted_id="x", quoted_text="t")
        assert extract_relations([record]) == []


class TestJoinReplyTargets:
    def test_resolvable_reply_gets_text(self):
        target = TweetRecord(id="t", text="the target text")
        edge = RelationEdge(kind=REPLY, target_id="t", response_id="r",
                            target_text=None, response_text="reply")
        joined, dropped = join_reply_targets([edge], index_records([target]))
        assert dropped == 0
        assert joined[0].target_text == "the target text"

    def test_unresolvable_reply_dropped_and_counted(self):
        edge = RelationEdge(kind=REPLY, target_id="missing", response_id="r",
                            target_text=None, response_text="reply")
        joined, dropped = join_reply_targets([edge], {})
        assert joined == []
        assert dropped == 1

    def test_three_of_five_resolvable(self):
        records = [TweetRecord(id=f"t{i}", text=f"target {i}") for i in range(3)]
        edges = [
            RelationEdge(kind=REPLY, target_id=f"t{i}", response_id=f"r{i}",
                         target_text=None, response_text="x")
            for i in range(5)
        ]
        joined, dropped = join_reply_targets(edges, index_records(records))
        assert len(joined) == 3
        assert dropped == 2

    def test_quote_edges_pass_through(self):
        edge = RelationEdge(kind=QUOTE, target_id="a", response_id="b",
                            target_text=None, response_text="x")
        joined, dropped = join_reply_targets([edge], {})
        assert joined == [edge]
        assert dropped == 0


class TestOnDiskFormats:
    def test_record_store_roundtrip(self, tmp_path):
        records = [
            TweetRecord(id="1", text="plain"),
            TweetRecord(id="2", text="reply body", reply_to="1"),
            TweetRecord(id="3", text="quote body", quoted_id="1", quoted_text="plain"),
        ]
        path = tmp_path / "store.jsonl"
        assert write_records(records, path) == 3
        assert read_records(path) == records

    def test_record_store_has_exactly_five_fields(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_records([TweetRecord(id="1", text="x")], path)
        obj = json.loads(path.read_text().splitlines()[0])
        assert set(obj) == {"id", "text", "reply_to", "quoted_id", "quoted_text"}

    def test_bad_store_line_names_line_number(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"id": "1", "text": "x", "lang": "en", "reply_to": null, "quoted_id": null, "quoted_text": null}\nnot json\n')
        with pytest.raises(DataError, match="line 2"):
            read_records(path)

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            '"just a string"',
            '{"id": null, "text": "x", "lang": "en"}',
            '{"id": "2", "text": 7, "lang": "en"}',
            '{"id": "2", "lang": "en"}',
            '{"id": "2", "text": "x", "lang": "en", "reply_to": 5}',
        ],
        ids=["array", "string", "null-id", "int-text", "missing-text", "int-reply-to"],
    )
    def test_line_that_is_not_a_record_is_data_error(self, tmp_path, line):
        path = tmp_path / "store.jsonl"
        path.write_text('{"id": "1", "text": "x", "lang": "en"}\n' + line + "\n")
        with pytest.raises(DataError, match=r"store\.jsonl.*line 2"):
            read_records(path)

    def test_lone_surrogate_in_store_is_data_error(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"id": "1", "text": "x", "lang": "en"}\n{"id": "2", "text": "x \\ud83d", "lang": "en"}\n')
        with pytest.raises(DataError, match=r"store\.jsonl: record store line 2: .*surrogate"):
            read_records(path)

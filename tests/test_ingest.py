"""Stream parsing, relation extraction and on-disk format tests."""

import bz2
import gzip
import json
import random
import re
import zlib
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    @pytest.mark.parametrize(
        "line",
        ['{"id_str": "1", "text": "deep", "lang": "en", "entities": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "{" + '"a": {' * 100_000 + "}" * 100_001],
        ids=["nested-field", "nested-objects"],
    )
    def test_line_nested_too_deeply_to_decode_is_malformed(self, tmp_path, line):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [tweet_obj(1), line, tweet_obj(2)])
        records, stats = parse_stream_file(path, "en")
        assert [r.id for r in records] == ["1", "2"]
        assert (stats.lines, stats.parsed, stats.malformed) == (3, 2, 1)

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

    @pytest.mark.parametrize(
        "fields",
        [{"id_str": {"a": 1}}, {"id_str": True}, {"id_str": 7}, {"in_reply_to_status_id_str": {"b": 2}},
         {"in_reply_to_status_id_str": 0}, {"quoted_status": {"id_str": [3], "text": "quoted words"}}],
        ids=["id-object", "id-bool", "id-number", "reply-to-object", "reply-to-zero", "quoted-id-list"],
    )
    def test_id_field_not_a_string_is_malformed(self, tmp_path, fields):
        # str() of such a value is a Python repr, never an id another line names
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{**tweet_obj(1), **fields}, tweet_obj(2)])
        records, stats = parse_stream_file(path, "en")
        assert [r.id for r in records] == ["2"]
        assert (stats.parsed, stats.malformed) == (1, 1)

    @pytest.mark.parametrize(
        "quoted",
        ["oops", ["9"], 7, True, {"id_str": "9", "text": 7}, {"id_str": "9", "full_text": ["quoted words"]},
         {"id_str": "9", "text": {"a": 1}, "full_text": "quoted words"}],
        ids=["string", "list", "number", "bool", "text-number", "full-text-list", "text-object"],
    )
    def test_quote_that_is_not_an_object_or_has_non_string_text_is_malformed(self, tmp_path, quoted):
        # neither is read as "no quote" or "a quote without text": the line is counted, not half kept
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{**tweet_obj(1), "quoted_status": quoted}, tweet_obj(2)])
        records, stats = parse_stream_file(path, "en")
        assert [r.id for r in records] == ["2"]
        assert (stats.parsed, stats.malformed) == (1, 1)

    def test_null_quote_and_quote_without_text_are_kept(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{**tweet_obj(1), "quoted_status": None}, {**tweet_obj(2), "quoted_status": {"id_str": "9"}},
                           {**tweet_obj(3), "quoted_status": {"id_str": "9", "text": None, "full_text": "long"}}])
        records, stats = parse_stream_file(path, "en")
        assert [(r.quoted_id, r.quoted_text) for r in records] == [(None, None), ("9", None), ("9", "long")]
        assert stats.malformed == 0

    def test_null_and_empty_relation_ids_mean_no_relation(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{**tweet_obj(1), "in_reply_to_status_id_str": None, "quoted_status": {"id_str": ""}},
                           {**tweet_obj(2), "in_reply_to_status_id_str": "", "quoted_status": {"id_str": None}}])
        records, stats = parse_stream_file(path, "en")
        assert records == [TweetRecord(id="1", text="some tweet text"), TweetRecord(id="2", text="some tweet text")]
        assert stats.malformed == 0

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

    @pytest.mark.parametrize("opener,suffix", [(open, ""), (gzip.open, ".gz"), (bz2.open, ".bz2")], ids=["plain", "gz", "bz2"])
    def test_lone_carriage_return_is_part_of_its_line(self, tmp_path, opener, suffix):
        path = tmp_path / f"a.jsonl{suffix}"
        with opener(path, "wb") as handle:
            handle.write(b'{"id_str":"1",\r"text":"split by a lone CR","lang":"en"}\r\n'
                         b'{"id_str":"2","text":"next","lang":"en"}\r\n'
                         b'{"id_str":"3","text":"last, its lone CR is JSON space","lang":"en"}\r')
        records, stats = parse_stream_file(path, "en")
        assert [(r.id, r.text) for r in records] == [("1", "split by a lone CR"), ("2", "next"),
                                                     ("3", "last, its lone CR is JSON space")]
        assert (stats.lines, stats.parsed, stats.malformed) == (3, 3, 0)

    def test_line_that_is_not_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(
            b'{"id_str":"1","text":"caf\xe9 ok","lang":"en"}\n'
            + json.dumps(tweet_obj(2, text="café ok")).encode("utf-8") + b"\n"
        )
        records, stats = parse_stream_file(path, "en")
        assert [(r.id, r.text) for r in records] == [("2", "café ok")]
        assert (stats.lines, stats.parsed, stats.malformed) == (2, 1, 1)

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


@pytest.fixture(scope="module")
def stream_bytes():
    """About 490 KB of stream lines: two of the splitter's 256 KB reads, five bzip2 blocks at compresslevel 1."""
    rng = random.Random(0)
    words = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(2, 9))) for _ in range(3000)]
    return b"".join(json.dumps(tweet_obj(i, text=" ".join(rng.choices(words, k=12)))).encode() + b"\n"
                    for i in range(4000))


def damaged_after_line(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(DataError, match=f"{name}: stream is damaged after line") as caught:
        parse_stream_file(path, "en")
    return int(re.search(r"after line (\d+):", str(caught.value)).group(1))


class TestDamagedStream:
    """``after line N`` names the last whole line the stream gave before it broke off."""

    FRACTIONS = (0.00002, 0.0003, 0.1, 0.3, 0.5, 0.77, 0.999, 1.0)  # from inside the header to the last byte

    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_truncated_gzip_names_the_last_whole_line_that_decompresses(self, tmp_path, stream_bytes, fraction):
        packed = gzip.compress(stream_bytes, mtime=0)
        cut = packed[: min(int(len(packed) * fraction), len(packed) - 1)]
        whole_lines = zlib.decompressobj(wbits=31).decompress(cut).count(b"\n")
        assert damaged_after_line(tmp_path, "cut.jsonl.gz", cut) == whole_lines

    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_truncated_bzip2_names_the_last_whole_line_that_decompresses(self, tmp_path, stream_bytes, fraction):
        packed = bz2.compress(stream_bytes, 1)
        cut = packed[: min(int(len(packed) * fraction), len(packed) - 1)]
        whole_lines = bz2.BZ2Decompressor().decompress(cut).count(b"\n")
        assert damaged_after_line(tmp_path, "cut.jsonl.bz2", cut) == whole_lines

    # a corrupt bzip2 block fails its check at its end, and the decompressor drops what its failing call decoded:
    # a block of compresslevel 1 (100 KB) decodes in one read, so no line of it is counted whole
    @pytest.mark.parametrize("fraction", (0.2, 0.4, 0.6, 0.8, 0.95))
    def test_corrupt_bzip2_block_names_no_line_past_the_intact_blocks(self, tmp_path, stream_bytes, fraction):
        packed = bz2.compress(stream_bytes, 1)
        at = int(len(packed) * fraction)
        intact_lines = bz2.BZ2Decompressor().decompress(packed[:at]).count(b"\n")
        damaged = packed[:at] + bytes([packed[at] ^ 0x55]) + packed[at + 1:]
        assert damaged_after_line(tmp_path, "bad.jsonl.bz2", damaged) <= intact_lines


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

    def test_kept_edges_are_the_objects_given(self):
        # a resolved reply edge is filled in place, not rebuilt field by field
        edges = [RelationEdge(kind=REPLY, target_id="t", response_id="r", target_text=None, response_text="x"),
                 RelationEdge(kind=QUOTE, target_id="q", response_id="r", target_text="quoted", response_text="x"),
                 RelationEdge(kind=REPLY, target_id="gone", response_id="s", target_text=None, response_text="y")]
        joined, dropped = join_reply_targets(edges, {"t": "the target text"})
        assert [id(edge) for edge in joined] == [id(edges[0]), id(edges[1])]
        assert edges[0].target_text == "the target text" and dropped == 1

    def test_index_maps_each_id_to_its_first_text(self):
        records = [TweetRecord(id="1", text="first"), TweetRecord(id="2", text="other"),
                   TweetRecord(id="1", text="second")]
        assert index_records(records) == {"1": "first", "2": "other"}

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

    # JSON's escapes (quote, backslash, control characters), the separators JavaScript reads as line breaks,
    # and text outside the Basic Multilingual Plane, among plain letters
    STORE_TEXT = st.text(st.sampled_from('ab "\\/\x00\x1f\x7f\t\n\r\u2028\u2029\ufeffé€😀\U0010ffff'), max_size=12)

    @given(rows=st.lists(st.tuples(STORE_TEXT, STORE_TEXT, st.none() | STORE_TEXT, st.none() | STORE_TEXT,
                                   st.none() | STORE_TEXT), max_size=4))
    def test_store_lines_are_the_bytes_json_dumps_writes(self, tmp_path_factory, rows):
        records = [TweetRecord(*row) for row in rows]
        path = tmp_path_factory.mktemp("store") / "store.jsonl"
        assert write_records(records, path) == len(records)
        expected = "".join(json.dumps(vars(record), ensure_ascii=False) + "\n" for record in records)
        assert path.read_bytes() == expected.encode("utf-8")

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

    @pytest.mark.parametrize(
        "fields, bad",
        [
            ({"id": 7}, "id"),
            ({"text": ["x"]}, "text"),
            ({"quoted_text": 3}, "quoted_text"),
            ({"quoted_text": {"a": "b"}, "id": 7}, "id, quoted_text"),
            ({"reply_to": False, "text": None, "quoted_id": 1.5, "id": [], "quoted_text": "fine"},
             "id, text, reply_to, quoted_id"),
        ],
        ids=["number-id", "list-text", "number-quoted-text", "two-fields", "four-fields"],
    )
    def test_wrong_typed_fields_are_each_named_in_field_order(self, tmp_path, fields, bad):
        path = tmp_path / "store.jsonl"
        write_jsonl(path, [{"id": "1", "text": "x"}, {"id": "2", "text": "y", **fields}])
        with pytest.raises(DataError, match=rf"store\.jsonl: record store line 2: {bad} must be strings$"):
            read_records(path)

    def test_check_follows_the_record_fields(self, tmp_path):
        # read_records spells out TweetRecord's fields by hand: each field, in order, is read from its own key,
        # named alone when it holds a number, and may be null exactly where it defaults to None
        path = tmp_path / "store.jsonl"
        names = [f.name for f in fields(TweetRecord)]
        write_jsonl(path, [{name: f"value {name}" for name in names}])
        assert read_records(path) == [TweetRecord(*(f"value {name}" for name in names))]
        for f in fields(TweetRecord):
            write_jsonl(path, [{name: "v" for name in names} | {f.name: 7}])
            with pytest.raises(DataError, match=rf"line 1: {f.name} must be strings$"):
                read_records(path)
            write_jsonl(path, [{name: "v" for name in names} | {f.name: None}])
            if f.default is None:
                assert getattr(read_records(path)[0], f.name) is None
            else:
                with pytest.raises(DataError, match=rf"line 1: {f.name} must be strings$"):
                    read_records(path)

    def test_absent_and_null_nullable_fields_read_as_none(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"id": "1", "text": "x"}\n{"quoted_text": null, "text": "y", "id": "2", "reply_to": "1"}\n')
        assert read_records(path) == [TweetRecord("1", "x"), TweetRecord("2", "y", reply_to="1")]

    def test_lone_surrogate_in_store_is_data_error(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"id": "1", "text": "x", "lang": "en"}\n{"id": "2", "text": "x \\ud83d", "lang": "en"}\n')
        with pytest.raises(DataError, match=r"store\.jsonl: record store line 2: .*surrogate"):
            read_records(path)

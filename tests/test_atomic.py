"""Line files: atomic writes keep the old file on failure; readers locate every bad line."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakpairs.atomic import atomic_write, json_object, read_jsonl, read_tsv, write_jsonl, write_tsv
from weakpairs.corpus import PairExample, read_pairs, write_pairs
from weakpairs.errors import DataError


def test_completed_write_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_write(path, encoding="utf-8") as handle:
        handle.write("new\n")
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_failure_midway_keeps_old_file_and_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path, encoding="utf-8") as handle:
            handle.write("half of the new")
            raise RuntimeError("disk gone")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_pair_writer_failing_midway_keeps_old_pair_file(tmp_path):
    path = tmp_path / "pairs.tsv"
    old = [PairExample("an old anchor text here", "an old positive text here", "qt", "a0", "p0")]
    write_pairs(old, path)

    def failing_pairs():
        yield PairExample("a new anchor text here", "a new positive text here", "qt", "a1", "p1")
        raise OSError("no space left on device")

    with pytest.raises(OSError):
        write_pairs(failing_pairs(), path)
    assert read_pairs(path) == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.tsv"]


def test_binary_mode(tmp_path):
    path = tmp_path / "blob.bin"
    with atomic_write(path, "wb") as handle:
        handle.write(b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"


def test_line_writers_return_counts_and_write_utf8(tmp_path):
    assert write_jsonl(tmp_path / "a.jsonl", [{"text": "café"}, {"n": 1}]) == 2
    assert (tmp_path / "a.jsonl").read_bytes() == '{"text": "café"}\n{"n": 1}\n'.encode("utf-8")
    assert write_tsv(tmp_path / "a.tsv", [("x", "ü"), ("y", "")]) == 2
    assert (tmp_path / "a.tsv").read_bytes() == "x\tü\ny\t\n".encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "a.tsv"]


def test_readers_number_every_line_and_skip_blank_ones(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_bytes(b'{"a": 1}\r\n\n   \t\n  {"a": 2}  \n{"a": 3}')
    assert list(read_jsonl(path, "thing")) == [(1, {"a": 1}), (4, {"a": 2}), (5, {"a": 3})]
    path = tmp_path / "a.tsv"
    path.write_bytes(b"a\tb\r\n\n \t \nc\td\r")
    assert list(read_tsv(path, 2, "thing")) == [(1, ["a", "b"]), (3, [" ", " "]), (4, ["c", "d"])]


def test_one_byte_order_mark_starting_line_1_is_dropped(tmp_path):
    bom = "\ufeff".encode("utf-8")
    path = tmp_path / "a.jsonl"
    path.write_bytes(bom + b'{"a": 1}\n{"a": 2}\n')
    assert list(read_jsonl(path, "thing")) == [(1, {"a": 1}), (2, {"a": 2})]
    # a second mark, or one on a later line, is text
    path = tmp_path / "a.tsv"
    path.write_bytes(bom + bom + b"a\tb\n" + bom + b"c\td\n")
    assert list(read_tsv(path, 2, "thing")) == [(1, ["\ufeffa", "b"]), (2, ["\ufeffc", "d"])]


def test_lone_carriage_return_does_not_split_a_line(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_bytes(b"a\rb\tc\nd\te\n")
    assert list(read_tsv(path, 2, "thing")) == [(1, ["a\rb", "c"]), (2, ["d", "e"])]


@pytest.mark.parametrize(
    "content,reader,message",
    [
        (b'{"a": 1}\n{"a": 2}\n{"a": "\xff"}\n', "jsonl", r"not UTF-8 \(invalid start byte at byte 7\)"),
        (b'{"a": 1}\n{"a": 2}\n{"a": \n', "jsonl", "Expecting value at column 6"),
        (b'{"a": 1}\n{"a": 2}\n[1, 2]\n', "jsonl", "not a JSON object"),
        (b'{"a": 1}\n{"a": 2}\n{"a": "\\ud83d"}\n', "jsonl", "lone surrogate"),
        (b'{"a": 1}\n{"a": 2}\n\xef\xbb\xbf{"a": 3}\n', "jsonl", "Unexpected UTF-8 BOM"),
        # json.loads skips JSON whitespace before it reports extra data
        (b'{"a": 1}\n{"a": 2}\n{"a": 3} x\n', "jsonl", "Extra data at column 10$"),
        # json.loads raises a bare ValueError for an integer too long to convert
        pytest.param(b'{"a": 1}\n{"a": 2}\n{"a": ' + b"1" * 5_000 + b"}\n", "jsonl", "Exceeds the limit",
                     id="jsonl-integer-of-5000-digits"),
        # far past the depth the decoder follows, where json.loads raises RecursionError
        pytest.param(b'{"a": 1}\n{"a": 2}\n{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}\n", "jsonl",
                     "nested too deeply", id="jsonl-nested-100000-deep"),
        (b"a\tb\nc\td\n\xe2\x82\tf\n", "tsv", "not UTF-8"),
        (b"a\tb\nc\td\ne\tf\tg\n", "tsv", "has 3 fields, expected 2"),
    ],
)
def test_bad_line_is_data_error_naming_file_and_line(tmp_path, content, reader, message):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    rows = read_jsonl(path, "thing") if reader == "jsonl" else read_tsv(path, 2, "thing")
    with pytest.raises(DataError, match=rf"input\.txt: thing line 3\b.*{message}"):
        list(rows)


def test_escape_nested_near_the_decoders_limit_reads_or_is_a_data_error(tmp_path):
    # a line holding a \u escape is walked again after its decode, a few frames deeper than the decode went
    path = tmp_path / "deep.jsonl"
    for depth in range(800, 1101):
        path.write_text('{"a": ' + "[" * depth + '"\\u00e9"' + "]" * depth + "}\n", encoding="utf-8")
        try:
            assert [lineno for lineno, _ in read_jsonl(path, "thing")] == [1], depth
        except DataError as exc:
            assert str(exc).endswith("thing line 1: nested too deeply to decode"), depth


# JSON objects, then characters a mutation may put anywhere in one: structure, JSON and other whitespace, a mark
JSON_OBJECTS = st.dictionaries(
    st.text(max_size=3),
    st.recursive(st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats(allow_nan=False)
                 | st.text(max_size=4),
                 lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                 max_leaves=4),
    max_size=3,
).map(json.dumps)
MUTATION_CHARS = st.sampled_from(list('{}[]:,"\\ \t\n\r\x0b\x0c\xa0\ufeff0-.eExtrunl'))


@given(text=JSON_OBJECTS, edits=st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                                                   st.integers(0, 60), MUTATION_CHARS), max_size=3),
       prefix=st.lists(MUTATION_CHARS, max_size=2).map("".join),
       suffix=st.lists(MUTATION_CHARS, max_size=2).map("".join))
def test_json_object_accepts_and_rejects_as_json_loads_does(text, edits, prefix, suffix):
    for op, at, char in edits:
        at = min(at, len(text))
        text = text[:at] + (char if op != "delete" else "") + text[at + (op != "insert"):]
    text = prefix + text + suffix
    try:
        expected = json.loads(text)
    except json.JSONDecodeError as exc:
        with pytest.raises(ValueError) as caught:
            json_object(text)
        assert str(caught.value) == f"{exc.msg} at column {exc.colno}"
        return
    if isinstance(expected, dict):
        assert json_object(text) == expected
    else:
        with pytest.raises(ValueError, match="^not a JSON object$"):
            json_object(text)

"""Line files: atomic writes keep the old file on failure; readers locate every bad line."""

import pytest

from weakpairs.atomic import atomic_write, read_jsonl, read_tsv, write_jsonl, write_tsv
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

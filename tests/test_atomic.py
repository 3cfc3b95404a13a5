"""Atomic output files: a failed write keeps the old file and leaves no temp file."""

import pytest

from weakpairs.atomic import atomic_write
from weakpairs.corpus import PairExample, read_pairs, write_pairs


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

"""Line files in and out: UTF-8 JSON lines and TSV, read with located errors, written atomically.

Readers see the old output file or the whole new one, never a part.  An input
line ends at ``\\n`` or ``\\r\\n`` and line numbers count every line; one
byte-order mark (U+FEFF) at the start of line 1 is dropped.  ``split_lines``
splits every line file, and every stream file ``ingest`` reads, into lines.  A
line that is not UTF-8, not one JSON object, or has the wrong field count is a
``DataError`` naming the file and the line.

``json_object`` is the one decoder of a JSON line: the line readers here, the
stream parser in ``ingest`` and the checkpoint header in ``encoder`` all decide
through it what counts as one JSON object, and why a line is not one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

from .errors import DataError

# json.dumps(obj, ensure_ascii=False) builds a new encoder per call; one shared encoder writes the same bytes
_JSON_LINE = json.JSONEncoder(ensure_ascii=False)
# json.loads is this decoder's decode(), wrapped in checks; json_object makes the same checks around raw_decode
_RAW_DECODE = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"
BLOCK = 1 << 18  # bytes per read of split_lines: 256 KB


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs):
    """Open a temp file beside ``path``; when the block ends cleanly it replaces ``path``.

    If the block raises, the temp file is removed and ``path`` is untouched.
    There is no fsync: this guards against partial files from a failed or
    interrupted run, not against power loss.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, mode, **open_kwargs) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def line_text(raw: bytes, lineno: int) -> str:
    """The text of line ``lineno`` as a binary file iterates it: ``raw`` less its ``\\n`` or ``\\r\\n``, decoded.

    A ``\\r`` not followed by ``\\n`` is part of the line, the last line of
    a file included.  A byte-order mark at the start of line 1 is dropped.
    Bytes that are not UTF-8 raise UnicodeDecodeError.
    """
    line = (raw[:-2] if raw.endswith(b"\r\n") else raw.removesuffix(b"\n")).decode("utf-8")
    return line.removeprefix("\ufeff") if lineno == 1 else line


def split_lines(handle: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """(line number, raw line) per line of binary ``handle``, as ``enumerate(handle, start=1)`` yields them.

    Each line but a last one without it ends in its ``b"\\n"``.  Reads
    ``BLOCK`` bytes at a time with ``read1``, which returns every byte a
    compressed stream decoded before a failing read raises; ``read`` drops
    what it decoded in the call that fails.  So the lines yielded before an
    error are all the whole lines of the bytes that could be read.
    """
    return enumerate(chain.from_iterable(_block_lines(handle)), start=1)


def _block_lines(handle: BinaryIO) -> Iterator[Iterable[bytes]]:
    """Per block read, an iterable of the lines the block ends, each made only when it is iterated.

    So a reader holds one line at a time, as iterating the handle does.  A
    list of a block's lines, all alive at once, left the heap such that NumPy
    work after the read faulted thousands of pages in again.
    """
    part: list[bytes] = []  # the pieces of a line that no block so far has ended
    while block := handle.read1(BLOCK):
        cut = block.rfind(b"\n") + 1
        if not cut:
            part.append(block)  # the line goes on; join its pieces once, when it ends
            continue
        lines = io.BytesIO(block)  # iterates in C, splitting after each b"\n"
        if part:
            part.append(lines.readline())
            yield (b"".join(part),)
            part.clear()
        if cut < len(block):
            lines.truncate(cut)
            part.append(block[cut:])
        yield lines
    if part:
        yield (b"".join(part),)


def _lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    with open(path, "rb") as handle:
        for lineno, raw in split_lines(handle):
            try:
                line = line_text(raw, lineno)
            except UnicodeDecodeError as exc:
                reason = f"not UTF-8 ({exc.reason} at byte {exc.start})"
                raise DataError(f"{path}: {what} line {lineno}: {reason}") from exc
            yield lineno, line


def has_lone_surrogate(line: str, obj: object) -> bool:
    """Whether ``obj``, decoded from ``line``, holds text no UTF-8 file can hold, from an escape such as ``\\ud83d``.

    Only a line containing ``\\u`` can produce it; ``obj`` is walked only
    then.  The walk recurses a few frames deeper than the decode did, so on
    a value nested just short of the decoder's limit it raises ValueError
    "nested too deeply to decode", as ``json_object`` does past the limit.
    """
    if "\\u" not in line:
        return False
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    except RecursionError:
        raise ValueError("nested too deeply to decode") from None
    return False


def json_object(text: str) -> dict:
    """The JSON object ``text`` holds, accepted exactly where ``json.loads`` accepts an object.

    Anything else raises ValueError saying why: a ``json.loads`` error as its
    message and column (a leading byte-order mark, bad syntax, extra data
    after JSON whitespace), "not a JSON object", or "nested too deeply to
    decode" where ``json.loads`` would raise RecursionError (about 1,000
    levels, less the caller's stack depth).
    """
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        obj, end = _RAW_DECODE(text, len(text) - len(text.lstrip(_JSON_SPACE)))
        if end != len(text):
            end = len(text) - len(text[end:].lstrip(_JSON_SPACE))
            if end != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{exc.msg} at column {exc.colno}") from exc
    except RecursionError:
        raise ValueError("nested too deeply to decode") from None
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    return obj


def read_jsonl(path: str | Path, what: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) per line that is not blank once stripped."""
    for lineno, line in _lines(path, what):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json_object(line)
            if has_lone_surrogate(line, obj):
                raise ValueError("a \\u escape is a lone surrogate, not text")
        except ValueError as exc:
            raise DataError(f"{path}: {what} line {lineno}: {exc}") from exc
        yield lineno, obj


def read_tsv(path: str | Path, fields: int, what: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) per non-empty line; fields are not unescaped."""
    for lineno, line in _lines(path, what):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != fields:
            raise DataError(f"{path}: {what} line {lineno} has {len(parts)} fields, expected {fields}")
        yield lineno, parts


def write_jsonl(path: str | Path, objs: Iterable[object]) -> int:
    """One JSON value per line, non-ASCII kept as UTF-8; returns the line count."""
    return write_lines(path, map(_JSON_LINE.encode, objs))


def write_tsv(path: str | Path, rows: Iterable[Sequence[str]]) -> int:
    """One tab-joined row per line; the caller escapes tabs and newlines in fields."""
    return write_lines(path, ("\t".join(row) for row in rows))


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Each line, then ``\\n``, as UTF-8; returns the line count."""
    count = 0
    with atomic_write(path, encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
            count += 1
    return count

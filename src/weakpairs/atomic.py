"""Line files in and out: UTF-8 JSON lines and TSV, read with located errors, written atomically.

Readers see the old output file or the whole new one, never a part.  An input
line ends at ``\\n`` or ``\\r\\n`` and line numbers count every line; one
byte-order mark (U+FEFF) at the start of line 1 is dropped.  A line that is
not UTF-8, not one JSON object, or has the wrong field count is a
``DataError`` naming the file and the line.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError

# json.dumps(obj, ensure_ascii=False) builds a new encoder per call; one shared encoder writes the same bytes
_JSON_LINE = json.JSONEncoder(ensure_ascii=False)


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


def _lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8")
            except UnicodeDecodeError as exc:
                reason = f"not UTF-8 ({exc.reason} at byte {exc.start})"
                raise DataError(f"{path}: {what} line {lineno}: {reason}") from exc
            yield lineno, line.removeprefix("\ufeff") if lineno == 1 else line


def has_lone_surrogate(obj: object) -> bool:
    """Whether parsed JSON holds text no UTF-8 file can hold, from an escape such as ``\\ud83d``.

    Only a line containing ``\\u`` can produce it, so callers test for that first.
    """
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def read_jsonl(path: str | Path, what: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) per line that is not blank once stripped."""
    for lineno, line in _lines(path, what):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: {what} line {lineno}: {exc.msg} at column {exc.colno}") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}: {what} line {lineno}: not a JSON object")
        if "\\u" in line and has_lone_surrogate(obj):
            raise DataError(f"{path}: {what} line {lineno}: a \\u escape is a lone surrogate, not text")
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
    return _write_lines(path, map(_JSON_LINE.encode, objs))


def write_tsv(path: str | Path, rows: Iterable[Sequence[str]]) -> int:
    """One tab-joined row per line; the caller escapes tabs and newlines in fields."""
    return _write_lines(path, ("\t".join(row) for row in rows))


def _write_lines(path: str | Path, lines: Iterable[str]) -> int:
    count = 0
    with atomic_write(path, encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
            count += 1
    return count

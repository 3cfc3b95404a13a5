"""Parse archived tweet-stream JSON-lines files and extract quote/reply relations.

Input files hold one JSON object per line (optionally gzip/bzip2 compressed,
detected by extension).  Only a minimal field set is read: ``id_str``,
``text`` (falling back to ``full_text``), ``lang`` (filtered on, not kept),
``in_reply_to_status_id_str`` and ``quoted_status.{id_str,text}``; everything
else in the archive objects is ignored.  Malformed lines, an id or text that
is not a JSON string or a ``quoted_status`` that is not an object among them,
are tallied, never fatal.
"""

from __future__ import annotations

import bz2
import gzip
import zlib
from dataclasses import asdict, dataclass, fields
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .atomic import has_lone_surrogate, json_object, read_jsonl, write_jsonl
from .errors import DataError

QUOTE = "quote"
REPLY = "reply"


@dataclass
class TweetRecord:
    """One parsed tweet, reduced to the fields the pipeline needs."""

    id: str
    text: str
    reply_to: str | None = None
    quoted_id: str | None = None
    quoted_text: str | None = None


@dataclass
class RelationEdge:
    """A (target, response) link derived from a quote or reply."""

    kind: str
    target_id: str
    response_id: str
    target_text: str | None
    response_text: str


@dataclass
class ParseStats:
    """Line-level accounting for one or more stream files."""

    lines: int = 0
    parsed: int = 0
    filtered_lang: int = 0
    malformed: int = 0
    no_text: int = 0
    duplicate_ids: int = 0

    def add(self, other: "ParseStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        return asdict(self)


def _open_stream(path: Path):
    # utf-8-sig drops a leading byte-order mark, which would leave line 1 malformed
    opener = {".gz": gzip.open, ".bz2": bz2.open}.get(path.suffix.lower(), open)
    return opener(path, "rt", encoding="utf-8-sig", errors="replace")


def _stream_lines(path: Path) -> Iterator[str]:
    """The lines of a stream file; a stream that breaks off or is damaged part way is a DataError.

    The error names the file and the last line read whole.  A truncated
    ``.gz`` or ``.bz2`` raises EOFError, a corrupt deflate block zlib.error
    and a bad header, CRC or bzip2 block OSError.
    """
    lineno = 0
    with _open_stream(path) as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                yield line
        except (EOFError, zlib.error, OSError) as exc:
            raise DataError(f"{path}: stream is damaged after line {lineno}: {exc}") from exc


def _id_field(obj: dict, key: str) -> str | None:
    """An id field: a JSON string, or None when absent, null or empty; any other value is malformed."""
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{key} is not a string")
    return value or None


def _text_field(obj: dict) -> str | None:
    """``text``, falling back to ``full_text``: a string, or None when both are absent or null; else malformed."""
    text = obj.get("text")
    if text is None:
        text = obj.get("full_text")
    if text is not None and not isinstance(text, str):
        raise ValueError("text field is not a string")
    return text


def _record_from_obj(obj: dict) -> TweetRecord | None:
    """Build a TweetRecord from a raw archive object; None for deletion notices."""
    text = _text_field(obj)
    if text is None:
        return None
    tweet_id = _id_field(obj, "id_str")
    if tweet_id is None:
        raise ValueError("missing id_str")
    quoted = obj.get("quoted_status")
    if quoted is not None and not isinstance(quoted, dict):
        raise ValueError("quoted_status is not an object")
    return TweetRecord(
        id=tweet_id,
        text=text,
        reply_to=_id_field(obj, "in_reply_to_status_id_str"),
        quoted_id=_id_field(quoted, "id_str") if quoted else None,
        quoted_text=_text_field(quoted) if quoted else None,
    )


def parse_stream_file(path: str | Path, lang_filter: str = "en") -> tuple[list[TweetRecord], ParseStats]:
    """Parse one stream file, keeping records whose ``lang`` equals the filter.

    Line-level JSON errors, and record text that a ``\\u`` escape leaves as a
    lone surrogate, are counted in the returned stats.  A file that cannot be
    opened raises the underlying OSError (which names the path); a damaged
    compressed stream is a DataError (see ``_stream_lines``).
    """
    path = Path(path)
    records: list[TweetRecord] = []
    stats = ParseStats()
    for line in _stream_lines(path):
        line = line.strip()
        if not line:
            continue
        stats.lines += 1
        try:
            obj = json_object(line)
            record = _record_from_obj(obj)
            if record is not None and has_lone_surrogate(line, vars(record)):
                raise ValueError("record text holds a lone surrogate")
        except ValueError:
            stats.malformed += 1
            continue
        if record is None:
            stats.no_text += 1
            continue
        if str(obj.get("lang") or "") != lang_filter:
            stats.filtered_lang += 1
            continue
        stats.parsed += 1
        records.append(record)
    return records, stats


def merge_runs(per_file: Sequence[tuple[list[TweetRecord], ParseStats]]) -> tuple[list[TweetRecord], ParseStats]:
    """Concatenate per-file parses, dropping duplicate ids (first wins), each counted in its own file's stats."""
    seen: set[str] = set()
    merged: list[TweetRecord] = []
    totals = ParseStats()
    for records, stats in per_file:
        for record in records:
            if record.id in seen:
                stats.duplicate_ids += 1
                continue
            seen.add(record.id)
            merged.append(record)
        totals.add(stats)
    return merged, totals


def extract_relations(records: Iterable[TweetRecord]) -> list[RelationEdge]:
    """Emit one Quote edge per quoting record and one Reply edge per replying record.

    A record carrying both relations emits two edges.  Degenerate self-links
    (target equal to response) are skipped to keep the edge invariant intact.
    """
    edges: list[RelationEdge] = []
    for record in records:
        if record.quoted_id and record.quoted_id != record.id:
            edges.append(
                RelationEdge(
                    kind=QUOTE,
                    target_id=record.quoted_id,
                    response_id=record.id,
                    target_text=record.quoted_text,
                    response_text=record.text,
                )
            )
        if record.reply_to and record.reply_to != record.id:
            edges.append(
                RelationEdge(
                    kind=REPLY,
                    target_id=record.reply_to,
                    response_id=record.id,
                    target_text=None,
                    response_text=record.text,
                )
            )
    return edges


def index_records(records: Iterable[TweetRecord]) -> dict[str, str]:
    """Each record's text by its id; the first record with an id wins."""
    texts: dict[str, str] = {}
    for record in records:
        texts.setdefault(record.id, record.text)
    return texts


def join_reply_targets(
    edges: Iterable[RelationEdge], texts_by_id: Mapping[str, str]
) -> tuple[list[RelationEdge], int]:
    """Fill each reply edge's target text in place from the id → text index.

    Replies do not embed the replied text, so a second pass over the parsed
    records is needed.  Reply edges whose target is absent from the index are
    dropped; the count of dropped edges is returned.  Quote edges pass
    through untouched, and every kept edge is the object it was given.
    """
    joined: list[RelationEdge] = []
    dropped = 0
    for edge in edges:
        if edge.kind == REPLY:
            edge.target_text = texts_by_id.get(edge.target_id)
            if edge.target_text is None:
                dropped += 1
                continue
        joined.append(edge)
    return joined, dropped


# --- on-disk formats ---------------------------------------------------------

_RECORD_FIELDS = tuple(f.name for f in fields(TweetRecord))
# the value types each field may hold, in field order: a string, or also null where the field defaults to None
_FIELD_TYPES = tuple({str, type(None)} if f.default is None else {str} for f in fields(TweetRecord))
_VALID_TYPES = frozenset(product(*_FIELD_TYPES))  # every allowed type tuple: one set lookup checks a whole line


def write_records(records: Iterable[TweetRecord], path: str | Path) -> int:
    """Write the intermediate record store: JSON-lines with exactly the five record fields."""
    return write_jsonl(path, (vars(record) for record in records))


def read_records(path: str | Path) -> list[TweetRecord]:
    """Read a record store; a line not a JSON object of record fields is a DataError; other keys are ignored."""
    records = []
    for lineno, obj in read_jsonl(path, "record store"):
        values = [*map(obj.get, _RECORD_FIELDS)]
        if tuple(map(type, values)) not in _VALID_TYPES:
            bad = [k for k, allowed, v in zip(_RECORD_FIELDS, _FIELD_TYPES, values) if type(v) not in allowed]
            raise DataError(f"{path}: record store line {lineno}: {', '.join(bad)} must be strings")
        records.append(TweetRecord(*values))
    return records

"""Parse archived tweet-stream JSON-lines files and extract quote/reply relations.

Input files hold one JSON object per line (optionally gzip/bzip2 compressed,
detected by extension).  Only a minimal field set is read: ``id_str``,
``text`` (falling back to ``full_text``), ``lang`` (filtered on, not kept),
``in_reply_to_status_id_str`` and ``quoted_status.{id_str,text}``; everything
else in the archive objects is ignored.  Malformed lines are tallied, never
fatal.
"""

from __future__ import annotations

import bz2
import gzip
import json
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .atomic import has_lone_surrogate, read_jsonl, write_jsonl
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


def _record_from_obj(obj: dict) -> TweetRecord | None:
    """Build a TweetRecord from a raw archive object; None for deletion notices."""
    text = obj.get("text")
    if text is None:
        text = obj.get("full_text")
    if text is None:
        return None
    if not isinstance(text, str):
        raise ValueError("text field is not a string")
    tweet_id = obj.get("id_str")
    if tweet_id is None or str(tweet_id) == "":
        raise ValueError("missing id_str")
    reply_to = obj.get("in_reply_to_status_id_str")
    quoted = obj.get("quoted_status")
    quoted_id = quoted_text = None
    if isinstance(quoted, dict):
        quoted_id = quoted.get("id_str")
        quoted_text = quoted.get("text")
        if quoted_text is None:
            quoted_text = quoted.get("full_text")
    return TweetRecord(
        id=str(tweet_id),
        text=text,
        reply_to=str(reply_to) if reply_to else None,
        quoted_id=str(quoted_id) if quoted_id else None,
        quoted_text=quoted_text if isinstance(quoted_text, str) else None,
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
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            record = _record_from_obj(obj)
            if record is not None and "\\u" in line and has_lone_surrogate(vars(record)):
                raise ValueError("record text holds a lone surrogate")
        except (json.JSONDecodeError, ValueError):
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


def index_records(records: Iterable[TweetRecord]) -> dict[str, TweetRecord]:
    index: dict[str, TweetRecord] = {}
    for record in records:
        index.setdefault(record.id, record)
    return index


def join_reply_targets(
    edges: Iterable[RelationEdge], records_by_id: Mapping[str, TweetRecord]
) -> tuple[list[RelationEdge], int]:
    """Fill reply-edge target texts from the record index.

    Replies do not embed the replied text, so a second pass over the parsed
    records is needed.  Reply edges whose target is absent from the index are
    dropped; the count of dropped edges is returned.  Quote edges pass
    through untouched.
    """
    joined: list[RelationEdge] = []
    dropped = 0
    for edge in edges:
        if edge.kind != REPLY:
            joined.append(edge)
            continue
        target = records_by_id.get(edge.target_id)
        if target is None:
            dropped += 1
            continue
        joined.append(
            RelationEdge(
                kind=REPLY,
                target_id=edge.target_id,
                response_id=edge.response_id,
                target_text=target.text,
                response_text=edge.response_text,
            )
        )
    return joined, dropped


# --- on-disk formats ---------------------------------------------------------

_RECORD_FIELDS = tuple(f.name for f in fields(TweetRecord))
_NULLABLE = tuple(f.name for f in fields(TweetRecord) if f.default is None)  # the rest must be strings


def write_records(records: Iterable[TweetRecord], path: str | Path) -> int:
    """Write the intermediate record store: JSON-lines with exactly the five record fields."""
    return write_jsonl(path, (vars(record) for record in records))


def read_records(path: str | Path) -> list[TweetRecord]:
    """Read a record store; a line not a JSON object of record fields is a DataError; other keys are ignored."""
    records = []
    for lineno, obj in read_jsonl(path, "record store"):
        fields = {k: obj.get(k) for k in _RECORD_FIELDS}
        bad = [k for k, v in fields.items() if not (isinstance(v, str) or v is None and k in _NULLABLE)]
        if bad:
            raise DataError(f"{path}: record store line {lineno}: {', '.join(bad)} must be strings")
        records.append(TweetRecord(**fields))
    return records

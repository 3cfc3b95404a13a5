"""Tweet text cleaning, word-level tokenization, and vocabulary handling.

Cleaning lowercases, strips URLs (``https?://\\S+``) and @-mentions
(``@\\w+``), collapses every run of unicode whitespace to a single space and
trims the ends.  Removal is iterated to a fixpoint so that cleaning is
idempotent even when stripping one pattern uncovers another (e.g.
``http@x://y``).  Whitespace is collapsed by ``str.split``, whose whitespace
(``str.isspace``) is the set a ``\\s`` in a ``str`` pattern matches, so it
agrees with ``re.sub(r"\\s+", " ", text).strip()`` at a fraction of its cost.

Tokenizing splits the same way.  A token is a run of word characters or one
other non-space character (``TOKEN_RE``), and no token spans whitespace, so
``tokenize`` splits on whitespace first and runs ``TOKEN_RE`` only over the
words that are not all alphanumeric.  A word that is all alphanumeric is one
token as it stands, because ``\\w`` matches exactly the characters for which
``str.isalnum()`` holds, plus ``_``.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import repeat
from dataclasses import dataclass, field
from typing import Iterable, Sequence

URL_RE = re.compile(r"https?://\S+")
MENTION_RE = re.compile(r"@\w+")
# a token is a run of word characters, or a single punctuation character
TOKEN_RE = re.compile(r"\w+|[^\w\s]")

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1


def clean(text: str) -> str:
    """Normalize raw tweet text for pairing and encoding."""
    text = text.lower()
    previous = None
    # every URL match contains "http" and every mention "@"; without them the loop is a no-op
    while previous != text and ("http" in text or "@" in text):
        previous = text
        text = URL_RE.sub("", text)
        text = MENTION_RE.sub("", text)
    return " ".join(text.split())


def tokenize(text: str) -> list[str]:
    """Split cleaned text into word tokens, peeling punctuation off as single-char tokens.

    Equal to ``TOKEN_RE.findall(text)`` (see the module docstring).
    """
    words = text.split()
    if "".join(words).isalnum():  # every word is alphanumeric; one C call, and False on no words
        return words
    tokens: list[str] = []
    for word in words:
        if word.isalnum():
            tokens.append(word)
        else:
            tokens.extend(TOKEN_RE.findall(word))
    return tokens


@dataclass
class Vocabulary:
    """Token-to-id table with PAD=0 and UNK=1 always present.

    ``tokens`` is the full ordered list including the two specials, so the
    position of a token is its id.
    """

    tokens: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("vocabulary must start with the PAD and UNK specials")
        self.token_to_id = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)


def build_vocab(corpus: Iterable[str], max_size: int) -> Vocabulary:
    """Build a vocabulary from cleaned training text.

    The ``max_size - 2`` most frequent tokens get ids 2 upward; frequency ties
    break lexicographically so the result is deterministic.  No token can
    equal a special: ``tokenize`` splits ``<pad>`` into ``<``, ``pad`` and
    ``>``.
    """
    if max_size < 2:
        raise ValueError(f"max_size must be >= 2, got {max_size}")
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(tokenize(text))
    # a stable sort by descending count over the lexicographic order keeps ties lexicographic
    ranked = sorted(sorted(counts), key=counts.__getitem__, reverse=True)
    return Vocabulary(tokens=[PAD_TOKEN, UNK_TOKEN] + ranked[: max_size - 2])


def encode_ids(vocab: Vocabulary, text: str, max_len: int) -> list[int]:
    """Map cleaned text to token ids, truncated to ``max_len``.

    Empty text maps to a single UNK id so downstream mean pooling always has
    at least one token to average.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    ids = list(map(vocab.token_to_id.get, tokenize(text)[:max_len], repeat(UNK_ID)))
    return ids if ids else [UNK_ID]

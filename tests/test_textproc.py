"""Cleaning, tokenization and vocabulary tests."""

import random
import re
import string
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakpairs.textproc import (
    MENTION_RE,
    PAD_ID,
    PAD_TOKEN,
    TOKEN_RE,
    UNK_ID,
    UNK_TOKEN,
    URL_RE,
    build_vocab,
    clean,
    encode_ids,
    tokenize,
)


# weighted towards what the URL and mention patterns need, so strings on both sides of "http"/"@" occur
CLEAN_FRAGMENTS = (
    ["http", "HTTP", "https", "://", "@", "@"]
    + ["x", "Bob", "_9", "é", "t.co/a"]
    + [" ", "\t", "\n", "\u00a0", "\u2003", "\u3000"]
    + ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u200b"]  # \u200b is not whitespace
)
# the reference collapses whitespace by regex, apart from clean's str.split
WHITESPACE_RE = re.compile(r"\s+")


def _clean_reference(text):
    """The reference: clean with its URL/mention fixpoint loop run on every text, no early exit."""
    text = text.lower()
    previous = None
    while previous != text:
        previous = text
        text = URL_RE.sub("", text)
        text = MENTION_RE.sub("", text)
    return WHITESPACE_RE.sub(" ", text).strip()


# letters, "_", Unicode digits and numerals, punctuation, emoji with their joiners and modifiers, whitespace
TOKEN_FRAGMENTS = (
    ["a", "Zz", "é", "ß", "x1", "_", "a_b", "\u0663", "\u00b2", "\u216b", "\u00bd", "\U0001d7d8", "\u3007"]
    + ["!", ".", ",", "'", "-", "#", "\u2026", "\u00bf", "\u00ab", "~"]
    + ["\U0001f600", "\U0001f44d\U0001f3fd", "\U0001f1eb\U0001f1f7", "\u2764\ufe0f", "\u200d", "\u0301"]
    + [" ", "  ", "\t", "\u00a0", "\u3000"]
)
ALNUM_OR_SPACE_FRAGMENTS = [fragment for fragment in TOKEN_FRAGMENTS if fragment.isalnum() or fragment.isspace()]


def _encode_ids_reference(vocab, text, max_len):
    """The reference: a list comprehension over the regex's tokens."""
    ids = [vocab.token_to_id.get(token, UNK_ID) for token in TOKEN_RE.findall(text)[:max_len]]
    return ids if ids else [UNK_ID]


class TestClean:
    def test_applies_all_four_rules(self):
        # lowercase, URL removal, mention removal, space standardization
        assert clean("Check THIS https://t.co/xyz @bob  now") == "check this now"

    def test_empty_string(self):
        assert clean("") == ""

    def test_url_variants_removed(self):
        assert clean("go http://a.example/path?q=1 there") == "go there"
        assert clean("HTTPS://UPPER.example/x end") == "end"

    def test_mention_removed_mid_text(self):
        assert clean("hey @Some_User99 what a game") == "hey what a game"

    def test_unicode_whitespace_collapsed(self):
        assert clean("a  b\tc\nd") == "a b c d"

    def test_idempotent_on_random_strings(self):
        rng = random.Random(4242)
        alphabet = string.ascii_letters + string.digits + " @:/._#\t\n é漢"
        fragments = ["https://", "http://", "@", "  ", "t.co/", "HTTPS://x.y"]
        for _ in range(2000):
            pieces = [
                rng.choice(fragments) if rng.random() < 0.3 else
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))
                for _ in range(rng.randrange(0, 10))
            ]
            text = "".join(pieces)
            once = clean(text)
            assert clean(once) == once

    def test_never_increases_length(self):
        rng = random.Random(99)
        for _ in range(500):
            text = "".join(
                rng.choice(string.printable) for _ in range(rng.randrange(0, 60))
            )
            assert len(clean(text)) <= len(text)

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(CLEAN_FRAGMENTS) | st.text(max_size=4), max_size=12).map("".join))
    def test_equals_unconditional_fixpoint_loop(self, text):
        assert clean(text) == _clean_reference(text)

    def test_whitespace_collapse_equals_the_regex_at_every_code_point(self):
        for c in map(chr, range(sys.maxunicode + 1)):
            for text in (f"a{c}{c}b{c}", f"{c}x"):
                assert clean(text) == _clean_reference(text), (hex(ord(c)), text)

    def test_match_only_after_lowercasing(self):
        assert clean("HTTPS://x @Bob") == _clean_reference("HTTPS://x @Bob") == ""

    def test_uncovered_pattern_still_removed(self):
        # stripping the mention uncovers an http:// prefix; cleaning must not
        # leave it behind
        assert clean("http@xs://y") == ""


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("hello world") == ["hello", "world"]

    def test_punctuation_split_off(self):
        assert tokenize("wow!!") == ["wow", "!", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_interior_punctuation(self):
        assert tokenize("don't stop") == ["don", "'", "t", "stop"]

    def test_equals_the_regex_at_every_code_point(self):
        # a text of one word takes the whole-text fast path exactly when its code point is alphanumeric
        for c in map(chr, range(sys.maxunicode + 1)):
            assert tokenize(f"a{c}b") == TOKEN_RE.findall(f"a{c}b"), hex(ord(c))
        # each code point alone, doubled and next to "_", through the per-word loop:
        # a block of them joined by spaces tokenizes as its words do one by one
        for start in range(0, sys.maxunicode + 1, 4096):
            points = map(chr, range(start, min(start + 4096, sys.maxunicode + 1)))
            text = " ".join(f"{c} {c}{c}x_y{c}" for c in points)
            assert tokenize(text) == TOKEN_RE.findall(text), hex(start)

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(TOKEN_FRAGMENTS), max_size=16).map("".join))
    def test_equals_the_regex_on_mixed_text(self, text):
        assert tokenize(text) == TOKEN_RE.findall(text)

    # half the texts are built from alphanumeric fragments and whitespace only, so both of tokenize's paths run
    @settings(max_examples=500)
    @given(st.sampled_from([ALNUM_OR_SPACE_FRAGMENTS, TOKEN_FRAGMENTS])
           .flatmap(lambda fragments: st.lists(st.sampled_from(fragments), max_size=16)).map("".join))
    def test_one_test_of_the_joined_words_is_the_test_of_each_word(self, text):
        words = text.split()
        if words:  # on no words the two tests differ, and both paths return []
            assert "".join(words).isalnum() == all(map(str.isalnum, words))
        assert tokenize(text) == TOKEN_RE.findall(text)

    @pytest.mark.parametrize("text", ["", "   ", "\u3000"])
    def test_no_words_are_no_tokens(self, text):
        assert tokenize(text) == TOKEN_RE.findall(text) == []


class TestVocabulary:
    def test_specials_always_present(self):
        vocab = build_vocab(["alpha beta beta"], max_size=10)
        assert vocab.tokens[PAD_ID] == PAD_TOKEN
        assert vocab.tokens[UNK_ID] == UNK_TOKEN

    def test_size_counts_specials(self):
        vocab = build_vocab(["a b c"], max_size=10)
        assert len(vocab) == 5  # 3 distinct tokens + PAD + UNK

    def test_max_size_two_keeps_only_specials(self):
        vocab = build_vocab(["a b c"], max_size=2)
        assert vocab.tokens == [PAD_TOKEN, UNK_TOKEN]

    def test_max_size_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_vocab(["a"], max_size=1)

    def test_frequency_order_with_lexicographic_ties(self):
        vocab = build_vocab(["b b a a c"], max_size=5)
        # a and b tie at 2, a wins lexicographically; c is cut by max_size
        assert vocab.tokens == [PAD_TOKEN, UNK_TOKEN, "a", "b", "c"][:5]
        assert vocab.token_to_id["a"] == 2
        assert vocab.token_to_id["b"] == 3

    def test_deterministic(self):
        corpus = ["x y z y", "z z q"]
        assert build_vocab(corpus, 20).tokens == build_vocab(corpus, 20).tokens

    @settings(max_examples=200)
    @given(
        st.lists(st.lists(st.sampled_from(["a", "b", "ab", "ba", "c", "<pad>", "<unk>", "!", "é"]), max_size=12)
                 .map(" ".join), max_size=8),
        st.integers(2, 12),
    )
    def test_ranking_is_descending_count_then_token(self, corpus, max_size):
        counts = Counter(token for text in corpus for token in tokenize(text))
        ranked = [token for token, _ in sorted(counts.items(), key=lambda item: (-item[1], item[0]))]
        assert build_vocab(corpus, max_size).tokens == [PAD_TOKEN, UNK_TOKEN] + ranked[: max_size - 2]

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from([PAD_TOKEN, UNK_TOKEN, "<", ">", " "]) | st.text(max_size=4), max_size=8)
           .map("".join))
    def test_tokenize_never_yields_a_special(self, text):
        # build_vocab relies on this instead of filtering the specials out
        assert not {PAD_TOKEN, UNK_TOKEN} & set(tokenize(text))

    def test_specials_split_apart(self):
        assert tokenize(PAD_TOKEN + " " + UNK_TOKEN) == ["<", "pad", ">", "<", "unk", ">"]

    def test_ids_are_contiguous_bijection(self):
        vocab = build_vocab(["one two three two"], max_size=50)
        ids = sorted(vocab.token_to_id.values())
        assert ids == list(range(len(vocab)))

    def test_literal_special_strings_never_counted(self):
        vocab = build_vocab(["<pad> <unk> word word"], max_size=10)
        assert vocab.tokens.count(PAD_TOKEN) == 1
        assert vocab.tokens.count(UNK_TOKEN) == 1
        # '<', '>' and the names are tokenized apart, so 'pad' may appear,
        # but the exact special strings must not be duplicated
        assert vocab.token_to_id["word"] >= 2


class TestEncodeIds:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["alpha beta gamma"], max_size=10)

    def test_known_tokens(self, vocab):
        ids = encode_ids(vocab, "alpha beta", max_len=8)
        assert ids == [vocab.token_to_id["alpha"], vocab.token_to_id["beta"]]
        assert UNK_ID not in ids

    def test_oov_maps_to_unk(self, vocab):
        assert encode_ids(vocab, "zzz", max_len=8) == [UNK_ID]

    def test_truncation(self, vocab):
        text = " ".join(["alpha"] * 100)
        assert len(encode_ids(vocab, text, max_len=64)) == 64

    def test_empty_text_yields_single_unk(self, vocab):
        assert encode_ids(vocab, "", max_len=8) == [UNK_ID]

    def test_output_length_bounds(self, vocab):
        rng = random.Random(1)
        for _ in range(200):
            text = " ".join(rng.choice(["alpha", "beta", "zzz"]) for _ in range(rng.randrange(0, 30)))
            out = encode_ids(vocab, text, max_len=7)
            assert 1 <= len(out) <= 7

    @pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5, 6, 64])
    def test_equals_the_regex_reference_when_truncating_inside_a_punctuation_word(self, vocab, max_len):
        # "beta!?!gamma" is one word of five tokens; max_len 2 to 5 cuts it after each of them
        text = "alpha beta!?!gamma zzz"
        assert encode_ids(vocab, text, max_len) == _encode_ids_reference(vocab, text, max_len)

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(TOKEN_FRAGMENTS + ["alpha", "beta", "gamma"]), max_size=16).map("".join),
           st.integers(1, 8))
    def test_equals_the_regex_reference(self, text, max_len):
        vocab = build_vocab(["alpha beta gamma ! ."], max_size=10)
        assert encode_ids(vocab, text, max_len) == _encode_ids_reference(vocab, text, max_len)

    def test_max_len_precondition(self, vocab):
        with pytest.raises(ValueError):
            encode_ids(vocab, "alpha", max_len=0)

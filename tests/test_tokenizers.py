import functools
import hashlib
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcom import ingest
from dcom import tokenizers as tk
from dcom.errors import ConfigError
from wordpiece_oracle import oracle_train_wordpiece, oracle_wordpiece_word


class TestBuildVocab:
    def test_char_alphabet(self):
        vocab = tk.build_vocab(["ab ab b"], "char", size_budget=50)
        assert set(vocab.tokens) == {"[PAD]", "[UNK]", "[SEP]", "a", "b", " "}
        assert vocab.tokens[:3] == ("[PAD]", "[UNK]", "[SEP]")

    def test_word_two_tokens(self):
        vocab = tk.build_vocab(["F M F"], "word", size_budget=50)
        assert set(vocab.tokens) - set(tk.RESERVED) == {"F", "M"}

    def test_wordpiece_full_merge(self):
        vocab = tk.build_vocab(["playing playing playing"], "wordpiece", size_budget=100)
        assert "playing" in vocab.index

    @pytest.mark.parametrize("kind,budget", [("char", 10), ("word", 2), ("wordpiece", 10)],
                             ids=["char", "word", "wordpiece"])
    def test_budget_too_small(self, kind, budget):
        # char and wordpiece need the 3 reserved tokens and the alphabet a-h,
        # word only the reserved tokens
        with pytest.raises(ConfigError, match="budget"):
            tk.build_vocab(["abcdefgh"], kind, size_budget=budget)
        assert len(tk.build_vocab(["abcdefgh"], kind, size_budget=budget + 1)) <= budget + 1

    def test_wordpiece_budget_cap(self):
        vocab = tk.build_vocab(
            ["alpha beta gamma delta epsilon"] * 3, "wordpiece", size_budget=25
        )
        assert len(vocab) <= 25

    def test_separator_text_is_ordinary_word(self):
        # [SEP] is only the id between values: a corpus's "<SEP>" is learned
        # as a word, and its "[SEP]" or "[UNK]" is text that maps to no reserved id
        vocab = tk.build_vocab(["a <SEP> b [SEP] [UNK]"], "word", size_budget=50)
        assert vocab.tokens == tk.RESERVED + ("a", "<SEP>", "b")
        assert tk.encode_value(vocab, "a <SEP> [SEP] [PAD]") == [3, 4, tk.UNK_ID, tk.UNK_ID]
        for kind in ("char", "wordpiece"):
            vocab = tk.build_vocab(["<SEP> [SEP]"] * 3, kind, size_budget=50)
            assert vocab.tokens.count("[SEP]") == 1
            assert tk.SEP_ID not in tk.encode_value(vocab, "<SEP> [SEP]")


@st.composite
def word_freqs_and_budget(draw):
    # few letters, many repeats: score ties, overlapping merges ("aaaa") and
    # pairs that run out before the budget all come up often
    letters = "abcd"[: draw(st.integers(2, 4))]
    words = draw(st.dictionaries(
        st.text(st.sampled_from(letters), min_size=1, max_size=7),
        st.integers(1, 6), min_size=1, max_size=10,
    ))
    return Counter(words), draw(st.integers(0, 40))


@st.composite
def wide_word_freqs_and_budget(draw):
    # more letters, words and merges; in about half the cases frequencies
    # up to 2**40, so that part-count products pass 2**53 and the float
    # scores that shortlist the merge round
    letters = "abcdef"[: draw(st.integers(2, 6))]
    big = draw(st.booleans())
    words = draw(st.dictionaries(
        st.text(st.sampled_from(letters), min_size=1, max_size=12),
        st.integers(1, 2**40 if big else 6), min_size=1, max_size=30,
    ))
    return Counter(words), draw(st.integers(0, 120))


def pair_and_part_counts(splits, word_freqs):
    counts = Counter()
    for word, parts in splits.items():
        for key in [*parts, *zip(parts, parts[1:])]:
            counts[key] += word_freqs[word]
    return counts


class TestTrainWordpiece:
    def test_merge_is_left_to_right_without_overlap(self):
        assert tk._merge(["a", "##a", "##a"], "a", "##a") == ["aa", "##a"]
        assert tk._merge(["a", "##a", "##a", "##a"], "##a", "##a") == ["a", "##aa", "##a"]

    @given(word_freqs_and_budget())
    @settings(max_examples=300, deadline=None)
    def test_equals_full_recount_oracle(self, case):
        word_freqs, budget = case
        assert tk._train_wordpiece(word_freqs, budget) == oracle_train_wordpiece(
            word_freqs, budget
        )

    @given(wide_word_freqs_and_budget())
    @settings(max_examples=200, deadline=None)
    def test_equals_full_recount_oracle_wide(self, case):
        word_freqs, budget = case
        assert tk._train_wordpiece(word_freqs, budget) == oracle_train_wordpiece(
            word_freqs, budget
        )

    @given(wide_word_freqs_and_budget(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_merge_changes_equal_recount_difference(self, case, data):
        # the counts _merge reports at its merge sites are the difference of
        # a full recount before and after the merge
        word_freqs, _ = case
        splits = {w: [w[0]] + ["##" + c for c in w[1:]] for w in word_freqs}
        for _ in range(data.draw(st.integers(0, 4))):  # some words already merged
            parts = data.draw(st.sampled_from(sorted(splits.values())))
            if len(parts) > 1:
                at = data.draw(st.integers(0, len(parts) - 2))
                splits = {w: tk._merge(p, parts[at], parts[at + 1]) for w, p in splits.items()}
        pairs = sorted({pair for parts in splits.values() for pair in zip(parts, parts[1:])})
        if not pairs:
            return
        a, b = data.draw(st.sampled_from(pairs))
        changes: dict = {}
        merged = {w: tk._merge(p, a, b, changes, word_freqs[w]) for w, p in splits.items()}
        expected = pair_and_part_counts(merged, word_freqs)
        expected.subtract(pair_and_part_counts(splits, word_freqs))
        assert {k: d for k, d in changes.items() if d} == {k: d for k, d in expected.items() if d}

    def test_acceptance_vocab_pinned(self):
        # Pinned from oracle_train_wordpiece on the acceptance train split
        # (corpus seed 11, split seed 7), budget 1000, plus the reserved tokens.
        instances = ingest.generate_synthetic_corpus(ingest.DEFAULT_CLASS_SPEC, 200, seed=11)
        split = ingest.make_split(
            len(instances), seed=7, stratify_labels=[i.label for i in instances]
        )
        corpus = (" ".join(instances[i].values) for i in split.train)
        vocab = tk.build_vocab(corpus, "wordpiece", 1000)
        assert len(vocab) == 1000
        digest = hashlib.sha256("\n".join(vocab.tokens).encode()).hexdigest()
        assert digest == "46c01f257a3f82c716634333ac06457b7daaecc12842b98ff28bb71a839394c2"

    def test_large_corpus_vocab_pinned(self):
        # Pinned from oracle_train_wordpiece on the train split (split seed 7)
        # of 1000 columns per class at corpus seed 5: 5,238 distinct words,
        # budget 1000, plus the reserved tokens.
        instances = ingest.generate_synthetic_corpus(ingest.DEFAULT_CLASS_SPEC, 1000, seed=5)
        split = ingest.make_split(
            len(instances), seed=7, stratify_labels=[i.label for i in instances]
        )
        corpus = (" ".join(instances[i].values) for i in split.train)
        vocab = tk.build_vocab(corpus, "wordpiece", 1000)
        assert len(vocab) == 1000
        digest = hashlib.sha256("\n".join(vocab.tokens).encode()).hexdigest()
        assert digest == "fec689a52e058fccd5637292eec64b7c3f70ebc7cbe53e4d92a24824cb7752e7"


@functools.lru_cache(maxsize=None)
def acceptance_wordpiece():
    """The acceptance corpus's WordPiece vocabulary (budget 1000, as the
    benchmark trains it) and the corpus's distinct words, sorted."""
    instances = ingest.generate_synthetic_corpus(ingest.DEFAULT_CLASS_SPEC, 200, seed=11)
    texts = [" ".join(instance.values) for instance in instances]
    return tk.build_vocab(texts, "wordpiece", 1000), sorted({w for t in texts for w in t.split()})


DIGITS = "0123456789"


class TestWordpieceSearchBound:
    """A longest-match search begins vocab.longest characters past its start
    at most; the ids are those of a search begun at the word's end."""

    def test_longest_is_the_longest_learned_token(self):
        vocab = tk.Vocabulary("wordpiece", tk.RESERVED + ("ab", "##abc", "d"))
        assert vocab.longest == 5
        assert tk.Vocabulary("wordpiece", tk.RESERVED).longest == 0  # [PAD] is not learned
        assert vocab == tk.Vocabulary("wordpiece", vocab.tokens)  # not part of equality

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_unbounded_oracle_on_the_acceptance_vocab(self, data):
        vocab, words = acceptance_wordpiece()
        word = data.draw(st.one_of(
            st.sampled_from(words),
            st.text(st.sampled_from("aeiouxyzAZ09#-.éßжµ€ñ"), min_size=1, max_size=60),
            st.text(min_size=1, max_size=30),
            st.text(st.sampled_from(DIGITS), min_size=1, max_size=300),
        ))
        assert tk._wordpiece_word(vocab, word) == oracle_wordpiece_word(vocab.index, word)

    @given(st.lists(st.text(st.sampled_from("ab#é"), min_size=1, max_size=6), max_size=12),
           st.text(st.sampled_from("ab#é"), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_equals_unbounded_oracle_on_drawn_vocabularies(self, learned, word):
        vocab = tk.Vocabulary("wordpiece", tk.RESERVED + tuple(dict.fromkeys(
            t for t in learned if t not in tk.RESERVED)))
        assert tk._wordpiece_word(vocab, word) == oracle_wordpiece_word(vocab.index, word)

    def test_long_digit_word_is_fast(self):
        # the search begun at the word's end took 49.7 s on 8,000 digits
        vocab, _ = acceptance_wordpiece()
        word = "".join(np.random.default_rng(0).choice(list(DIGITS), size=20_000))
        t0 = time.perf_counter()
        ids = tk.encode_value(vocab, word)
        assert time.perf_counter() - t0 < 10.0
        assert "".join(vocab.tokens[i].removeprefix("##") for i in ids) == word


def tokens_of(vocab, seq):
    """The vocabulary tokens of a sequence's unmasked ids."""
    return [vocab.tokens[i] for i in seq.ids[: seq.attention_mask.sum()]]


class TestEncode:
    def test_wordpiece_greedy_longest_match(self):
        vocab = tk.Vocabulary("wordpiece", tk.RESERVED + ("play", "##ing", "##s"))
        seq = tk.encode(vocab, "playing", 8)
        assert seq.ids[:2].tolist() == [vocab.index["play"], vocab.index["##ing"]]

    def test_separator_contract(self):
        vocab = tk.Vocabulary("word", tk.RESERVED + ("a", "b"))
        seq = tk.encode(vocab, "a <SEP> b", 8)
        assert seq.ids[:3].tolist() == [vocab.index["a"], tk.SEP_ID, vocab.index["b"]]

    def test_empty_string(self):
        vocab = tk.Vocabulary("word", tk.RESERVED + ("a",))
        seq = tk.encode(vocab, "", 4)
        assert seq.ids.tolist() == [0, 0, 0, 0]
        assert seq.attention_mask.tolist() == [0, 0, 0, 0]

    def test_unknown_word_becomes_unk(self):
        vocab = tk.Vocabulary("wordpiece", tk.RESERVED + ("a", "##b"))
        seq = tk.encode(vocab, "axq", 4)
        assert seq.ids[0] == tk.UNK_ID
        assert seq.attention_mask.sum() == 1

    def test_char_round_trip(self):
        text = "LA CA AL"
        vocab = tk.build_vocab([text], "char", size_budget=50)
        seq = tk.encode(vocab, text, 32)
        assert "".join(tokens_of(vocab, seq)) == text

    def test_wordpiece_decode_round_trip(self):
        text = "playing played"
        vocab = tk.build_vocab([text] * 2, "wordpiece", size_budget=100)
        seq = tk.encode(vocab, text, 32)
        # "##" marks a piece that continues the word before it
        assert " ".join(tokens_of(vocab, seq)).replace(" ##", "") == text

    def test_prefix_stability(self):
        vocab = tk.build_vocab(["some words to tokenize here"], "wordpiece", 200)
        text = "some words to tokenize"
        short = tk.encode(vocab, text, 5)
        long = tk.encode(vocab, text, 11)
        assert short.ids.tolist() == long.ids[:5].tolist()

    @given(st.text(max_size=40), st.integers(min_value=1, max_value=24))
    @settings(max_examples=150, deadline=None)
    def test_mask_pad_consistency_fuzzed(self, text, max_len):
        vocab = tk.build_vocab(["abc def 123"], "wordpiece", 200)
        seq = tk.encode(vocab, text, max_len)
        assert len(seq.ids) == max_len
        non_pad = seq.ids != tk.PAD_ID
        # mask is 1 exactly on non-PAD positions, and padding is a suffix
        np.testing.assert_array_equal(seq.attention_mask.astype(bool), non_pad)
        assert seq.attention_mask.tolist() == sorted(seq.attention_mask, reverse=True)


class TestVocabularyFile:
    def test_reserved_required(self):
        with pytest.raises(ConfigError):
            tk.Vocabulary("word", ("a", "b", "c"))

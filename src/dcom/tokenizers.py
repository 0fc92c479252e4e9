"""Character, whitespace-word, and WordPiece tokenizers over a shared vocabulary.

All three kinds share the reserved ids [PAD]=0, [UNK]=1, [SEP]=2.  The
separator text produced by the augmentation stage always maps to the single
[SEP] id.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import SEP_TEXT, SEP_TOKEN, TOKENIZER_KINDS
from .errors import ConfigError

PAD, UNK, SEP = "[PAD]", "[UNK]", "[SEP]"
RESERVED = (PAD, UNK, SEP)
PAD_ID, UNK_ID, SEP_ID = 0, 1, 2


@dataclass(frozen=True)
class Vocabulary:
    kind: str
    tokens: tuple[str, ...]
    index: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.kind not in TOKENIZER_KINDS:
            raise ConfigError(f"unknown tokenizer kind {self.kind!r}")
        if self.tokens[:3] != RESERVED:
            raise ConfigError("vocabulary must start with [PAD], [UNK], [SEP]")
        if len(set(self.tokens)) != len(self.tokens):
            raise ConfigError("duplicate tokens in vocabulary")
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class TokenSequence:
    ids: np.ndarray
    attention_mask: np.ndarray


# ---------------------------------------------------------------------------
# Vocabulary construction


def _iter_words(corpus):
    for text in corpus:
        for word in text.split():
            if word != SEP_TOKEN:
                yield word


def _merge(parts: list[str], a: str, b: str) -> list[str]:
    """Merge every adjacent (a, b) in parts, left to right, without overlap.

    Merging (a, ##a) turns [a, ##a, ##a] into [aa, ##a]: the second ##a was
    already taken by the first merge, so it stays.
    """
    merged = a + b[2:]
    out = []
    i = 0
    while i < len(parts):
        if i + 1 < len(parts) and parts[i] == a and parts[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(parts[i])
            i += 1
    return out


def _count(parts: list[str], freq: int, part_freq: dict, pair_freq: dict) -> None:
    """Add freq (negative to subtract) to the counts of parts and their
    adjacent pairs, deleting every key whose count reaches 0."""
    for counts, keys in ((part_freq, parts), (pair_freq, zip(parts, parts[1:]))):
        for key in keys:
            n = counts.get(key, 0) + freq
            if n:
                counts[key] = n
            else:
                del counts[key]


def _train_wordpiece(word_freqs: Counter, budget: int) -> list[str]:
    """Greedy pair-merge WordPiece training (Schuster & Nakajima 2012).

    Words start as character splits (continuations prefixed "##"); the
    highest-scoring adjacent pair (pair frequency over the product of part
    frequencies, ties broken by the larger pair) is merged until the budget
    is reached or no pairs remain.

    The counts are kept incrementally, as in the BPE reference code of
    Sennrich et al. 2016 ("Neural Machine Translation of Rare Words with
    Subword Units"): part_freq and pair_freq are counted once, and `where`
    maps each pair to the words that hold it.  A merge re-splits only the
    words in where[best], subtracts their old part and pair counts, adds the
    new ones and drops keys that reach 0.  So before every merge the counts
    hold exactly the keys and values a full recount of every split would
    give, and the score and the (score, pair) max pick the same pair: the
    result equals that of recounting the corpus after each merge, token for
    token.  Word frequencies must be positive.
    """
    splits = {w: [w[0]] + ["##" + c for c in w[1:]] for w in word_freqs}
    vocab = sorted({piece for parts in splits.values() for piece in parts})
    part_freq: dict = {}
    pair_freq: dict = {}
    where: dict = {}
    for word, parts in splits.items():
        _count(parts, word_freqs[word], part_freq, pair_freq)
        for pair in zip(parts, parts[1:]):
            where.setdefault(pair, set()).add(word)
    while len(vocab) + len(RESERVED) < budget:
        if not pair_freq:
            break
        best = max(
            pair_freq,
            key=lambda p: (pair_freq[p] / (part_freq[p[0]] * part_freq[p[1]]), p),
        )
        a, b = best
        # no word holds `best` after its merge, so its index entry goes
        for word in where.pop(best):
            old = splits[word]
            new = splits[word] = _merge(old, a, b)
            freq = word_freqs[word]
            _count(old, -freq, part_freq, pair_freq)
            _count(new, freq, part_freq, pair_freq)
            old_pairs = set(zip(old, old[1:]))
            new_pairs = set(zip(new, new[1:]))
            for pair in old_pairs - new_pairs - {best}:
                holders = where[pair]
                holders.discard(word)
                if not holders:
                    del where[pair]
            for pair in new_pairs - old_pairs:
                where.setdefault(pair, set()).add(word)
        vocab.append(a + b[2:])
    return vocab


def build_vocab(corpus, kind: str, size_budget: int = 8000) -> Vocabulary:
    """Learn a vocabulary of at most size_budget tokens from an iterable of texts."""
    if kind not in TOKENIZER_KINDS:
        raise ConfigError(f"unknown tokenizer kind {kind!r}")
    texts = [t.replace(SEP_TEXT, " ") for t in corpus]
    if not texts:
        raise ConfigError("empty corpus")
    if kind == "char":
        counts = Counter(ch for t in texts for ch in t)
        if size_budget < len(RESERVED) + len(counts):
            raise ConfigError(
                f"budget {size_budget} below reserved + alphabet size {len(RESERVED) + len(counts)}"
            )
        learned = [c for c, _ in counts.most_common()]
    elif kind == "word":
        counts = Counter(_iter_words(texts))
        learned = [w for w, _ in counts.most_common(size_budget - len(RESERVED))]
    else:
        word_freqs = Counter(_iter_words(texts))
        alphabet_size = len({c for w in word_freqs for c in w})
        if size_budget < len(RESERVED) + alphabet_size:
            raise ConfigError(
                f"budget {size_budget} below reserved + alphabet size {len(RESERVED) + alphabet_size}"
            )
        learned = _train_wordpiece(word_freqs, size_budget)
    return Vocabulary(kind=kind, tokens=RESERVED + tuple(learned))


# ---------------------------------------------------------------------------
# Encoding


def _wordpiece_word(vocab: Vocabulary, word: str) -> list[int]:
    # Greedy longest-match-first; a word with any unmatched piece becomes [UNK].
    ids = []
    start = 0
    while start < len(word):
        end = len(word)
        piece_id = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = "##" + piece
            if piece in vocab.index:
                piece_id = vocab.index[piece]
                break
            end -= 1
        if piece_id is None:
            return [UNK_ID]
        ids.append(piece_id)
        start = end
    return ids


def encode_value(vocab: Vocabulary, value: str) -> list[int]:
    """Uncut ids of one SEP_TEXT-free segment of a text, such as a column value."""
    if vocab.kind == "char":
        return [vocab.index.get(c, UNK_ID) for c in value]
    ids = []
    for word in value.split():
        if word == SEP_TOKEN:
            ids.append(SEP_ID)
        elif vocab.kind == "word":
            ids.append(vocab.index.get(word, UNK_ID))
        else:
            ids.extend(_wordpiece_word(vocab, word))
    return ids


def encode(vocab: Vocabulary, text: str, max_len: int) -> TokenSequence:
    """Encode one text to a fixed-length, padded, masked id sequence."""
    ids: list[int] = []
    for i, segment in enumerate(text.split(SEP_TEXT)):
        if i > 0:
            ids.append(SEP_ID)
        ids.extend(encode_value(vocab, segment))
    ids = ids[:max_len]
    mask = [1] * len(ids) + [0] * (max_len - len(ids))
    ids = ids + [PAD_ID] * (max_len - len(ids))
    return TokenSequence(
        ids=np.asarray(ids, dtype=np.int64),
        attention_mask=np.asarray(mask, dtype=np.int64),
    )

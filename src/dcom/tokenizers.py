"""Character, whitespace-word, and WordPiece tokenizers over a shared vocabulary.

All three kinds share the reserved ids [PAD]=0, [UNK]=1, [SEP]=2.  The
separator text produced by the augmentation stage always maps to the single
[SEP] id.
"""

from __future__ import annotations

from collections import Counter, defaultdict
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


def _merge(parts: list[str], a: str, b: str, changes: dict | None = None, freq: int = 0) -> list[str]:
    """Merge every adjacent (a, b) in parts, left to right, without overlap.

    Merging (a, ##a) turns [a, ##a, ##a] into [aa, ##a]: the second ##a was
    already taken by the first merge, so it stays.

    With a `changes` dict, also add to it what the merge does to the counts
    of parts (str keys) and adjacent pairs (tuple keys), freq per merge site:
    a and b lose one each and the merged token gains one; (a, b) and the
    site's old neighbour pairs lose one and its new neighbour pairs gain one.
    A pair between two adjacent sites is counted once, by the left site.
    """
    merged = a + b[2:]
    n = len(parts)
    out: list[str] = []
    copied = 0  # parts[:copied] are already in out
    i = 0
    while True:
        try:
            i = parts.index(a, i, n - 1)  # an a with room for a b after it
        except ValueError:
            break
        if parts[i + 1] != b:
            i += 1
            continue
        if changes is not None:
            get = changes.get
            changes[a] = get(a, 0) - freq
            changes[b] = get(b, 0) - freq
            changes[merged] = get(merged, 0) + freq
            changes[a, b] = get((a, b), 0) - freq
            if i:
                if i == copied:
                    # touches the previous site, which already took (b, a)
                    pair = (merged, merged)
                else:
                    pair = (parts[i - 1], a)
                    changes[pair] = get(pair, 0) - freq
                    pair = (parts[i - 1], merged)
                changes[pair] = get(pair, 0) + freq
            if i + 2 < n:
                right = parts[i + 2]
                pair = (b, right)
                changes[pair] = get(pair, 0) - freq
                if not (right == a and i + 3 < n and parts[i + 3] == b):
                    pair = (merged, right)
                    changes[pair] = get(pair, 0) + freq
        out += parts[copied:i]
        out.append(merged)
        i = copied = i + 2
    out += parts[copied:]
    return out


# Relative float slack for the merge shortlist.  A float score is within a
# few ulps (~1e-15) of the exact score, so every pair whose exact key could
# win lies within this of the float max.
_SHORTLIST_RTOL = 1e-9


def _train_wordpiece(word_freqs: Counter, budget: int) -> list[str]:
    """Greedy pair-merge WordPiece training (Schuster & Nakajima 2012).

    Words start as character splits (continuations prefixed "##"); the
    highest-scoring adjacent pair (pair frequency over the product of part
    frequencies, ties broken by the larger pair) is merged until the budget
    is reached or no pairs remain.

    The counts are kept incrementally, as in the BPE reference code of
    Sennrich et al. 2016 ("Neural Machine Translation of Rare Words with
    Subword Units"), in two forms: exact int dicts (part_freq, pair_freq)
    and float arrays (`partf` by part id; `pf`, `left`, `right` by pair
    slot).  Before each merge one vectorized step scores every slot as
    pf / (partf[left] * partf[right]) and shortlists the slots within
    _SHORTLIST_RTOL of the float max.  The winner is the shortlist's max of
    the exact key (pair_freq[p] / (part_freq[a] * part_freq[b]), p), so
    ties and counts past 2**53 resolve as a full recount would resolve them.

    `where` maps each pair to a superset of the words that hold it.  A merge
    re-splits only the words in where[best]; `_merge` reports the count
    changes at each merge site, and only the nonzero net changes are applied
    to the dicts and arrays.  A pair whose count reaches 0 leaves the dicts,
    and its slot is freed.  So before every merge the dicts hold exactly the
    keys and values a full recount of every split would give: the result
    equals that of recounting the corpus after each merge, token for token.
    Word frequencies must be positive.
    """
    splits = {w: [w[0]] + ["##" + c for c in w[1:]] for w in word_freqs}
    vocab = sorted({piece for parts in splits.values() for piece in parts})
    part_freq: dict = {}
    pair_freq: dict = {}
    where = defaultdict(set)
    for word, parts in splits.items():
        freq = word_freqs[word]
        for part in parts:
            part_freq[part] = part_freq.get(part, 0) + freq
        for pair in zip(parts, parts[1:]):
            pair_freq[pair] = pair_freq.get(pair, 0) + freq
            where[pair].add(word)

    # Part id 0 is a dummy with count 1: freed slots point at it and score 0.
    part_id = {part: i for i, part in enumerate(part_freq, start=1)}
    partf = np.ones(len(part_id) + 1 + budget)
    for part, i in part_id.items():
        partf[i] = part_freq[part]
    slot_pair = list(pair_freq)
    slot_of = {pair: s for s, pair in enumerate(slot_pair)}
    capacity = max(16, 2 * len(slot_pair))
    pf = np.zeros(capacity)
    left = np.zeros(capacity, dtype=np.intp)
    right = np.zeros(capacity, dtype=np.intp)
    for s, (a, b) in enumerate(slot_pair):
        pf[s] = pair_freq[a, b]
        left[s] = part_id[a]
        right[s] = part_id[b]
    free: list[int] = []

    while len(vocab) + len(RESERVED) < budget:
        if not pair_freq:
            break
        m = len(slot_pair)
        scores = pf[:m] / (partf[left[:m]] * partf[right[:m]])
        top = scores.max()
        shortlist = np.flatnonzero(scores >= top * (1.0 - _SHORTLIST_RTOL))
        best = max(
            (slot_pair[s] for s in shortlist.tolist()),
            key=lambda p: (pair_freq[p] / (part_freq[p[0]] * part_freq[p[1]]), p),
        )
        a, b = best
        merged = a + b[2:]
        part_id.setdefault(merged, len(part_id) + 1)
        changes: dict = {}
        for word in where.pop(best):
            parts = splits[word]
            new = _merge(parts, a, b, changes, word_freqs[word])
            if len(new) == len(parts):
                continue  # a stale index entry: the word lost the pair earlier
            splits[word] = new
            for pair in zip(new, new[1:]):
                if merged in pair:
                    where[pair].add(word)
        for key, delta in changes.items():
            if not delta:
                continue
            if isinstance(key, str):
                count = part_freq[key] = part_freq.get(key, 0) + delta
                partf[part_id[key]] = count
                continue
            count = pair_freq.get(key, 0) + delta
            if count:
                pair_freq[key] = count
                s = slot_of.get(key)
                if s is None:
                    if free:
                        s = free.pop()
                        slot_pair[s] = key
                    else:
                        s = len(slot_pair)
                        slot_pair.append(key)
                        if s == len(pf):
                            pf, left, right = (
                                np.concatenate([arr, np.zeros_like(arr)])
                                for arr in (pf, left, right)
                            )
                    slot_of[key] = s
                    left[s] = part_id[key[0]]
                    right[s] = part_id[key[1]]
                pf[s] = count
            else:
                del pair_freq[key]
                where.pop(key, None)
                s = slot_of.pop(key)
                pf[s] = left[s] = right[s] = 0
                free.append(s)
        vocab.append(merged)
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
        alphabet = counts
    else:
        counts = Counter(_iter_words(texts))
        # a word vocabulary needs no alphabet: an unknown word is [UNK]
        alphabet = {c for w in counts for c in w} if kind == "wordpiece" else ()
    floor = len(RESERVED) + len(alphabet)
    if size_budget < floor:
        raise ConfigError(f"budget {size_budget} below reserved + alphabet size {floor}")
    if kind == "wordpiece":
        learned = _train_wordpiece(counts, size_budget)
    else:  # char keeps its whole alphabet, word its most common words
        learned = [t for t, _ in counts.most_common(size_budget - len(RESERVED))]
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

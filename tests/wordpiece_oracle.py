"""Reference WordPiece trainer and word encoder: the straight-line versions.

The trainer recounts, after every merge, every part and every adjacent pair
of every distinct word, and rewrites the split of every word.  Slow (one pass
over the corpus per merge) but short enough to check by eye.  Used as the
oracle for dcom.tokenizers._train_wordpiece, which must return the same token
list.

The encoder begins each longest-match search at the end of the word, so a
word that splits into many pieces costs about L**3 / 6 characters copied.
Used as the oracle for dcom.tokenizers._wordpiece_word, which must return the
same ids.
"""

from collections import Counter

N_RESERVED = 3  # [PAD], [UNK], [SEP] count against the budget
UNK_ID = 1


def oracle_train_wordpiece(word_freqs: Counter, budget: int) -> list[str]:
    splits = {w: [w[0]] + ["##" + c for c in w[1:]] for w in word_freqs}
    alphabet = sorted({piece for parts in splits.values() for piece in parts})
    vocab = list(alphabet)
    while len(vocab) + N_RESERVED < budget:
        part_freq: Counter = Counter()
        pair_freq: Counter = Counter()
        for word, freq in word_freqs.items():
            parts = splits[word]
            for part in parts:
                part_freq[part] += freq
            for a, b in zip(parts, parts[1:]):
                pair_freq[(a, b)] += freq
        if not pair_freq:
            break
        best = max(
            pair_freq,
            key=lambda p: (pair_freq[p] / (part_freq[p[0]] * part_freq[p[1]]), p),
        )
        a, b = best
        merged = a + b[2:]
        for word, parts in splits.items():
            out = []
            i = 0
            while i < len(parts):
                if i + 1 < len(parts) and parts[i] == a and parts[i + 1] == b:
                    out.append(merged)
                    i += 2
                else:
                    out.append(parts[i])
                    i += 1
            splits[word] = out
        vocab.append(merged)
    return vocab


def oracle_wordpiece_word(index: dict, word: str) -> list[int]:
    """Greedy longest-match-first over index (learned token -> id); a word
    with any unmatched piece becomes [UNK]."""
    ids = []
    start = 0
    while start < len(word):
        end = len(word)
        piece_id = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = "##" + piece
            if piece in index:
                piece_id = index[piece]
                break
            end -= 1
        if piece_id is None:
            return [UNK_ID]
        ids.append(piece_id)
        start = end
    return ids

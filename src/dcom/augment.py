"""Permutation-based input construction.

A column's values have no meaningful relative order, so instead of feeding
them in storage order we feed random ordered selections: either as one
sequence with [SEP] between values (single-sequence) or as a fixed number r of
parallel texts encoded with shared weights (multi-sequence).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_SLOTS, MULTI_MODES, PAD_VALUE, SEP_TEXT, ColumnInstance, TrainingConfig
from .errors import ConfigError

# Largest n for which exhaustive permutation enumeration is allowed.
MAX_ENUMERATE_N = 6


@dataclass(frozen=True)
class SingleSequenceSample:
    values: tuple[str, ...]

    @property
    def text(self) -> str:
        """The values joined for reading; a value may hold SEP_TEXT."""
        return SEP_TEXT.join(self.values)

    @property
    def r(self) -> int:
        return len(self.values)


@dataclass(eq=False)
class MultiSequenceSample:
    """r parallel slot texts: slot j < len(idx) holds column[idx[j]], and the
    slots after them are padding (pad mode with fewer values than slots).

    column is the column's values, shared by the samples drawn from it, and
    idx the real slots' value indices, a row of their draw; a multi sample's
    real slots are always a prefix.  values, texts and pad_mask spell the
    slots out, and two samples are equal when their values and r are.  Not
    frozen, as SingleSequenceSample is, because a frozen dataclass takes
    twice as long to build, and predict_many builds k per column.
    """

    column: tuple[str, ...]
    idx: tuple[int, ...]
    r: int

    @property
    def values(self) -> tuple[str, ...]:
        """The real slot texts."""
        return tuple(map(self.column.__getitem__, self.idx))

    @property
    def texts(self) -> tuple[str, ...]:
        """All r slot texts, the padded ones PAD_VALUE."""
        return self.values + (PAD_VALUE,) * (self.r - len(self.idx))

    @property
    def pad_mask(self) -> tuple[bool, ...]:
        """Per slot, whether it is real."""
        return (True,) * len(self.idx) + (False,) * (self.r - len(self.idx))

    def __eq__(self, other):
        if not isinstance(other, MultiSequenceSample):
            return NotImplemented
        return (self.values, self.r) == (other.values, other.r)

    def __hash__(self):
        return hash((self.values, self.r))


def sample_single(instance: ColumnInstance, rng, r=None) -> SingleSequenceSample:
    """Draw one random single-sequence sample.

    r defaults to a uniform draw from [1, n]; the selection is a uniformly
    random ordered r-subset of the values (no index used twice).
    """
    n = instance.n
    if r is None:
        r = int(rng.integers(1, n + 1))
    if not 1 <= r <= n:
        raise ConfigError(f"r={r} out of range [1, {n}]")
    idx = rng.permutation(n)[:r]
    return SingleSequenceSample(tuple(instance.values[i] for i in idx))


def enumerate_permutations(instance: ColumnInstance, r: int) -> list[SingleSequenceSample]:
    """All n!/(n-r)! ordered r-selections of the instance's values.

    Exhaustive, so refused for n > 6.
    """
    n = instance.n
    if n > MAX_ENUMERATE_N:
        raise ConfigError(f"enumeration limited to n <= {MAX_ENUMERATE_N}, got n={n}")
    if not 1 <= r <= n:
        raise ConfigError(f"r={r} out of range [1, {n}]")
    samples = [
        SingleSequenceSample(tuple(instance.values[i] for i in idx))
        for idx in itertools.permutations(range(n), r)
    ]
    assert len(samples) == math.perm(n, r)
    return samples


def sample_multi(instance: ColumnInstance, r: int, mode: str, rng,
                 k: int = 1) -> list[MultiSequenceSample]:
    """Draw k multi-sequence samples of the column, each with exactly r slots.

    If the column has at least r values, both modes place r distinct values in
    random order.  With fewer values, pad mode places all n in random order
    and leaves the last r - n slots padded; with_replacement mode draws r
    values uniformly with replacement.  The k samples are drawn in one rng
    call: rng.permuted over k rows of arange(n), each row cut to its first r
    (rng.permutation(n) when k is 1, the same draw by a shorter path), or
    rng.integers(0, n, size=(k, r)) in with_replacement mode below r values.
    That leaves the samples, and the rng, as k successive draws of one
    rng.permutation(n) or rng.integers(0, n, size=r) each would.  The samples
    share the column's values and hold their rows of the draw, as tuples of
    ints (MultiSequenceSample).
    """
    if r < 1:
        raise ConfigError("r must be >= 1")
    if r > MAX_SLOTS:
        raise ConfigError(f"r={r} exceeds the {MAX_SLOTS}-slot cap")
    if mode not in MULTI_MODES:
        raise ConfigError(f"unknown multi mode {mode!r}")
    if k < 1:
        raise ConfigError("k must be >= 1")
    n = instance.n
    if (n >= r or mode == "pad") and k == 1:
        return [MultiSequenceSample(instance.values, tuple(rng.permutation(n)[:r].tolist()), r)]
    if n >= r or mode == "pad":
        idx = rng.permuted(np.arange(n)[None].repeat(k, axis=0), axis=1)[:, :r]
    else:
        idx = rng.integers(0, n, size=(k, r))
    return [MultiSequenceSample(instance.values, tuple(row), r) for row in idx.tolist()]


def training_sample(instance: ColumnInstance, config: TrainingConfig, rng):
    """The sample a training epoch draws for one column under config: single
    mode a random-length selection, multi mode config.r slots filled as
    config.multi_mode says."""
    if config.mode == "single":
        return sample_single(instance, rng)
    return sample_multi(instance, config.r, config.multi_mode, rng)[0]


def inference_inputs(instance: ColumnInstance, config: TrainingConfig, k: int, rng):
    """Build the k inference-time samples for one column.

    k=1 single: one full random permutation (r = n).  Otherwise k independent
    training samples (training_sample): r re-drawn from [1, n] per sample in
    single mode, the trained r slots in multi mode (values truncated by random
    permutation prefix when n > r), all k drawn at once (sample_multi).
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if config.mode == "multi":
        return sample_multi(instance, config.r, config.multi_mode, rng, k)
    if k == 1:
        return [sample_single(instance, rng, r=instance.n)]
    return [sample_single(instance, rng) for _ in range(k)]

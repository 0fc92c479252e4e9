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


@dataclass(frozen=True)
class MultiSequenceSample:
    texts: tuple[str, ...]
    pad_mask: tuple[bool, ...]


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


def sample_multi(instance: ColumnInstance, r: int, mode: str, rng) -> MultiSequenceSample:
    """Draw one multi-sequence sample with exactly r slots.

    If the column has at least r values, both modes place r distinct values in
    random order.  With fewer values, pad mode fills the remaining slots with
    the empty marker (mask false); with_replacement mode draws r values
    uniformly with replacement.
    """
    if r < 1:
        raise ConfigError("r must be >= 1")
    if r > MAX_SLOTS:
        raise ConfigError(f"r={r} exceeds the {MAX_SLOTS}-slot cap")
    if mode not in MULTI_MODES:
        raise ConfigError(f"unknown multi mode {mode!r}")
    n = instance.n
    if n >= r:
        idx = rng.permutation(n)[:r]
        texts = tuple(instance.values[i] for i in idx)
        mask = (True,) * r
    elif mode == "pad":
        idx = rng.permutation(n)
        texts = tuple(instance.values[i] for i in idx) + (PAD_VALUE,) * (r - n)
        mask = (True,) * n + (False,) * (r - n)
    else:
        idx = rng.integers(0, n, size=r)
        texts = tuple(instance.values[int(i)] for i in idx)
        mask = (True,) * r
    return MultiSequenceSample(texts=texts, pad_mask=mask)


def training_sample(instance: ColumnInstance, config: TrainingConfig, rng):
    """The sample a training epoch draws for one column under config: single
    mode a random-length selection, multi mode config.r slots filled as
    config.multi_mode says."""
    if config.mode == "single":
        return sample_single(instance, rng)
    return sample_multi(instance, config.r, config.multi_mode, rng)


def inference_inputs(instance: ColumnInstance, config: TrainingConfig, k: int, rng):
    """Build the k inference-time samples for one column.

    k=1 single: one full random permutation (r = n).  Otherwise k independent
    training samples (training_sample): r re-drawn from [1, n] per sample in
    single mode, the trained r slots in multi mode (values truncated by random
    permutation prefix when n > r).
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k == 1 and config.mode == "single":
        return [sample_single(instance, rng, r=instance.n)]
    return [training_sample(instance, config, rng) for _ in range(k)]

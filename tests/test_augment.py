import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcom import augment
from dcom.core import SEP_TEXT, ColumnInstance, TrainingConfig, make_instance
from dcom.errors import ConfigError
from test_train import edge_value

DESCRIPTION = ColumnInstance(
    (
        "Deletes the property",
        "Lets you edit the value of the property",
        "Script execution will be stopped",
    )
)


class TestSampleSingle:
    def test_one_value(self):
        inst = ColumnInstance(("Deletes the property",))
        s = augment.sample_single(inst, np.random.default_rng(0))
        assert s.text == "Deletes the property"
        assert s.r == 1

    def test_segments_are_values(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = augment.sample_single(DESCRIPTION, rng)
            segments = s.text.split(SEP_TEXT)
            assert len(segments) == s.r
            assert len(set(segments)) == s.r  # no value index used twice
            for seg in segments:
                assert seg in DESCRIPTION.values

    def test_separator_count(self):
        rng = np.random.default_rng(2)
        s = augment.sample_single(DESCRIPTION, rng, r=3)
        assert s.text.count("<SEP>") == 2

    def test_deterministic_stream(self):
        rng = np.random.default_rng(7)
        a = [augment.sample_single(DESCRIPTION, rng) for _ in range(5)]
        rng = np.random.default_rng(7)
        b = [augment.sample_single(DESCRIPTION, rng) for _ in range(5)]
        assert a == b

    def test_frequency_uniformity(self):
        # every ordered pair of a 4-value instance occurs with near-equal
        # frequency over 1000 draws at r=2 (3 sigma of the multinomial)
        inst = ColumnInstance(("a", "b", "c", "d"))
        rng = np.random.default_rng(123)
        n_draws = 1000
        counts = Counter(
            augment.sample_single(inst, rng, r=2).text for _ in range(n_draws)
        )
        assert len(counts) == 12
        p = 1 / 12
        sigma = math.sqrt(n_draws * p * (1 - p))
        for text, count in counts.items():
            assert abs(count - n_draws * p) <= 3 * sigma, (text, count)


class TestEnumeratePermutations:
    def test_table_rows_r1(self):
        samples = augment.enumerate_permutations(DESCRIPTION, 1)
        assert [s.text for s in samples[:3]] == list(DESCRIPTION.values)

    def test_table_row_r2(self):
        texts = {s.text for s in augment.enumerate_permutations(DESCRIPTION, 2)}
        assert (
            "Deletes the property <SEP> Lets you edit the value of the property"
            in texts
        )

    def test_table_row_r3(self):
        texts = {s.text for s in augment.enumerate_permutations(DESCRIPTION, 3)}
        assert (
            "Deletes the property <SEP> Script execution will be stopped"
            " <SEP> Lets you edit the value of the property" in texts
        )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cardinality(self, n):
        inst = ColumnInstance(tuple(f"v{i}" for i in range(n)))
        for r in range(1, n + 1):
            samples = augment.enumerate_permutations(inst, r)
            assert len(samples) == math.perm(n, r)
            assert len({s.text for s in samples}) == len(samples)
            assert all(s.text.count("<SEP>") == r - 1 for s in samples)

    def test_size_guard(self):
        inst = ColumnInstance(tuple(str(i) for i in range(7)))
        with pytest.raises(ConfigError, match="n <= 6"):
            augment.enumerate_permutations(inst, 2)


class TestSampleMulti:
    def test_pad_mode(self):
        inst = ColumnInstance(("x", "y"))
        s = augment.sample_multi(inst, 4, "pad", np.random.default_rng(0))
        assert len(s.texts) == 4
        assert s.pad_mask == (True, True, False, False)
        assert set(s.texts[:2]) == {"x", "y"}
        assert s.texts[2:] == ("", "")

    def test_distinct_when_enough_values(self):
        inst = ColumnInstance(("a", "b", "c", "d", "e"))
        rng = np.random.default_rng(1)
        for _ in range(500):
            s = augment.sample_multi(inst, 3, "pad", rng)
            assert len(set(s.texts)) == 3
            assert s.pad_mask == (True, True, True)

    def test_with_replacement_single_value(self):
        inst = ColumnInstance(("only",))
        s = augment.sample_multi(inst, 3, "with_replacement", np.random.default_rng(2))
        assert s.texts == ("only",) * 3
        assert s.pad_mask == (True, True, True)

    def test_mask_sum(self):
        rng = np.random.default_rng(3)
        for n in (1, 3, 7):
            inst = ColumnInstance(tuple(str(i) for i in range(n)))
            s = augment.sample_multi(inst, 5, "pad", rng)
            assert sum(s.pad_mask) == min(n, 5)

    def test_slot_cap(self):
        inst = ColumnInstance(("a",))
        with pytest.raises(ConfigError, match="cap"):
            augment.sample_multi(inst, 1000, "pad", np.random.default_rng(0))


SINGLE = TrainingConfig(mode="single")


class TestInferenceInputs:
    def test_single_k1_full_permutation(self):
        samples = augment.inference_inputs(DESCRIPTION, SINGLE, 1, np.random.default_rng(0))
        assert len(samples) == 1
        assert samples[0].r == 3
        assert sorted(samples[0].text.split(SEP_TEXT)) == sorted(DESCRIPTION.values)

    def test_k10_count(self):
        samples = augment.inference_inputs(DESCRIPTION, SINGLE, 10, np.random.default_rng(0))
        assert len(samples) == 10

    def test_k10_single_value(self):
        inst = ColumnInstance(("solo",))
        samples = augment.inference_inputs(inst, SINGLE, 10, np.random.default_rng(0))
        assert all(s.text == "solo" for s in samples)

    def test_multi_truncates_to_r(self):
        inst = ColumnInstance(tuple(str(i) for i in range(8)))
        samples = augment.inference_inputs(
            inst, TrainingConfig(mode="multi", r=3), 1, np.random.default_rng(0)
        )
        assert len(samples[0].texts) == 3
        assert sum(samples[0].pad_mask) == 3


@given(values=st.lists(st.one_of(st.text(alphabet="<SEP>\\ a", max_size=12), edge_value),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
@example(values=["left <SEP> right", "plain"], seed=0)
@settings(max_examples=200, deadline=None)
def test_values_kept_as_given(values, seed):
    # a "<SEP>" inside a value is text: the column and its samples keep it
    inst = ColumnInstance(tuple(values))
    assert inst.values == tuple(values) == make_instance(values).values
    rng = np.random.default_rng(seed)
    samples = [augment.sample_single(inst, rng) for _ in range(5)]
    samples += [s for r in range(1, inst.n + 1) for s in augment.enumerate_permutations(inst, r)]
    for s in samples:
        # an ordered selection of the values as given, shown joined
        assert not Counter(s.values) - Counter(values)
        assert s.text == SEP_TEXT.join(s.values)
    multi = augment.sample_multi(inst, 3, "with_replacement", rng)
    assert set(multi.texts) <= set(values)

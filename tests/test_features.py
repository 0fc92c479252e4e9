import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcom.core import ColumnInstance
from dcom.errors import ConfigError
from dcom.features import FEATURE_NAMES, FeatureScaler, extract_features
from feature_oracle import oracle_features, random_column, reference_extract_features


def feat(values):
    return extract_features([ColumnInstance(tuple(values))])[0]


def by_name(vector):
    return dict(zip(FEATURE_NAMES, vector))


_VALUE = st.text(alphabet="ab1 9.-é٣\t", max_size=6)


def _column(n):
    """n values, drawn freely or from a pool of up to 3, so that values repeat."""
    return st.one_of(
        st.lists(_VALUE, min_size=n, max_size=n),
        st.lists(_VALUE, min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
    )


# Runs of 1-4 neighbouring columns with one value count each. Counts of 1,
# 2-7 and 8-300 cross numpy's 8-wide and 128-wide pairwise-sum blocks.
_RUN = st.tuples(st.one_of(st.just(1), st.integers(2, 7), st.integers(8, 300)),
                 st.integers(1, 4)).flatmap(
    lambda t: st.lists(_column(t[0]), min_size=t[1], max_size=t[1]))
_COLUMNS = st.lists(_RUN, max_size=12).map(lambda runs: [c for run in runs for c in run][:40])


class TestExtractFeatures:
    def test_digits_column(self):
        f = by_name(feat(["1", "2", "3"]))
        assert f["std_numeric_chars"] == 0.0
        assert f["mean_numeric_chars"] == 1.0
        assert f["frac_cells_numeric"] == 1.0
        assert f["frac_cells_alpha"] == 0.0
        assert f["number_of_values"] == 3
        assert f["sum_length"] == 3
        assert f["min_value_length"] == f["median_length"] == 1
        assert f["max_value_length"] == f["mode_length"] == 1
        assert f["entropy"] == pytest.approx(math.log2(3), abs=1e-12)
        assert f["mean_words"] == 1.0

    def test_single_empty_string(self):
        f = feat([""])
        assert np.all(f == np.array([0] * 10 + [1] + [0] * 8, dtype=float))

    def test_gender_column(self):
        f = by_name(feat(["F", "M"]))
        assert f["entropy"] == 1.0
        assert f["frac_cells_alpha"] == 1.0
        assert f["mean_alpha_chars"] == 1.0
        assert f["std_alpha_chars"] == 0.0

    def test_mode_tie_smallest(self):
        f = by_name(feat(["a", "bb"]))
        assert f["mode_length"] == 1.0

    def test_unicode_classes(self):
        # é is a letter, ٣ (Arabic-Indic three) a decimal digit, # special
        f = by_name(feat(["é٣#"]))
        assert f["mean_alpha_chars"] == 1.0
        assert f["mean_numeric_chars"] == 1.0
        assert f["mean_special_chars"] == 1.0

    def test_matches_oracle_on_random_columns(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            values = random_column(rng)
            got = feat(values)
            expected = oracle_features(values)
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        values = random_column(rng)
        shuffled = [values[i] for i in rng.permutation(len(values))]
        # bitwise equality is too strict: numpy reductions are order-sensitive
        # at the last ulp, so invariance holds to within 1e-12
        np.testing.assert_allclose(feat(values), feat(shuffled), atol=1e-12)

    @given(values=st.one_of(
        st.lists(st.text(max_size=12), min_size=1, max_size=20),
        # numpy sums 8 at a time in blocks of 128: cross both boundaries
        st.integers(8, 300).flatmap(lambda n: st.lists(
            st.text(alphabet="ab1 9.-é٣\t", max_size=6), min_size=n, max_size=n)),
    ))
    # a ColumnInstance stores <SEP> escaped as <\SEP>, and the features
    # measure the stored value
    @example(values=["<SEP>"])
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_per_count_reductions(self, values):
        # the stacked (5, n) reductions give what one 1-D reduction per count
        # gave, over the values the column stores
        stored = ColumnInstance(tuple(values)).values
        np.testing.assert_array_equal(feat(values), reference_extract_features(stored))

    @given(st.lists(st.text(max_size=12), min_size=1, max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_entropy_bounds_and_finiteness(self, values):
        f = by_name(feat(values))
        assert np.all(np.isfinite(feat(values)))
        assert 0.0 <= f["entropy"] <= math.log2(f["number_of_values"]) + 1e-12
        assert 0.0 <= f["frac_cells_alpha"] <= 1.0
        assert 0.0 <= f["frac_cells_numeric"] <= 1.0
        assert f["min_value_length"] <= f["median_length"] <= f["max_value_length"]


class TestBatchedPass:
    def test_no_columns(self):
        assert extract_features([]).shape == (0, len(FEATURE_NAMES))

    @given(columns=_COLUMNS, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_one_column_reference(self, columns, data):
        got = extract_features([ColumnInstance(tuple(v)) for v in columns])
        assert got.shape == (len(columns), len(FEATURE_NAMES))
        for row, values in zip(got, columns):
            np.testing.assert_array_equal(row, reference_extract_features(values))
        # a row does not depend on its neighbours
        order = data.draw(st.permutations(range(len(columns))))
        permuted = extract_features([ColumnInstance(tuple(columns[i])) for i in order])
        np.testing.assert_array_equal(permuted, got[list(order)])


class TestFeatureScaler:
    def test_two_point(self):
        rows = [np.zeros(19), np.full(19, 2.0)]
        scaler = FeatureScaler.fit(rows)
        np.testing.assert_array_equal(scaler.mean, np.ones(19))
        np.testing.assert_array_equal(scaler.std, np.ones(19))

    def test_single_row_zero_variance(self):
        row = np.arange(19, dtype=float)
        scaler = FeatureScaler.fit([row])
        np.testing.assert_array_equal(scaler.mean, row)
        np.testing.assert_array_equal(scaler.std, np.ones(19))

    def test_fit_transform_standardizes(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(40, 19)) * 3 + 5
        scaler = FeatureScaler.fit(rows)
        z = np.array([scaler.transform(r) for r in rows])
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_centering_and_unit_step(self):
        rng = np.random.default_rng(1)
        scaler = FeatureScaler.fit(rng.normal(size=(10, 19)))
        np.testing.assert_allclose(scaler.transform(scaler.mean), 0.0, atol=1e-12)
        np.testing.assert_allclose(
            scaler.transform(scaler.mean + scaler.std), 1.0, atol=1e-12
        )

    def test_empty_fit_rejected(self):
        with pytest.raises(ConfigError):
            FeatureScaler.fit(np.empty((0, 19)))

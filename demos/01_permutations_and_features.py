"""Tour of the two model inputs: permutation-constructed text samples and
the 19 engineered column statistics.

Run:  python3 demos/01_permutations_and_features.py
"""

import numpy as np

from dcom.augment import enumerate_permutations, sample_multi, sample_single
from dcom.core import ColumnInstance
from dcom.features import FEATURE_NAMES, extract_features

# A small "description"-style column.  The classifier never sees the column
# header, only the cell values.
column = ColumnInstance(
    (
        "Deletes the property",
        "Lets you edit the value of the property",
        "Script execution will be stopped",
    ),
    label="description",
)

print("== Text input: ordered permutations joined with ' <SEP> ' ==")
for r in (1, 2, 3):
    samples = enumerate_permutations(column, r)
    print(f"r={r}: {len(samples)} possible samples, e.g.")
    for s in samples[:2]:
        print(f"   {s.text!r}")

print("\n== Random draws (what training actually consumes) ==")
rng = np.random.default_rng(0)
for _ in range(3):
    s = sample_single(column, rng)
    print(f"r={s.r}: {s.text!r}")

print("\n== Multi-sequence construction: fixed slot count, padding mask ==")
[m] = sample_multi(column, r=5, mode="pad", rng=rng)
for text, used in zip(m.texts, m.pad_mask):
    print(f"   mask={used} text={text!r}")

print("\n== The 19 engineered statistics ==")
vec = extract_features([column])[0]
for name, value in zip(FEATURE_NAMES, vec):
    print(f"   {name:35s} {value:.4f}")

"""Seeded generator of WBC-format input files for the benchmark.

Each row is ``sample_id,a1,...,a9,class`` with attributes in 1..10 and
class 2 (normal) or 4 (anomalous), like the UCI breast-cancer-wisconsin
distribution: about 65.5% of rows are class 2, class-2 rows skew to low
attribute values and class-4 rows to high ones, and missing markers
(``?``) sit in the sixth attribute.
"""

from __future__ import annotations

import itertools
import random

ATTRIBUTES = 9
NORMAL_SHARE = 458 / 699
MISSING_COLUMN = 5
_VALUES = [str(v) for v in range(1, 11)]
_LOW_CUM = list(itertools.accumulate([30, 22, 15, 10, 8, 5, 4, 3, 2, 1]))
_HIGH_CUM = list(itertools.accumulate([1, 2, 3, 4, 6, 9, 12, 15, 20, 28]))


def wbc_lines(rows: int, missing_rate: float, seed: int) -> list[str]:
    """``rows`` WBC-format lines; each row has a ``?`` with probability ``missing_rate``."""
    rng = random.Random(seed)
    lines = []
    sample_id = 1_000_000
    for _ in range(rows):
        sample_id += rng.randint(13, 4000)
        normal = rng.random() < NORMAL_SHARE
        attrs = rng.choices(_VALUES, cum_weights=_LOW_CUM if normal else _HIGH_CUM, k=ATTRIBUTES)
        if rng.random() < missing_rate:
            attrs[MISSING_COLUMN] = "?"
        lines.append(f"{sample_id},{','.join(attrs)},{2 if normal else 4}")
    return lines

"""A synthetic stand-in for the UCI breast-cancer-wisconsin file.

Standard library only, so that both the pytest suite (through
``conftest.py``) and ``tests/identity.py``, which runs without pytest,
can import it.
"""

from __future__ import annotations

import random
from pathlib import Path


def write_wbc_like_file(path: Path, seed: int = 7) -> None:
    """A structure-matched stand-in for the UCI file: 699 rows, 16 with '?'.

    Benign rows skew to low attribute values and malignant rows to high,
    mirroring the real dataset's shape (458 class-2 rows, 241 class-4 rows,
    all missing markers in the sixth attribute). Values are synthetic.
    """
    rng = random.Random(seed)
    low_weights = [30, 22, 15, 10, 8, 5, 4, 3, 2, 1]
    high_weights = [1, 2, 3, 4, 6, 9, 12, 15, 20, 28]
    labels = [2] * 458 + [4] * 241
    rng.shuffle(labels)
    benign_missing = 14
    malignant_missing = 2
    missing_rows = set()
    benign_positions = [i for i, c in enumerate(labels) if c == 2]
    malignant_positions = [i for i, c in enumerate(labels) if c == 4]
    missing_rows.update(rng.sample(benign_positions, benign_missing))
    missing_rows.update(rng.sample(malignant_positions, malignant_missing))

    sample_id = 1_000_000
    lines = []
    for i, class_code in enumerate(labels):
        sample_id += rng.randint(13, 4000)
        weights = low_weights if class_code == 2 else high_weights
        attrs = [str(rng.choices(range(1, 11), weights=weights)[0]) for _ in range(9)]
        if i in missing_rows:
            attrs[5] = "?"
        lines.append(f"{sample_id},{','.join(attrs)},{class_code}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

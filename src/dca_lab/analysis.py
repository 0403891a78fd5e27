"""MCAV aggregation: histogram, confusion counts and accuracy metrics.

This is the statistical-analyser half of the protocol: it never touches
agents, only the per-antigen classification results. Anomalous is the
positive class throughout. Rates with a zero denominator are reported as
None, never silently coerced to 0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple

from .agents import Category


class ClassificationResult(NamedTuple):
    """One antigen's outcome; a NamedTuple, since a run builds one per record."""

    antigen_id: int
    mcav: float
    predicted: str
    actual: str


class MCAVHistogram(NamedTuple):
    """Equal-width histogram over [0, 1]; the top bin is right-closed."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]


class ConfusionCounts(NamedTuple):
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


class Metrics(NamedTuple):
    accuracy: float
    true_positive_rate: float | None
    false_positive_rate: float | None
    mean_mcav_normal: float | None
    mean_mcav_anomalous: float | None


def build_histogram(mcavs, bins: int) -> MCAVHistogram:
    """Bin MCAVs into ``bins`` equal-width bins over [0, 1].

    A value v falls in the bin i with edges[i] <= v < edges[i + 1], where
    edges[i] = i / bins as a float, and v = 1.0 falls in the last bin, so
    a value always lands between the bounds ``histogram.csv`` prints for
    its bin. (``int(v * bins)`` does not: 7/10 * 90 rounds to 62.99...)
    ``mcavs`` is any iterable; each distinct value is checked and binned once.
    """
    if bins < 1:
        raise ValueError(f"bin count must be >= 1, got {bins}")
    edges = tuple(i / bins for i in range(bins + 1))
    counts = [0] * bins
    for v, n in Counter(mcavs).items():
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"MCAV {v} outside [0, 1]")
        counts[min(bisect_right(edges, v) - 1, bins - 1)] += n
    return MCAVHistogram(edges=edges, counts=tuple(counts))


def _mean(counts: Counter) -> float | None:
    """The mean of the counted values: ``math.fsum`` over each value repeated by its count."""
    if not counts:
        return None
    return math.fsum(chain.from_iterable(map(repeat, counts, counts.values()))) / counts.total()


def compute_metrics(results) -> tuple[ConfusionCounts, Metrics]:
    """Confusion counts, accuracy, guarded rates, and per-class mean MCAVs.

    Each distinct (mcav, predicted, actual) is counted once. The means are
    bit-identical to ``fsum`` over the plain per-result list: fsum rounds the
    exact sum once, so neither the order nor the grouping of the values
    matters, and it never returns -0.0, so a 0.0 counted with a -0.0 is no
    change either.
    """
    if not results:
        raise ValueError("no classification results to score")

    tp = tn = fp = fn = 0
    normal_mcavs: Counter = Counter()
    anomalous_mcavs: Counter = Counter()
    for (mcav, predicted, actual), n in Counter(map(attrgetter("mcav", "predicted", "actual"), results)).items():
        if actual == Category.ANOMALOUS:
            anomalous_mcavs[mcav] += n
            if predicted == Category.ANOMALOUS:
                tp += n
            else:
                fn += n
        else:
            normal_mcavs[mcav] += n
            if predicted == Category.ANOMALOUS:
                fp += n
            else:
                tn += n

    confusion = ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
    metrics = Metrics(
        accuracy=(tp + tn) / confusion.total,
        true_positive_rate=tp / (tp + fn) if tp + fn else None,
        false_positive_rate=fp / (fp + tn) if fp + tn else None,
        mean_mcav_normal=_mean(normal_mcavs),
        mean_mcav_anomalous=_mean(anomalous_mcavs),
    )
    return confusion, metrics

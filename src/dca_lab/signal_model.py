"""Signal derivation and the DC signal-processing step.

Normalized attributes in [0,1] are mapped onto three input signals
(PAMP, danger, safe) on a 0-100 scale, which a 3x3 weight matrix fuses
into the costimulation (csm), semimature (semi) and mature (mat) output
signals that dendritic cells accumulate between picks. Both triples are
plain float tuples, in that order. Derivation is arithmetic only:
``engine.run`` checks the attributes and the mapping once per run.

Floating-point note: every reduction here is a plain left-to-right sum,
which is what makes engine runs bit-for-bit reproducible against the
straight-line reference implementation used in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .schema import Field, InvalidConfigError, check, rows

#: Input signals live on [0, SIGNAL_SCALE]. The scale is arbitrary; it only
#: gives migration thresholds an intuitive magnitude.
SIGNAL_SCALE = 100.0
#: Largest |weight|. The attributes ``engine.run`` accepts give input
#: signals within [0, 100], so a pick adds at most 300 * MAX_WEIGHT to a
#: DC's sums and no run over a record count that fits in memory can reach
#: the float maximum (about 1.8e308) and turn a sum into inf or nan.
MAX_WEIGHT = 1e100


class CumulativeSignals(NamedTuple):
    """Running totals of the output signals over a DC's sampled antigens."""

    cum_csm: float = 0.0
    cum_semi: float = 0.0
    cum_mat: float = 0.0


_SOURCES = {"row": Field(int, length=...)}


@dataclass(frozen=True)
class SignalMapping:
    """Which attribute indices feed each input signal.

    With ``safe_is_complement`` (the default) the safe signal is
    ``100 * (1 - mean)``, so low attribute values read as evidence of
    normality while high values suppress the safe signal.
    """

    pamp_sources: tuple[int, ...] = field(metadata=_SOURCES)
    danger_sources: tuple[int, ...] = field(metadata=_SOURCES)
    safe_sources: tuple[int, ...] = field(metadata=_SOURCES)
    safe_is_complement: bool = field(default=True, metadata={"row": Field(bool)})

    def __post_init__(self):
        check(self)
        for name in ("pamp_sources", "danger_sources", "safe_sources"):
            sources = getattr(self, name)
            if not sources:
                raise InvalidConfigError(f"{name} must list at least one attribute index")
            if min(sources) < 0:
                raise InvalidConfigError(f"{name} contains negative index {min(sources)}")


_WEIGHTS = {"row": Field(float, -MAX_WEIGHT, MAX_WEIGHT, length=3)}


@dataclass(frozen=True)
class WeightMatrix:
    """Per-signal weights onto (csm, semi, mat).

    The csm column (first entry of every row) must be nonnegative so that
    cumulative csm never decreases and migration stays reachable.
    """

    pamp: tuple[float, float, float] = field(metadata=_WEIGHTS)
    danger: tuple[float, float, float] = field(metadata=_WEIGHTS)
    safe: tuple[float, float, float] = field(metadata=_WEIGHTS)

    def __post_init__(self):
        check(self)
        for name in rows(self):
            csm = getattr(self, name)[0]
            if csm < 0.0:
                raise InvalidConfigError(f"{name}[0], the csm weight, must be nonnegative, got {csm}")


#: Shipped default weights. These are a documented default, not a fitted
#: value: PAMP and danger push toward maturity, safe drives semimaturity and
#: suppresses maturity, and the csm column stays nonnegative.
DEFAULT_WEIGHT_MATRIX = WeightMatrix(
    pamp=(2.0, 0.0, 2.0),
    danger=(1.0, 0.0, 1.0),
    safe=(2.0, 3.0, -3.0),
)


def default_signal_mapping() -> SignalMapping:
    """Neutral mapping: every one of the dataset's nine attributes feeds every signal, safe complemented."""
    everything = tuple(range(9))
    return SignalMapping(everything, everything, everything, safe_is_complement=True)


def _source_mean(attributes: Sequence[float], sources: tuple[int, ...]) -> float:
    # Left-to-right sum, not sum(): the reference implementation mirrors this
    # exactly, and sum() rounds differently from Python 3.12 on.
    total = 0.0
    for idx in sources:
        total += attributes[idx]
    return total / len(sources)


def derive_input_signals(attributes: Sequence[float], mapping: SignalMapping) -> tuple[float, float, float]:
    """Map a record's [0,1] attributes to (pamp, danger, safe) on [0, 100].

    pamp and danger are 100 times the mean of their source attributes; safe
    is the same unless the mapping complements it, in which case it is
    ``100 * (1 - mean)``.

    Each distinct source list's mean is computed once: the default mapping
    feeds all three signals from the same list. Nothing is checked: the
    caller (``engine.run``) has proved that the mapping fits and that the
    attributes lie in [0, 1]. A bad index raises ``IndexError``.
    """
    pamp_sources = mapping.pamp_sources
    danger_sources = mapping.danger_sources
    safe_sources = mapping.safe_sources
    pamp_mean = _source_mean(attributes, pamp_sources)
    if danger_sources == pamp_sources:
        danger_mean = pamp_mean
    else:
        danger_mean = _source_mean(attributes, danger_sources)
    if safe_sources == pamp_sources:
        safe_mean = pamp_mean
    elif safe_sources == danger_sources:
        safe_mean = danger_mean
    else:
        safe_mean = _source_mean(attributes, safe_sources)
    if mapping.safe_is_complement:
        safe_mean = 1.0 - safe_mean
    return SIGNAL_SCALE * pamp_mean, SIGNAL_SCALE * danger_mean, SIGNAL_SCALE * safe_mean


def process_signals(inputs: tuple[float, float, float], weights: WeightMatrix) -> tuple[float, float, float]:
    """Plain weighted sum of (pamp, danger, safe), one output per matrix column: (csm, semi, mat)."""
    pamp, danger, safe = inputs
    csm = weights.pamp[0] * pamp + weights.danger[0] * danger + weights.safe[0] * safe
    semi = weights.pamp[1] * pamp + weights.danger[1] * danger + weights.safe[1] * safe
    mat = weights.pamp[2] * pamp + weights.danger[2] * danger + weights.safe[2] * safe
    return csm, semi, mat

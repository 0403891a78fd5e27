"""The Antigen and DC agents and their decision rules.

Antigen agents stand for one data record each and count one context bit
per DC that sampled them; DC agents fuse signals from picked antigens until
their cumulative csm exceeds an individually assigned migration threshold,
then vote 0 (semimature) or 1 (mature) to every antigen they sampled.
No agent owns a thread.

The engine calls ``sample_dcs``, ``dc_handle_picked`` and
``antigen_handle_context`` once per tick, pick and bit. It applies the
three decision rules inline, as the strict comparisons written in
``dc_should_migrate``, ``dc_decide_context`` and ``classify_antigen``.
Those three, ``compute_mcav``, ``DCAgent.cum`` and
``signal_model.CumulativeSignals`` are the reference API that acceptance
criteria 5 (decision rules) and 6 (MCAV definition) test; they are kept
as that fixed contract, and the engine tests check that the inline rules
agree with them at the ties.
"""

from __future__ import annotations

import random
from typing import Sequence

from .signal_model import CumulativeSignals


class Category:
    """The two labels, as the output files print them. Anomalous is the positive class."""

    NORMAL = "normal"
    ANOMALOUS = "anomalous"


class DCAgent:
    """A data processor: accumulates signals over picks until it migrates.

    The cumulative csm, semi and mat sums are plain floats that each pick
    adds to in place; ``cum`` views them as one ``CumulativeSignals``.
    ``sampled`` records the antigen ids of every handled pick, in order,
    duplicates allowed; each occurrence earns its own context bit. The
    engine reuses a migrated DC's slot for its replacement, with a fresh
    id, threshold, zeroed sums and an emptied ``sampled`` list.

    ``id_text`` is ``str(dc_id)`` for trace rows in a traced run, made
    when the DC gets its id, and None in an untraced run.
    """

    __slots__ = ("dc_id", "migration_threshold", "cum_csm", "cum_semi", "cum_mat", "sampled", "id_text")

    def __init__(self, dc_id: int, migration_threshold: float, cum_csm: float = 0.0, cum_semi: float = 0.0,
                 cum_mat: float = 0.0, sampled: list[int] | None = None, id_text: str | None = None):
        self.dc_id = dc_id
        self.migration_threshold = migration_threshold
        self.cum_csm, self.cum_semi, self.cum_mat = cum_csm, cum_semi, cum_mat
        self.sampled = [] if sampled is None else sampled
        self.id_text = id_text

    @property
    def cum(self) -> CumulativeSignals:
        return CumulativeSignals(self.cum_csm, self.cum_semi, self.cum_mat)

    @cum.setter
    def cum(self, value: CumulativeSignals) -> None:
        self.cum_csm, self.cum_semi, self.cum_mat = value


class AntigenAgent:
    """One record in flight, awaiting one context bit per DC pick.

    ``received`` counts the bits that have arrived and ``ones`` those equal
    to 1. The engine keys each one by its antigen id. ``id_text`` is
    ``str`` of that id for trace rows in a traced run, made at the
    antigen's spawn, and None in an untraced run.
    """

    __slots__ = ("true_label", "expected_contexts", "id_text", "received", "ones")

    def __init__(self, true_label: str, expected_contexts: int, id_text: str | None = None,
                 received: int = 0, ones: int = 0):
        self.true_label = true_label
        self.expected_contexts = expected_contexts
        self.id_text = id_text
        self.received = received
        self.ones = ones


def sample_dcs(n: int, k: int, rng: random.Random) -> list[int]:
    """Draw a uniform k-subset of the positions ``range(n)``, in selection order.

    A partial Fisher-Yates shuffle that keeps only the swapped slots in a
    dict, so a draw costs O(k) whatever the population size, with the same
    picks as the dense shuffle of ``list(range(n))``. Pick i is drawn below
    ``size = n - i`` as ``rng.randrange(size)`` draws it today, from
    ``getrandbits``, whose output Python keeps stable: ``size.bit_length()``
    bits, redrawn until the value is below ``size``. So the picks and the
    generator state after them are those of k ``randrange`` calls, and
    replaying the same generator state reproduces the same picks.
    """
    if k < 0:
        raise ValueError(f"sample size must be nonnegative, got {k}")
    if k > n:  # a draw below 0 would never end
        raise ValueError(f"cannot pick {k} distinct DCs from a population of {n}")
    getrandbits = rng.getrandbits
    # swapped[p] is the slot now at p, for slots >= i moved by an earlier swap.
    swapped: dict[int, int] = {}
    picked = []
    for i in range(k):
        size = n - i
        bits = size.bit_length()
        r = getrandbits(bits)
        while r >= size:
            r = getrandbits(bits)
        j = i + r
        picked.append(swapped.get(j, j))
        swapped[j] = swapped.pop(i, i)
    return picked


def dc_handle_picked(dc: DCAgent, antigen_id: int, out: tuple[float, float, float]) -> None:
    """Process one pick: record the antigen and add its (csm, semi, mat) in place.

    Each of the three sums gets one addition per pick, in pick order, so
    a sum is a left-to-right fold over the DC's picks.
    """
    csm, semi, mat = out
    dc.sampled.append(antigen_id)
    dc.cum_csm += csm
    dc.cum_semi += semi
    dc.cum_mat += mat


def dc_should_migrate(dc: DCAgent) -> bool:
    """True iff cumulative csm strictly exceeds the migration threshold. Reference rule; ``engine.step`` inlines it."""
    return dc.cum_csm > dc.migration_threshold


def dc_decide_context(dc: DCAgent) -> tuple[str, int]:
    """Differentiation decision on the current cumulative values.

    Returns the state a voting DC takes, named as ``trace.csv`` prints it,
    and its context bit: semimature (0) iff cum_semi > cum_mat, ties go to
    mature (1). A DC is immature until it votes, and is reset as a new
    immature DC right after, so no state is stored. Reference rule:
    ``engine._vote`` inlines it.
    """
    if dc.cum_semi > dc.cum_mat:
        return "semimature", 0
    return "mature", 1


def antigen_handle_context(ag: AntigenAgent, bit: int) -> float | None:
    """Count one context bit; return the MCAV, ones / received, on the last bit and None before it."""
    ag.received += 1
    ag.ones += bit
    if ag.received == ag.expected_contexts:
        return ag.ones / ag.received
    return None


def compute_mcav(contexts: Sequence[int]) -> float:
    """Fraction of context bits equal to 1: the antigen's anomaly probability. Reference definition."""
    if not contexts:
        raise ValueError("MCAV needs at least one context")
    return sum(contexts) / len(contexts)


def classify_antigen(mcav: float, anomalous_threshold: float) -> str:
    """Anomalous iff mcav strictly exceeds the threshold. Reference rule; ``engine._vote`` inlines it."""
    return Category.ANOMALOUS if mcav > anomalous_threshold else Category.NORMAL

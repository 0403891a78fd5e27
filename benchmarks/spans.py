"""In-memory span recorder, and patching that puts it around a package's functions.

A span is (name, start, end, parent): the wrapped call's name, its
``perf_counter`` start and end, and the span that was open when it began.
Spans go into flat arrays while the program runs, so recording allocates
no per-span objects; ``summary`` derives each name's call count, total
time and self time (time minus the time of its child spans) afterwards.
"""

from __future__ import annotations

import time
from array import array


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.counts: dict[str, int] = {}
        self._name_of = array("l")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._open = [-1]

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records one span called ``name``."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_of, parent, start, end, open_spans = (
            self._name_of, self._parent, self._start, self._end, self._open
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(end)
            name_of.append(name_id)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_spans.pop()

        return wrapper

    def count(self, name: str, fn):
        """``fn`` wrapped so that every call increments ``counts[name]``."""
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        start, end, parent = self._start, self._end, self._parent
        child_time = [0.0] * len(end)
        for i, p in enumerate(parent):
            if p >= 0:
                child_time[p] += end[i] - start[i]
        totals = {name: [0, 0.0, 0.0] for name in self.names}
        for i, name_id in enumerate(self._name_of):
            duration = end[i] - start[i]
            entry = totals[self.names[name_id]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_time[i]
        return {name: tuple(v) for name, v in totals.items()}

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``, in start order."""
        if name not in self.names:
            return []
        name_id = self.names.index(name)
        return [
            self._end[i] - self._start[i]
            for i, n in enumerate(self._name_of)
            if n == name_id
        ]


class Patches:
    """Replaces functions in place and puts every original back on ``restore``.

    ``wrap(owner, attr, make)`` swaps ``owner.attr`` for ``make(original)``,
    and does the same in each module of ``modules`` that imported the same
    object by name, so calls through either name are seen. It returns False,
    changing nothing, when ``owner`` has no such attribute.
    """

    def __init__(self, modules) -> None:
        self._modules = list(modules)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> bool:
        original = owner.__dict__.get(attr)
        if original is None:
            return False
        wrapped = make(original)
        for holder in [owner, *self._modules]:
            if holder.__dict__.get(attr) is original:
                setattr(holder, attr, wrapped)
                self._undo.append((holder, attr, original))
        return True

    def restore(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

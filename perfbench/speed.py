"""Machine-speed reference for steadier timings on a shared machine.

The speed of a shared virtual CPU drifts by up to 2x over tens of seconds,
and CPU time drifts with wall time, so medians of raw wall times differ
from run to run by more than any useful bound. The benchmark therefore times
this fixed loop right before and right after every op and reports the op at
nominal speed: its wall time times NOMINAL_S over the mean of the two
reference timings. Program changes move the op and not the loop, so they
still show in full; drift that slows both cancels. The loop does the same
kind of work as actool's hot paths: attribute reads, string compares, dict
lookups and small allocations.
"""

from __future__ import annotations

from time import perf_counter

# The loop's time on an unloaded 2-vCPU VM with Python 3.11; scaled times are
# "seconds on a machine where the loop takes this long".
NOMINAL_S = 0.002


class _Item:
    def __init__(self, i: int):
        self.source = f"C{i:05d}"
        self.target = f"C{(i * 7) % 3000:05d}"
        self.kind = i % 3


_ITEMS = [_Item(i) for i in range(3000)]
_INDEX = {item.source: item for item in _ITEMS}


def reference_s() -> float:
    """Wall time of one pass of the fixed reference loop."""
    start = perf_counter()
    hits = []
    for round_ in range(12):
        key = f"C{round_ * 211:05d}"
        for item in _ITEMS:
            if item.source != key and item.kind == 1:
                target = _INDEX.get(item.target)
                if target is not None and target.kind == 2:
                    hits.append((item.source, target.source))
    return perf_counter() - start


def scaled(seconds: float, before_s: float, after_s: float) -> float:
    """`seconds` of wall time at nominal speed, given the reference timings
    taken just before and just after it."""
    return seconds * NOMINAL_S / ((before_s + after_s) / 2)

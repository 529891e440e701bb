"""Seeded request stream of the ``service_mix`` workload (stdlib only).

One epoch is 81 bursts in four segments, with a service restart on the
same cache directory between segments.  Every burst is a tau sweep
(``TAUS``, k=16) on one key ``(suite, scale, method)``:

- ``N`` starts a new key: one miss, two batched requests, a memory and a
  disk store;
- ``R`` repeats a key held in memory: one hit, two dominated hits;
- ``D`` repeats a key stored before the last restart and not yet served
  since: one disk hit, then a dominated hit and a hit from the promoted
  entry.

The 27 keys fall into three groups of nine.  A group's keys start and are
repeated from memory in one segment and repeated from disk in the next,
so every key gets exactly one ``N``, one ``R`` and one ``D`` burst per
epoch.  The seed only assigns keys to groups and interleaves the bursts
of each segment: every seed does the same solve, hit and disk work, and
the four cache ratios are fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SUITES = ("M2", "M4", "M6")
SCALES = (0.4, 0.6, 0.8)
METHODS = ("ilut", "lu", "randqb")
#: One burst: loosest first, so the tightest request leads the batch.
TAUS = (1e-1, 5e-2, 2e-2)
GROUPS = 3

#: Expected cache outcome of each request of a burst, in ``TAUS`` order.
OUTCOMES = {
    "N": ("batched", "batched", "miss"),
    "R": ("dominated", "dominated", "hit"),
    "D": ("disk", "dominated", "hit"),
}


@dataclass(frozen=True)
class Burst:
    kind: str                  # "N", "R" or "D"
    key: tuple                 # (suite, scale, method)
    segment: int

    @property
    def outcomes(self) -> tuple[str, ...]:
        return OUTCOMES[self.kind]


def all_keys() -> list[tuple]:
    return [(s, sc, m) for s in SUITES for sc in SCALES for m in METHODS]


def epoch(seed: int) -> list[Burst]:
    """The bursts of one epoch; the service restarts wherever
    ``segment`` changes."""
    rng = random.Random(seed)
    keys = all_keys()
    rng.shuffle(keys)
    per = len(keys) // GROUPS
    groups = [keys[i * per:(i + 1) * per] for i in range(GROUPS)] + [[]]
    bursts: list[Burst] = []
    for seg, group in enumerate(groups):
        # (kind, key, prerequisite): an event may be placed once its
        # prerequisite is; disk repeats of the previous group need none
        events = [("N", k, None) for k in group]
        events += [("R", k, ("N", k)) for k in group]
        if seg > 0:
            events += [("D", k, None) for k in groups[seg - 1]]
        placed: set = set()
        while events:
            ready = [e for e in events if e[2] is None or e[2] in placed]
            event = ready[rng.randrange(len(ready))]
            events.remove(event)
            placed.add(event[:2])
            bursts.append(Burst(event[0], event[1], seg))
    return bursts


def predicted_outcomes(bursts: list[Burst]) -> list[str]:
    return [o for b in bursts for o in b.outcomes]


def ratios(outcomes: list[str]) -> dict[str, float]:
    """The four cache ratios of a run of request outcomes."""
    n = len(outcomes)
    return {
        "hit_frac": sum(o in ("hit", "dominated", "disk")
                        for o in outcomes) / n,
        "disk_hit_frac": outcomes.count("disk") / n,
        "batched_frac": outcomes.count("batched") / n,
        "solves_per_request": outcomes.count("miss") / n,
    }

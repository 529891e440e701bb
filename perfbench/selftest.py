"""Self-tests of the benchmark's own arithmetic (stdlib only).

Run before every measured run by ``run.py``, or on their own:

    python3 perfbench/selftest.py

They cover the tail rule, span self times and the ``service_mix`` stream.
A failure raises ``AssertionError`` and the run stops before measuring.
"""

from __future__ import annotations

import random
import sys

import spans
import stats
import stream


def check_tail_rule() -> None:
    for n, pct in ((11, 100 / 11), (20, 50.0), (30, 200 / 3), (100, 90.0),
                   (243, 100 * 233 / 243)):
        xs = list(range(1, n + 1))
        random.Random(n).shuffle(xs)
        value, got_pct, got_n = stats.tail(xs)
        assert (value, got_n) == (n - 10, n), (n, value, got_n)
        assert abs(got_pct - pct) < 1e-9, (n, got_pct, pct)
        assert sum(x > value for x in xs) == 10
    try:
        stats.tail(range(10))
    except ValueError:
        pass
    else:
        raise AssertionError("tail of 10 samples must be refused")


def check_self_times() -> None:
    """Nested spans: each self time is the duration minus the children's
    cover; self times plus the root's own time equal the op latency."""
    rec = spans.Recorder()
    rec.op, rec.root = 0, 1
    rec.spans = [
        (1, "bench.op", 0.0, 10.0, None, 0),
        (2, "core.solve", 1.0, 4.0, 1, 0),
        (3, "kernels.gram_csc", 2.0, 3.0, 2, 0),
        (4, "pivoting.col_tp", 5.0, 9.0, 1, 0),
        (5, "linalg.qrcp", 5.0, 6.0, 4, 0),
        (6, "kernels.other", 8.0, 9.0, 4, 0),
        (7, "pivoting.match", 8.5, 9.5, 4, 0),   # overlaps, runs past
    ]
    own = {name: t for name, t, _, _ in spans.self_times(rec.spans)}
    assert own == {"bench.op": 3.0, "core.solve": 2.0,
                   "kernels.gram_csc": 1.0, "pivoting.col_tp": 2.0,
                   "linalg.qrcp": 1.0, "kernels.other": 1.0,
                   "pivoting.match": 1.0}, own
    rec.spans.pop()                              # keep children inside
    out, latency, residual = spans.per_layer(rec, 1)
    assert latency == 10.0 and abs(residual) < 1e-12, (latency, residual)
    assert out["bench.unattributed_s"] == 3.0
    assert out["pivoting.self_s"] == 2.0 and out["pivoting.col_tp_s"] == 4.0
    assert out["core.self_s"] == 2.0 and out["core.solve_s"] == 3.0
    assert out["kernels.calls"] == 2.0
    layered = sum(out[m] for m in spans.SELF_METRICS)
    assert abs(layered - latency) < 1e-12, (layered, latency)
    # as a service burst: the first program span starts 1.0 after the op,
    # which becomes queue wait and leaves the root's own time
    out, latency, residual = spans.per_layer(rec, 2, queue_wait=True)
    assert out["service.queue_wait_s"] == 0.5, out["service.queue_wait_s"]
    assert out["bench.unattributed_s"] == 1.0 and abs(residual) < 1e-12


def check_stream() -> None:
    """Same seed, same bursts; every seed does the same work; each burst's
    predicted outcome follows from the cache state the stream implies."""
    first = stream.epoch(7)
    assert first == stream.epoch(7)
    assert first != stream.epoch(8)
    base = stream.ratios(stream.predicted_outcomes(first))
    for seed in range(20):
        bursts = stream.epoch(seed)
        got = stream.ratios(stream.predicted_outcomes(bursts))
        assert got == base, seed
        seen: dict = {}
        memory: set = set()
        disk: set = set()
        segment = 0
        for b in bursts:
            if b.segment != segment:         # restart: memory is lost
                memory.clear()
                segment = b.segment
            if b.kind == "N":
                assert b.key not in memory and b.key not in disk, b
                disk.add(b.key)
            elif b.kind == "R":
                assert b.key in memory, b
            else:
                assert b.key in disk and b.key not in memory, b
            memory.add(b.key)
            seen.setdefault(b.key, []).append(b.kind)
        assert len(seen) == len(stream.all_keys())
        assert all(k == ["N", "R", "D"] for k in seen.values()), seen
    assert base == {"hit_frac": 2 / 3, "disk_hit_frac": 1 / 9,
                    "batched_frac": 2 / 9, "solves_per_request": 1 / 9}, base


def main() -> None:
    check_tail_rule()
    check_self_times()
    check_stream()


if __name__ == "__main__":
    main()
    print("self-tests passed")
    sys.exit(0)

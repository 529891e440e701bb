"""The machine-independent gate of ``benchmarks/bench_spmd_backends.py``."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "bench_spmd_backends.py"


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench_spmd_backends",
                                                  BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _results(bytes_procs=1000.0, msgs_procs=10):
    def row(modeled, bytes_sent, msgs):
        comm = {"bytes_sent": bytes_sent, "msgs": msgs}
        return {"modeled_s": modeled, "threads_matches": True,
                "procs_matches": True,
                "threads": {"wall_s": 1.0, "comm": dict(comm)},
                "procs": {"wall_s": 1.0, "comm": dict(comm)}}
    rows = {"1": row(2.0, 0.0, 0), "2": row(1.5, 1000.0, 10),
            "4": row(1.0, 3000.0, 30), "8": row(0.9, 7000.0, 70)}
    rows["2"]["procs"]["comm"] = {"bytes_sent": bytes_procs,
                                  "msgs": msgs_procs}
    return {"host": {"cpu_count": 1},
            "benches": {"spmd_lu_crtp": rows}}


def test_gate_passes_when_ledgers_agree():
    assert _bench_module().check_regression(_results()) == []


def test_gate_fails_when_backend_ledgers_disagree():
    bench = _bench_module()
    for results in (_results(bytes_procs=1008.0), _results(msgs_procs=11)):
        bad = bench.check_regression(results)
        assert len(bad) == 1 and "P=2" in bad[0] and "ledgers" in bad[0]


def test_gate_pins_counted_comm():
    """A quick run's bytes and messages must equal the pin exactly, on
    whichever side they drift."""
    bench = _bench_module()
    pin = {"spmd_lu_crtp": {"1": (0, 0), "2": (1000, 10),
                            "4": (3000, 30), "8": (7000, 70)}}
    assert bench.check_regression(_results(), pin) == []
    for p, want in (("4", (3008, 30)), ("8", (7000, 69))):
        moved = {"spmd_lu_crtp": dict(pin["spmd_lu_crtp"], **{p: want})}
        bad = bench.check_regression(_results(), moved)
        assert len(bad) == 1 and f"P={p}" in bad[0] and "pinned" in bad[0]


def test_quick_pin_covers_every_cell():
    bench = _bench_module()
    assert set(bench.QUICK_COMM) == {"spmd_lu_crtp", "spmd_randqb_ei"}
    for rows in bench.QUICK_COMM.values():
        assert set(rows) == {str(p) for p in bench.PS}

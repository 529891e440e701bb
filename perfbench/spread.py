"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload lu_fill --seeds 1-10

Runs ``run.py`` once per seed (tracing off, ``run_seconds`` from
BENCHMARK.json) and prints, per metric, the median and the interquartile
distance as a share of the median next to a third of the metric's bound,
the steadiness target.  Result lines are appended to
``.bench_build/perfbench/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    log = ROOT / ".bench_build" / "perfbench" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        details = json.loads(lines[-2].partition(" ")[2])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(result, seed=seed, details=details))
                     + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = quartile_spread(vals) if len(vals) > 1 else 0.0
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:18s} median {statistics.median(vals):.6g} "
              f"spread {spread:.4f} target<{m['bound'] / 3:.4f} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads trace-fan sweep-random --seeds 1 2 3 4 5

Runs ``bench/run.py`` once per (workload, seed), one process at a time, and
prints per metric the median and the distance between the first and third
quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  Raw results go to ``.bench_out/spread_<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    for wl in args.workloads:
        results = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                raise SystemExit(f"{wl} seed {seed}: exit {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res.update(seed=seed, elapsed_s=elapsed)
            results.append(res)
            print(f"{wl} seed {seed}: {elapsed:.1f} s, correct={res['correct']}, "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
        (ROOT / ".bench_out" / f"spread_{wl}.json").write_text(json.dumps(results, indent=1))
        for name in sorted(results[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34s} median {med:.6g}  iqr/median {share:.4f}  bound {bounds.get(name)}")


if __name__ == "__main__":
    main()

"""Benchmark of the umbilics package: one workload per process, closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-random --seed 1 --seconds 48 --trace 0

One client issues operations one after another, each only after the last
completed.  A run builds its round of operations from the seed, sets up
(imports, round generation and one untimed warm-up operation, repeated
three times for the median), then repeats the round until ``--seconds``
have passed, finishing the round in progress, so that every run holds whole
rounds.  Every operation's output goes through the independent checks in
``checker.py``; a failed check counts the operation as failed, never aborts
the run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's module boundaries (see ``tracing.py``), prints the per-layer
metrics per round and writes the spans to ``.bench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Metric names and units are declared in ``BENCHMARK.json``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3


def _import_package():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import umbilics
    except ImportError as exc:
        raise SystemExit(f"error: cannot import umbilics from {SRC}: {exc}")
    if Path(umbilics.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: umbilics imported from {umbilics.__file__}, not {SRC}")


def declared_metrics():
    """(end-to-end units, per-layer units) from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def tail(times):
    """(value, percentile, samples beyond): the highest percentile of the
    sorted times with at least ten samples above it; the minimum when there
    are ten or fewer."""
    xs = sorted(times)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * i / len(xs), len(xs) - 1 - i


def run_ops(ops, tracer=None, first_id=0):
    """Run each op once; returns [(label, seconds, reasons, out_bytes)]."""
    rows = []
    for n, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + n
            tracer.open(op.label)
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed op must not end the run
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close()
        if error is None:
            try:
                reasons = op.check(result)
            except Exception as exc:  # noqa: BLE001 - unreadable output fails the op
                reasons = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            reasons = [error]
        rows.append((op.label, dt, reasons, op.out_bytes))
    return rows


def setup(workload, seed, work):
    """Round generation plus one warm-up op, timed; returns (seconds, ops)."""
    import workloads as wl

    t0 = time.perf_counter()
    ops = wl.make_round(workload, seed, work)
    warm = wl.WARMUP[workload](work)
    reasons = run_ops([warm])[0][2]
    if reasons:
        raise SystemExit(f"error: warm-up op failed: {reasons}")
    return time.perf_counter() - t0, ops


def measure(ops, seconds, tracer=None):
    """Repeat the round until ``seconds`` have passed; whole rounds only."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_ops(ops, tracer, first_id=len(rounds) * len(ops)))
        wall = time.perf_counter() - t0
        if wall >= seconds:
            return rounds, wall


def end_to_end(rows, wall, setup_s):
    ok = [dt for _, dt, reasons, _ in rows if not reasons]
    # A failed op misses any latency limit: it ranks above every success.
    ranked = ok + [math.inf] * (len(rows) - len(ok))
    value, pct, beyond = tail(ranked)
    return {
        "setup_s": setup_s,
        "goodput_ops_s": len(ok) / wall,
        "op_p50_s": statistics.median(ranked),
        "op_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, (pct, beyond)


def per_layer(tracer, rows, wall, n_rounds):
    """Per-round layer figures from the spans of a traced run."""
    selfs = tracer.self_times()
    incl = tracer.inclusive_counts()
    total, self_s, calls, counts, kernels = {}, {}, {}, {}, {}
    for i, s in enumerate(tracer.spans):
        total[s.name] = total.get(s.name, 0.0) + s.end - s.start
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        kernels[s.name] = kernels.get(s.name, 0) + incl[i].get("forms.closed_forms_arrays.calls", 0)
        for k, v in s.counts.items():
            counts[k] = counts.get(k, 0) + v

    def per_round(x):
        return x / n_rounds

    m = {}
    for layer in ("umbilic.find_umbilics", "index.attach_indices", "flowlines.trace_line"):
        m[f"{layer}.s"] = per_round(total.get(layer, 0.0))
        m[f"{layer}.self_s"] = per_round(self_s.get(layer, 0.0))
    m["umbilic.find_umbilics.kernel_calls"] = per_round(kernels.get("umbilic.find_umbilics", 0))
    m["umbilic.records"] = per_round(counts.get("umbilic.records", 0))
    m["umbilic.non_isolated"] = per_round(counts.get("umbilic.non_isolated", 0))
    m["index.umbilic_index.calls"] = per_round(calls.get("index.umbilic_index", 0))
    m["index.ring_evals"] = per_round(counts.get("index.ring_evals", 0))
    m["index.kernel_calls"] = per_round(kernels.get("index.attach_indices", 0))
    steps = counts.get("flowlines.steps", 0)
    m["flowlines.trace_line.calls"] = per_round(calls.get("flowlines.trace_line", 0))
    m["flowlines.steps"] = per_round(steps)
    m["flowlines.kernel_calls_per_step"] = kernels.get("flowlines.trace_line", 0) / max(steps, 1)
    fc = counts.get("forms.closed_forms_arrays.calls", 0)
    m["forms.closed_forms_arrays.calls"] = per_round(fc)
    m["forms.closed_forms_arrays.points"] = per_round(counts.get("forms.closed_forms_arrays.points", 0))
    m["forms.closed_forms_arrays.s"] = per_round(counts.get("forms.closed_forms_arrays.s", 0.0))
    m["forms.points_per_call"] = counts.get("forms.closed_forms_arrays.points", 0) / max(fc, 1)
    m["surface.radicand.calls"] = per_round(counts.get("surface.radicand.calls", 0))
    m["surface.radicand.s"] = per_round(counts.get("surface.radicand.s", 0.0))
    m["surface.chart_points.calls"] = per_round(counts.get("surface.chart_points.calls", 0))
    m["cli.self_s"] = per_round(self_s.get("cli", 0.0))
    m["cli.out_bytes"] = per_round(sum(r[3] for r in rows))
    m["trace.goodput_ops_s"] = sum(1 for r in rows if not r[2]) / wall
    return m


WORKLOAD_NAMES = ("sweep-random", "trace-fan")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None, help="keep only the round's first N ops")
    args = p.parse_args(argv)

    e2e_units, layer_units = declared_metrics()
    _import_package()
    import workloads  # noqa: F401 - imports the package and checker, timed as set-up

    import_s = time.perf_counter() - _T_START
    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=TMP))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            dt, ops = setup(args.workload, args.seed, work)
            setups.append(dt)
        ops = ops[: args.ops] if args.ops else ops
        setup_s = import_s + statistics.median(setups)

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            rounds, wall = measure(ops, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()

    rows = [r for rnd in rounds for r in rnd]
    failed = [r for r in rows if r[2]]
    e2e, (pct, beyond) = end_to_end(rows, wall, setup_s)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s) of "
          f"{len(ops)} ops in {wall:.3f} s")
    print(f"fail_frac {len(failed) / len(rows):.6g} ({len(failed)} of {len(rows)})")
    print(f"op_tail_s is the p{pct:.1f} of {len(rows)} ops, {beyond} beyond it")
    for op, (label, dt, reasons, _) in zip(ops, rounds[0]):
        if reasons:
            print(f"FAILED {label} {json.dumps(op.spec, sort_keys=True)}: {'; '.join(reasons)}")
    if tracer is None:
        metrics, units = e2e, e2e_units
    else:
        metrics, units = per_layer(tracer, rows, wall, len(rounds)), layer_units
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans_{args.workload}_s{args.seed}.tsv"
        tracer.dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.9g} {units.get(name, '?')}")
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }))


if __name__ == "__main__":
    main()

"""Tests of the benchmark itself (not of the package).

    python3 -m pytest -q bench/selftest.py

Kept out of the package's test suite by its file name; each test runs in a
few seconds on tiny rounds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import workloads as wl  # noqa: E402
from umbilics import SurfaceSpec, attach_indices, find_umbilics  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_prints_only_declared_metrics(trace, section):
    lines, result = _run("--workload", "trace-fan", "--ops", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = [ln.split() for ln in lines[:-1] if ln.split() and ln.split()[0] in declared]
    assert {p[0]: p[2] for p in printed} == declared


def test_counters_repeat_across_traced_runs():
    counts = []
    for _ in range(2):
        _, result = _run("--workload", "sweep-random", "--ops", "1", "--trace", "1")
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if units[k] in ("count", "calls/step", "points/call")})
    assert counts[0] == counts[1]
    assert counts[0]["umbilic.find_umbilics.kernel_calls"] > 0
    assert counts[0]["index.ring_evals"] > 0


def _specs(seed):
    return [op.spec for op in wl.make_round("sweep-random", seed, ROOT)]


def test_seed_sets_sweep_specs():
    assert _specs(1) == _specs(1)
    first, second = _specs(1), _specs(2)
    assert all(a != b for a, b in zip(first, second))


@pytest.fixture(scope="module")
def ellipsoid_records():
    spec = {"family": "ellipsoid", "a": 1.0, "b": 2.0, "c": 3.0}
    recs = attach_indices(SurfaceSpec.from_json(spec), find_umbilics(SurfaceSpec.from_json(spec)))
    return spec, [r.to_json() for r in recs]


def test_checker_passes_program_output(ellipsoid_records):
    spec, recs = ellipsoid_records
    assert checker.check_umbilics(spec, recs) == []


def test_checker_fails_dropped_umbilic(ellipsoid_records):
    spec, recs = ellipsoid_records
    assert checker.check_umbilics(spec, recs[1:])


def test_checker_fails_index_zero_point(ellipsoid_records):
    spec, recs = ellipsoid_records
    x, y, z = recs[0]["xyz"]
    spurious = {"xyz": [x * 0.999, y, z], "kind": "isolated", "index": 0.0}
    assert checker.check_umbilics(spec, recs + [spurious])


def test_checker_fails_continuum_record(ellipsoid_records):
    spec, recs = ellipsoid_records
    assert checker.check_umbilics(spec, [dict(recs[0], kind="non_isolated")] + recs[1:])


def test_trace_csv_row_count_must_match_steps(tmp_path):
    spec = wl.bundled_spec("sq_1112")
    op = wl.trace_op("sq_1112", "Z+", 0.7, 0.0, 0.2, tmp_path)
    assert op.check(op.run()) == []
    csv = tmp_path / "t.csv"
    csv.write_text("arclength,u,v,x,y,z,residual\n0,0,0,0,0,1,0\n")
    assert checker.check_trace_csv(spec, csv, 3)

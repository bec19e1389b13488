"""Golden records: finder and index results on every bundled spec.

``data/bundled_records.json`` holds, per bundled spec, the record count,
the kinds, the sorted indices, the sorted (index, radius, samples) of every
record's winding-index ring and the sorted xyz locations.  A change that is
meant to keep results must match counts, kinds, indices and rings exactly
and locations within 1e-12.  Regenerate the file (only when results are meant
to change) with ``PYTHONPATH=src python tests/test_golden.py``; it prints,
per spec, each field that differs from the existing file, and keeps the
stored locations of a spec while they agree within the tolerance.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from conftest import BUNDLED

GOLDEN = Path(__file__).parent / "data" / "bundled_records.json"
XYZ_TOL = 1e-12


def snapshot(records, windings):
    """Order-independent summary of one spec's indexed records and their
    WindingResults."""
    return {
        "count": len(records),
        "kinds": sorted(r.kind for r in records),
        "indices": sorted(r.index for r in records),
        "windings": sorted([w.index, w.radius, w.samples] for w in windings),
        "xyz": sorted(
            ([float(c) for c in r.ambient] for r in records),
            key=lambda p: [round(c, 9) for c in p],
        ),
    }


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_records_match_golden(name, results):
    want = json.loads(GOLDEN.read_text())[name]
    spec = BUNDLED[name]
    got = snapshot(results.indexed(spec), results.windings(spec))
    assert got["count"] == want["count"]
    assert got["kinds"] == want["kinds"]
    assert got["indices"] == want["indices"]
    assert got["windings"] == want["windings"]
    for p, q in zip(got["xyz"], want["xyz"]):
        assert max(abs(a - b) for a, b in zip(p, q)) < XYZ_TOL


if __name__ == "__main__":
    from umbilics import index as ix
    from umbilics import umbilic as um

    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data = {}
    for name, spec in sorted(BUNDLED.items()):
        records = um.find_umbilics(spec)
        windings = [ix.umbilic_index(spec, rec, records) for rec in records]
        indexed = ix.attach_indices(spec, records)
        assert [r.index for r in indexed] == [w.index for w in windings]
        new, was = snapshot(indexed, windings), old.get(name, {})
        if len(new["xyz"]) == len(was.get("xyz", ())) and all(
            max(abs(a - b) for a, b in zip(p, q)) < XYZ_TOL
            for p, q in zip(new["xyz"], was["xyz"])
        ):
            new["xyz"] = was["xyz"]
        for key, value in new.items():
            if key not in was:
                print(f"{name} {key}: new {value}")
            elif value != was[key] and isinstance(value, list):
                got, want = Counter(map(repr, value)), Counter(map(repr, was[key]))
                print(f"{name} {key}: -{list((want - got).elements())} +{list((got - want).elements())}")
            elif value != was[key]:
                print(f"{name} {key}: {was[key]} -> {value}")
        data[name] = new
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

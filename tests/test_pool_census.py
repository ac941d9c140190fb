"""Pool census: every sweep behind the benchmark's sweep pools, bit for bit.

``pool_census.json`` holds one line per op of the ``soundness`` and
``high-order`` pools of ``bench/workloads.py`` (imported read-only, without
writing bytecode next to it) for each seed in SEEDS.  A ``high-order`` op is
one ``check_class`` report; a ``soundness`` op is the list of its theorem
reports, each with ``applicable``, its hypotheses' ``lhs`` and its sweeps
(the conclusion, null when none was verified, then the auxiliary checks).
A sweep is its class, verdict, evidence, sup and witness, floats as hex so
that every bit is compared.  The test compares the JSON text of each line.
To write the file afresh from the current code (only when an output change
is intended):

    PYTHONPATH=src python tests/test_pool_census.py > tests/pool_census.json
"""

import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
GOLDEN = os.path.join(os.path.dirname(__file__), "pool_census.json")

SEEDS = (1, 73, 201, 2501)
POOLS = ("soundness", "high-order")


def _workloads():
    sys.path.insert(0, BENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(BENCH)
    return workloads


def _hex(x) -> list[str] | None:
    return None if x is None else [complex(x).real.hex(), complex(x).imag.hex()]


def _sweep(rep) -> list | None:
    if rep is None:
        return None
    return [rep.class_id, rep.verdict, rep.evidence, rep.sup_value.hex(), _hex(rep.witness)]


def _op(pool: str, result):
    if pool == "high-order":
        return _sweep(result[1])
    return [
        {
            "applicable": rep.applicable,
            "lhs": [float(h.lhs).hex() for h in rep.hypotheses],
            "sweeps": [_sweep(rep.conclusion_check)] + [_sweep(c) for c in rep.aux_checks],
        }
        for rep in result
    ]


def _census(workloads, pool: str, seed: int) -> list[str]:
    """The JSON line of each op of one pool, in pool order."""
    cls = {"soundness": workloads.Soundness, "high-order": workloads.HighOrder}[pool]
    wl = cls(seed)
    return [
        json.dumps({"pool": pool, "seed": seed, "op": i, "result": _op(pool, wl.run(item))})
        for i, item in enumerate(wl.pool)
    ]


def _load() -> list[str]:
    with open(GOLDEN) as fh:
        return [json.dumps(entry) for entry in json.load(fh)]


@pytest.fixture(scope="module")
def golden():
    lines = _load()
    workloads = _workloads()
    fresh = [line for pool in POOLS for seed in SEEDS for line in _census(workloads, pool, seed)]
    return lines, fresh


def test_census_is_bit_identical(golden):
    lines, fresh = golden
    assert len(fresh) == len(lines)
    changed = [json.loads(line)["op"] for line, got in zip(lines, fresh) if line != got]
    assert not changed, changed[:10]


def test_census_covers_every_verdict_and_evidence(golden):
    lines, _ = golden
    sweeps = []
    for entry in map(json.loads, lines):
        if entry["pool"] == "high-order":
            sweeps.append(entry["result"])
        else:
            sweeps += [s for rep in entry["result"] for s in rep["sweeps"] if s is not None]
    kinds = {(verdict, evidence) for _, verdict, evidence, _, _ in sweeps}
    proofs = {("pass", "coefficients"), ("pass", "circle")}
    assert proofs | {("pass", "samples"), ("fail", "samples")} <= kinds


if __name__ == "__main__":
    workloads = _workloads()
    lines = [line for pool in POOLS for seed in SEEDS for line in _census(workloads, pool, seed)]
    sys.stdout.write("[\n" + ",\n".join(lines) + "\n]\n")

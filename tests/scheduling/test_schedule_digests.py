"""Schedules are pinned bit for bit.

``data/schedule_digests.json`` holds, per case, the generated circuit, the
scheduler configuration and the sha256 of :func:`save_schedule_json`
output.  A schedule depends only on the search's RNG draws and
tie-breaks, so a change to how the search represents or caches its
state must leave every digest equal.  A change meant to alter schedules
rewrites the digests with
``PYTHONPATH=src python -m tests.scheduling.test_schedule_digests``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.circuit import generate_supremacy_circuit
from repro.io import save_schedule_json
from repro.scheduling import SchedulerConfig, schedule_circuit

DIGEST_FILE = Path(__file__).parent / "data" / "schedule_digests.json"
CASES = json.loads(DIGEST_FILE.read_text())


def schedule_digest(name: str, case: dict, directory: Path) -> str:
    """sha256 of the saved schedule of one case."""
    circuit = generate_supremacy_circuit(
        case["qubits"], case["depth"], seed=case["circuit_seed"]
    )
    schedule = schedule_circuit(circuit, SchedulerConfig(**case["config"]))
    path = save_schedule_json(schedule, directory / f"{name}.json")
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES["fast"]))
def test_schedule_unchanged(name, tmp_path):
    case = CASES["fast"][name]
    assert schedule_digest(name, case, tmp_path) == case["sha256"]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CASES["slow"]))
def test_large_schedule_unchanged(name, tmp_path):
    case = CASES["slow"][name]
    assert schedule_digest(name, case, tmp_path) == case["sha256"]


def test_concurrent_schedules_match_serial(tmp_path):
    """Four circuits scheduled on four threads at once (as the service's
    executor threads do) give the serial digests: no search state is
    shared between calls."""
    names = [f"service_cold.{n}q" for n in (16, 17, 18, 19)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(names)) as pool:
            futures = {
                name: pool.submit(
                    schedule_digest, name, CASES["fast"][name], tmp_path
                )
                for name in names
            }
            got = {name: f.result(timeout=300) for name, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    assert got == {name: CASES["fast"][name]["sha256"] for name in names}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for group in CASES.values():
            for name, case in group.items():
                case["sha256"] = schedule_digest(name, case, Path(tmp))
                print(name, case["sha256"], flush=True)
    DIGEST_FILE.write_text(json.dumps(CASES, indent=1, sort_keys=True) + "\n")

"""Correctness checks: always on, always outside every timer."""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.statevector import Simulator

from workloads import (
    EngineWorkload,
    engine_inputs,
    engine_schedule,
    execute_once,
)

NORM_TOL = 1e-9
ORACLE_ATOL = 1e-9


def shard_norm(state) -> float:
    """2-norm over the shards without a state-sized temporary.

    ``DistributedState.norm`` allocates ``abs(shard)**2``; on a 64 MiB
    shard that temporary would show up in ``peak_rss_mib``.
    """
    total = 0.0
    for rank in range(state.num_ranks):
        shard = state.storage.get(rank)
        total += float(np.vdot(shard, shard).real)
    return float(np.sqrt(total))


def shard_fingerprint(state) -> str:
    """sha256 over the layout and every shard in rank order (zero-copy).

    Equal fingerprints mean bit-identical amplitudes in an identical
    layout, which is what ``state_fingerprint(to_statevector())`` pins,
    without gathering a second copy of the state.
    """
    digest = hashlib.sha256(repr(state.bit_of_qubit).encode())
    for rank in range(state.num_ranks):
        digest.update(np.ascontiguousarray(state.storage.get(rank)))
    return digest.hexdigest()


def check_state(state, reference_fingerprint: str | None) -> tuple[str, list[str]]:
    """Norm and round-to-round fingerprint check of one finished state."""
    problems = []
    norm = shard_norm(state)
    if abs(norm - 1.0) > NORM_TOL:
        problems.append(f"norm {norm!r} is not 1 +- {NORM_TOL}")
    fingerprint = shard_fingerprint(state)
    if reference_fingerprint is not None and fingerprint != reference_fingerprint:
        problems.append(
            f"fingerprint {fingerprint[:12]} differs from the first "
            f"round's {reference_fingerprint[:12]}"
        )
    return fingerprint, problems


def against_simulator(workload: EngineWorkload, circuit, schedule) -> tuple[float, bool]:
    """Execute *schedule* on the workload's path and compare amplitudes
    with the single-node simulator applying *circuit* gate by gate."""
    execution = execute_once(workload, schedule)
    try:
        got = execution.state.to_statevector()
    finally:
        execution.release()
    want = Simulator(workload.num_qubits).run(circuit).state
    err = float(np.max(np.abs(got.data - want.data)))
    return err, bool(got.allclose(want, atol=ORACLE_ATOL))


def oracle_check(workload: EngineWorkload, seed: int) -> dict:
    """The workload 6 qubits smaller — same generator, scheduler config,
    storage and layers — against ``repro.statevector.Simulator``."""
    small = workload.oracle_sibling()
    start = time.perf_counter()
    circuit = engine_inputs(small, seed)
    err, ok = against_simulator(small, circuit, engine_schedule(small, circuit))
    return {
        "qubits": small.num_qubits,
        "local_qubits": small.local_qubits,
        "max_abs_err": err,
        "ok": ok,
        "seconds": time.perf_counter() - start,
    }

"""Checkpoint / restart of a long distributed run.

At the paper's scale (0.5 PB for ~10 minutes across 8,192 nodes),
production simulations checkpoint.  This example runs a scheduled
simulation that is killed mid-flight by an injected rank crash, then
resumes from the last checkpoint in a fresh run and finishes — producing
exactly the same amplitudes, byte for byte, as an uninterrupted run.

Run:  python examples/checkpoint_restart.py
"""

import tempfile

import numpy as np

from repro import (
    DistributedSimulator,
    SchedulerConfig,
    Simulator,
    generate_supremacy_circuit,
    schedule_circuit,
)
from repro.distributed.checkpoint import CheckpointManager
from repro.resilience import FaultPlan, FaultSpec, swap_op_indices
from repro.runtime import CheckpointLayer, FaultLayer


def main() -> None:
    n, depth, l = 14, 14, 10
    circuit = generate_supremacy_circuit(n, depth, seed=21)
    schedule = schedule_circuit(circuit, SchedulerConfig(local_qubits=l, seed=1))
    ops = len(list(schedule.operations()))
    print(
        f"{n}-qubit depth-{depth} schedule: {ops} operations, "
        f"{schedule.num_swaps} swaps"
    )

    simulator = DistributedSimulator(n, l)
    uninterrupted = simulator.run_schedule(schedule).state.to_statevector()

    # A rank dies right before the last global-to-local swap.
    crash = FaultPlan(
        faults=(FaultSpec(op_index=swap_op_indices(schedule)[-1], kind="crash"),)
    )
    with tempfile.TemporaryDirectory(prefix="repro_ckpt_") as tmp:
        manager = CheckpointManager(tmp)
        try:
            simulator.run_schedule(
                schedule,
                layers=[CheckpointLayer(manager, every=4), FaultLayer(crash)],
            )
        except RuntimeError as exc:
            print(f"simulated node failure: {exc}")

        state, next_op = manager.load()
        print(
            f"checkpoint holds op index {next_op}/{ops} "
            f"with layout {sorted(state.global_qubit_set())} global"
        )

        # A fresh run picks the checkpoint up and finishes the schedule.
        final = simulator.run_schedule(
            schedule, layers=[CheckpointLayer(manager, every=4, resume=True)]
        ).state.to_statevector()
        same = np.array_equal(final.data, uninterrupted.data)
        print(f"resumed to completion; bit-identical to uninterrupted run: {same}")
        assert same
        assert final.allclose(Simulator(n).run(circuit).state, atol=1e-9)


if __name__ == "__main__":
    main()

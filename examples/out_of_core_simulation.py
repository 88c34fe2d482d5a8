"""SSD-resident simulation (the paper's Sec. 5 outlook, implemented).

The paper observes that two all-to-alls per circuit make it feasible to
keep the state vector on solid-state drives instead of DRAM.  This
example runs a complete scheduled supremacy-circuit simulation with the
amplitudes living in disk shard files — every file streamed through RAM
once per stage, block exchanges in bounded memory — and verifies the
result against an in-memory reference.

Run:  python examples/out_of_core_simulation.py
"""

import tempfile
from pathlib import Path

from repro import (
    DiskShards,
    DistributedSimulator,
    SchedulerConfig,
    Simulator,
    generate_supremacy_circuit,
    schedule_circuit,
)
from repro.analysis import distributed_entropy


def main() -> None:
    n, depth, l = 14, 14, 9  # 32 shard files x 512 amplitudes
    circuit = generate_supremacy_circuit(n, depth, seed=11)
    schedule = schedule_circuit(circuit, SchedulerConfig(local_qubits=l, seed=1))
    print(
        f"{n}-qubit depth-{depth} circuit -> {schedule.num_swaps} swaps, "
        f"{schedule.num_clusters} clusters"
    )

    with tempfile.TemporaryDirectory(prefix="repro_ssd_") as tmp, DiskShards(
        1 << (n - l), 1 << l, tmp
    ) as storage:
        shard_files = sorted(Path(tmp).glob("shard_*.dat"))
        total_bytes = sum(f.stat().st_size for f in shard_files)
        print(
            f"state vector on disk: {len(shard_files)} shard files, "
            f"{total_bytes / 2**20:.1f} MiB total"
        )

        simulator = DistributedSimulator(n, l, storage=storage)
        result = simulator.run_schedule(schedule)
        print(
            f"executed from disk: {result.comm.alltoall_steps} all-to-all "
            f"passes over the files, entropy {distributed_entropy(result.state):.4f}"
        )
        io = storage.io_stats
        print(
            f"stage-major: {io['flushes']} stage flushes, {io['shard_loads']} "
            f"shard loads and {io['shard_stores']} stores for "
            f"{len(list(schedule.operations()))} ops on {len(shard_files)} shards"
        )

        reference = Simulator(n).run(circuit).state
        assert result.state.to_statevector().allclose(reference, atol=1e-9)
        print("disk-resident result matches the in-memory reference exactly")

    print(
        "\nAt paper scale: a 49-qubit state (8 PB) with 2 swaps would touch "
        "each byte on SSD only a handful of times — the Sec. 5 argument."
    )


if __name__ == "__main__":
    main()

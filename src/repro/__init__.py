"""repro — reproduction of Häner & Steiger, "0.5 Petabyte Simulation of a
45-Qubit Quantum Circuit" (SC 2017).

A distributed state-vector quantum-circuit simulator with the paper's
full optimization stack:

* k-qubit gate kernels built per op from the target bit positions
  (:mod:`repro.kernels`) and a plan compiler that fuses and resolves
  them once per schedule (:mod:`repro.plan`),
* node-level parallel execution: large sweeps split across the CPUs
  by the sweep pool of :mod:`repro.kernels`,
* a (simulated-) MPI multi-node layer with global-to-local swaps and
  global-gate specialization (:mod:`repro.distributed`),
* the circuit scheduler: stage finding, gate clustering, swap-point
  adjustment and qubit mapping (:mod:`repro.scheduling`),
* supremacy circuit generation (:mod:`repro.circuit`),
* calibrated performance models of Edison / Cori II reproducing the
  paper's evaluation (:mod:`repro.perfmodel`),
* output-distribution analysis (:mod:`repro.analysis`), and
* fault injection + fault-tolerant supervised execution
  (:mod:`repro.resilience`).

Quickstart::

    from repro import (
        generate_supremacy_circuit, schedule_circuit, SchedulerConfig,
        DistributedSimulator,
    )

    circuit = generate_supremacy_circuit(16, depth=12, seed=0)
    schedule = schedule_circuit(circuit, SchedulerConfig(local_qubits=12))
    result = DistributedSimulator(16, 12).run_schedule(schedule)
    print(schedule.summary(), result.comm.alltoall_steps)
"""

from repro.circuit import (
    Circuit,
    GridSpec,
    circuit_stats,
    generate_supremacy_circuit,
    ghz_circuit,
    grid_for_qubits,
    hardware_efficient_ansatz,
    random_brickwork_circuit,
)
from repro.distributed import (
    DiskShards,
    DistributedSimulator,
    DistributedState,
    InMemoryShards,
)
from repro.gates import Gate, fuse_gates, gate_matrix
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResilientExecutor,
    RetryPolicy,
    run_chaos_suite,
)
from repro.scheduling import (
    Schedule,
    SchedulerConfig,
    baseline_global_gates,
    schedule_circuit,
)
from repro.statevector import (
    OutOfCoreStateVector,
    Simulator,
    StateVector,
    sample_counts,
)

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "DiskShards",
    "DistributedSimulator",
    "DistributedState",
    "FaultPlan",
    "FaultSpec",
    "Gate",
    "GridSpec",
    "InMemoryShards",
    "OutOfCoreStateVector",
    "ResilientExecutor",
    "RetryPolicy",
    "Schedule",
    "SchedulerConfig",
    "Simulator",
    "StateVector",
    "__version__",
    "baseline_global_gates",
    "circuit_stats",
    "fuse_gates",
    "gate_matrix",
    "generate_supremacy_circuit",
    "ghz_circuit",
    "grid_for_qubits",
    "hardware_efficient_ansatz",
    "random_brickwork_circuit",
    "run_chaos_suite",
    "sample_counts",
    "schedule_circuit",
]

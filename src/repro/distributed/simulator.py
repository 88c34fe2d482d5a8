"""Distributed circuit execution."""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.circuit import Circuit
from repro.distributed.state import DistributedState
from repro.distributed.storage import ShardStorage
from repro.telemetry.runtime import Telemetry

__all__ = ["DistributedSimulator", "DistributedRunResult"]


@dataclass
class DistributedRunResult:
    """Output of one distributed run."""

    state: DistributedState
    wall_seconds: float
    #: Op-level :class:`~repro.distributed.tracing.ExecutionTrace` when the
    #: run was executed with telemetry, else ``None``.
    trace: object | None = None

    @property
    def comm(self):
        """Communication counters accumulated during the run."""
        return self.state.stats

    @property
    def kernel_cost(self):
        """Kernel FLOP/byte accounting accumulated during the run."""
        return self.state.kernel_cost


class DistributedSimulator:
    """Runs circuits or scheduled programs on a :class:`DistributedState`.

    Parameters
    ----------
    num_qubits / local_qubits:
        State split: ``2**(num_qubits - local_qubits)`` virtual nodes with
        ``2**local_qubits`` amplitudes each.
    storage:
        Optional shard backend (defaults to in-memory; pass
        :class:`repro.distributed.DiskShards` for SSD-resident state).
    initial_state:
        ``"zero"`` or ``"plus"``.
    telemetry:
        Optional :class:`~repro.telemetry.runtime.Telemetry` bundle; when
        active, runs record spans/metrics and schedule runs return an
        op-level trace.  Defaults to the shared no-op bundle.
    """

    def __init__(
        self,
        num_qubits: int,
        local_qubits: int,
        *,
        storage: ShardStorage | None = None,
        initial_state: str = "zero",
        single_precision: bool = False,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.num_qubits = num_qubits
        self.local_qubits = local_qubits
        self._storage = storage
        self._initial_state = initial_state
        self._single_precision = single_precision
        self.telemetry = telemetry

    def new_state(self, initial_global_qubits=None) -> DistributedState:
        """Allocate a fresh distributed initial state."""
        return DistributedState(
            self.num_qubits,
            self.local_qubits,
            storage=self._storage,
            init=self._initial_state,
            initial_global_qubits=initial_global_qubits,
            single_precision=self._single_precision,
            telemetry=self.telemetry,
        )

    def _state_for(self, schedule) -> DistributedState:
        """The state *schedule* starts from, on this simulator's backend."""
        return DistributedState.for_schedule(
            schedule,
            storage=self._storage,
            single_precision=self._single_precision,
            telemetry=self.telemetry,
        )

    def run(
        self,
        circuit: Circuit,
        *,
        state: DistributedState | None = None,
        auto_swap: bool = True,
    ) -> DistributedRunResult:
        """Execute *circuit* gate by gate.

        With ``auto_swap`` (default) non-specializable global gates trigger
        a global-to-local swap bringing their qubits local — the naive
        execution mode the scheduler improves on.
        """
        from repro.runtime import ExecutionEngine

        if circuit.num_qubits != self.num_qubits:
            raise ValueError(
                f"circuit has {circuit.num_qubits} qubits, simulator has "
                f"{self.num_qubits}"
            )
        if state is None:
            state = self.new_state()
        elif self.telemetry is not None:
            state.use_telemetry(self.telemetry)
        engine = ExecutionEngine.for_circuit(
            circuit, auto_swap=auto_swap, telemetry=state.telemetry
        )
        result = engine.run(state=state)
        return DistributedRunResult(result.state, result.wall_seconds)

    def run_schedule(
        self,
        schedule,
        *,
        state: DistributedState | None = None,
        plan_config=None,
        layers=(),
    ) -> DistributedRunResult:
        """Execute a :class:`repro.scheduling.Schedule` program.

        The schedule's operations are either fused cluster gates (applied
        locally / via specialization) or explicit swap points changing the
        global qubit set.  Exactly the execution model of Sec. 3.6.  The
        first stage's layout is adopted at initialisation for free; the
        schedule's ``initial_state`` ("plus" when the Hadamard layer was
        absorbed) overrides the simulator default.

        The schedule is lowered (once, memoized on the schedule) to a
        :class:`repro.plan.CompiledProgram` and that plan is executed —
        each op's gate split into blocks once, cached phase factors and
        refused multi-op kernels, specialized diagonals absorbed into
        them.  A
        :class:`repro.plan.PlanConfig` passed as *plan_config* selects
        (and memoizes under) a specific compile configuration, e.g. a
        non-default ``fusion_kmax``.

        With an active telemetry bundle the result carries the op-level
        trace of this run, whose signature does not depend on the fusion
        settings.  *layers* (a :class:`~repro.runtime.PipelineLayer`, a
        :class:`~repro.runtime.CheckpointLayer`, a
        :class:`~repro.runtime.SanitizerLayer`, ...) compose onto the
        engine's loop.
        """
        if state is None:
            state = self._state_for(schedule)
        from repro.runtime import ExecutionEngine

        engine = ExecutionEngine(  # lint: allow-engine-direct
            schedule,
            plan_config=plan_config,
            layers=layers,
            telemetry=self.telemetry,
        )
        result = engine.run(state=state)
        return DistributedRunResult(
            result.state, result.wall_seconds, trace=result.trace
        )

    def run_resilient(
        self,
        schedule,
        checkpoint_dir,
        *,
        plan=None,
        policy=None,
        checkpoint_every: int = 4,
        verify: str = "swap",
        sanitizer=None,
    ):
        """Execute a schedule fault-tolerantly (checkpoint-restart etc.).

        Convenience front door to
        :class:`repro.resilience.ResilientExecutor`; see that class for
        the recovery semantics.  Returns a
        :class:`repro.resilience.ResilientRunResult`.  The simulator's
        ``storage`` backend and precision are carried across restarts: a
        state factory closing over them rebuilds every restart state and
        the vessel checkpoints are loaded into, so a ``DiskShards`` run
        stays SSD-resident through recovery.
        """
        from repro.resilience import ResilientExecutor  # avoid import cycle

        return ResilientExecutor(
            schedule,
            checkpoint_dir,
            plan=plan,
            policy=policy,
            checkpoint_every=checkpoint_every,
            verify=verify,
            sanitizer=sanitizer,
            telemetry=self.telemetry,
            state_factory=lambda: self._state_for(schedule),
        ).run()

"""The composable execution engine.

One canonical op loop (:class:`ExecutionEngine`) replays compiled
plans and records its own op spans from the ``telemetry=`` bundle it is
given; every other cross-cutting concern — shard sanitizing, fault
injection, integrity verification, checkpointing and resuming,
pipelining, the flight recorder — is a :class:`RuntimeLayer` composed
onto that loop, and a :class:`RetryPolicy` turns the same loop into the
fault-tolerant executor.  The front doors
(``DistributedSimulator.run_schedule``, ``CompiledProgram.execute``,
``ResilientExecutor``, the service's ``execute_job``) all build an
engine plus the matching layer stack.
"""

from repro.runtime.engine import (
    EngineResult,
    ExecUnit,
    ExecutionContext,
    ExecutionEngine,
)
from repro.runtime.layers import (
    CheckpointLayer,
    FaultLayer,
    FlightRecorderLayer,
    IntegrityLayer,
    RuntimeLayer,
    SanitizerLayer,
)
from repro.runtime.pipeline import PipelineLayer
from repro.runtime.policy import RecoveryReport, RetryPolicy

__all__ = [
    "CheckpointLayer",
    "EngineResult",
    "ExecUnit",
    "ExecutionContext",
    "ExecutionEngine",
    "FaultLayer",
    "FlightRecorderLayer",
    "IntegrityLayer",
    "PipelineLayer",
    "RecoveryReport",
    "RetryPolicy",
    "RuntimeLayer",
    "SanitizerLayer",
]

"""The composable execution engine.

One canonical op loop (:class:`ExecutionEngine`) replays compiled
plans; every cross-cutting concern — tracing, shard sanitizing, fault
injection, integrity verification, checkpointing and resuming — is a
:class:`RuntimeLayer` composed onto that loop, and a
:class:`RetryPolicy` turns the same loop into the fault-tolerant
executor.  The front doors (``DistributedSimulator.run_schedule``,
``CompiledProgram.execute``, ``ResilientExecutor``, the multi-process
runner's workers) all build an engine plus the matching layer stack.
"""

from repro.runtime.engine import (
    EngineResult,
    ExecUnit,
    ExecutionContext,
    ExecutionEngine,
)
from repro.runtime.layers import (
    CallbackLayer,
    CheckpointLayer,
    FaultLayer,
    FlightRecorderLayer,
    IntegrityLayer,
    RuntimeLayer,
    SanitizerLayer,
    TracingLayer,
)
from repro.runtime.pipeline import PipelineLayer
from repro.runtime.policy import RecoveryReport, RetryPolicy

__all__ = [
    "CallbackLayer",
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
    "TracingLayer",
]

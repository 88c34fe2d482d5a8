"""Pipelined compute/I-O overlap as a composable runtime layer.

qHiPSTER's canonical trick (PAPERS.md, arXiv:1601.07195) is to overlap
communication with computation via double buffering.  The engine-side
half lives here: :class:`PipelineLayer` arms the state's
:class:`~repro.distributed.ShardStorage` with one background worker so
that, while the main thread runs kernels, shard syncs become scheduled
background fsyncs, upcoming shards are read ahead, and block exchanges
double-buffer (the storage-side half — see ``repro.distributed.storage``).

There is no compute-side prefetch: the dense kernel
(:class:`repro.kernels.DenseSweep`) derives its addresses from bit
positions per op, so no table of a later op can be built ahead of time.

Everything the layer does moves I/O in time — no byte of state, no
span, no trace event changes — which is why
``ExecutionTrace.signature()`` parity with a serial run is exact.

Exposed metric: ``pipeline.depth`` (gauge).  With a
:class:`~repro.telemetry.recorder.FlightRecorder` attached, arming and
finalizing become ``kind="pipeline"`` ring events; the overlap evidence
itself (background syncs, read-aheads, prefetched exchange pairs) is in
the storage's ``io_stats``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.runtime.layers import RuntimeLayer
from repro.util.executors import register_executor, unregister_executor

__all__ = ["PipelineLayer"]


class PipelineLayer(RuntimeLayer):
    """Storage pipelining for the canonical loop.

    Parameters
    ----------
    depth:
        How many shards the storage reads ahead.  Depth 1 is classic
        double buffering.
    recorder / trace_id:
        Optional :class:`~repro.telemetry.recorder.FlightRecorder` ring
        (plus trace id) receiving ``kind="pipeline"`` events.

    The layer owns a single-worker executor, created on run start,
    registered with :func:`repro.util.executors.register_executor` and
    shut down in :meth:`finalize` — it never outlives the run.
    """

    def __init__(
        self,
        depth: int = 2,
        *,
        recorder=None,
        trace_id: str | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = int(depth)
        self.recorder = recorder
        self.trace_id = trace_id
        self._executor: ThreadPoolExecutor | None = None
        self._storage = None

    # ------------------------------------------------------------------
    def _record(self, event: str, **fields) -> None:
        if self.recorder is None:
            return
        if self.trace_id is not None:
            fields["trace_id"] = self.trace_id
        self.recorder.record("pipeline", event=event, **fields)

    def stats(self) -> dict:
        """Configuration snapshot; overlap counters live in ``io_stats``."""
        return {"depth": self.depth}

    # ------------------------------------------------------------------
    def on_run_start(self, ctx) -> None:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-pipeline"
            )
            register_executor(self._executor)
        storage = getattr(ctx.state, "storage", None)
        if storage is not self._storage and self._storage is not None:
            self._storage.disarm_pipeline()
        if storage is not None:
            storage.arm_pipeline(self._executor, depth=self.depth)
            storage.prefetch(range(min(self.depth, storage.num_shards)))
        self._storage = storage
        ctx.metrics.gauge("pipeline.depth").set(self.depth)
        self._record("armed", depth=self.depth)

    def on_run_end(self, ctx) -> None:
        if self._storage is not None:
            # Run-boundary durability: everything the serial path would
            # have msync'ed is on disk before the result is visible.
            self._storage.drain()

    def finalize(self, ctx) -> None:
        if self._storage is not None:
            self._storage.disarm_pipeline()
            self._storage = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            unregister_executor(self._executor)
            self._executor = None
        self._record("finalized", **self.stats())

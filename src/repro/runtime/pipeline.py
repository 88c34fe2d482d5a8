"""Pipelined compute/I-O overlap as a composable runtime layer.

qHiPSTER's canonical trick (PAPERS.md, arXiv:1601.07195) is to overlap
the movement of state slices with computation via double buffering.
The engine-side half lives here: :class:`PipelineLayer` arms the state's
:class:`~repro.distributed.ShardStorage` with one background worker and
drains it on run end (the run's durability point).  The storage-side
half is ``DiskShards``' stage flush (``repro.distributed.storage``):
while the main thread runs a stage's kernels on file *i* in RAM, the
worker loads files *i+1 .. i+depth-1* and stores file *i-1* behind it;
block exchanges read the next pair while the current one is written.

There is no compute-side prefetch: the dense kernel
(:class:`repro.kernels.DenseSweep`) derives its addresses from bit
positions per op, so no table of a later op can be built ahead of time.

Everything the layer does moves I/O in time — no byte of state, no
op-level span, no trace event changes — which is why
``ExecutionTrace.signature()`` parity with a serial run is exact.

Exposed metric: ``pipeline.depth`` (gauge).  With a
:class:`~repro.telemetry.recorder.FlightRecorder` attached, arming, load
stalls (the main thread waited for a read-ahead) and finalizing become
``kind="pipeline"`` ring events; :meth:`PipelineLayer.stats` sums stalls
and stores behind the compute, the storage's ``io_stats`` the rest.
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
        Shards in flight ahead of the store: the one computed on plus
        ``depth - 1`` read ahead.  Depth 1 is classic double buffering.
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
        self._load_stall_seconds = 0.0
        self._stores_behind = 0

    # ------------------------------------------------------------------
    def _record(self, event: str, **fields) -> None:
        if self.recorder is None:
            return
        if self.trace_id is not None:
            fields["trace_id"] = self.trace_id
        self.recorder.record("pipeline", event=event, **fields)

    def _observe(self, event: str, file_index: int, seconds: float) -> None:
        """The armed storage's ``"load_stall"`` / ``"store_behind"`` events."""
        if event == "store_behind":
            self._stores_behind += 1
        else:
            self._load_stall_seconds += seconds
            self._record(event, file=file_index, seconds=seconds)

    def stats(self) -> dict:
        """Depth plus what the overlap did over this layer's runs: seconds
        the main thread waited on read-aheads, shards stored behind it."""
        return {
            "depth": self.depth,
            "load_stall_seconds": self._load_stall_seconds,
            "stores_behind": self._stores_behind,
        }

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
            storage.arm_pipeline(
                self._executor, depth=self.depth, observer=self._observe
            )
        self._storage = storage
        ctx.metrics.gauge("pipeline.depth").set(self.depth)
        self._record("armed", depth=self.depth)

    def on_run_end(self, ctx) -> None:
        if self._storage is not None:
            # Every shard written is on disk before the result is visible.
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

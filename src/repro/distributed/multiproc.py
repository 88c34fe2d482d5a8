"""Multi-core schedule execution: the engine, SPMD, over shared memory.

:class:`MultiprocessRunner` forks worker processes that each run the very
same :class:`~repro.runtime.ExecutionEngine` loop over the same compiled
plan — like MPI ranks running one binary.  What differs per worker is
only its :class:`~repro.distributed.storage.SharedMemoryShards`
attachment: the state lives once, in one shared block; a worker computes
on the contiguous block of logical ranks it owns and meets its peers at
the barrier inside the two storage collectives (rank relabeling and the
block exchange of a global-to-local swap).  Layout, plan, fusion, kernels
and byte accounting are the in-process ones by construction, so results
are bit-identical to :class:`~repro.distributed.DistributedSimulator`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
from multiprocessing import connection, shared_memory

from repro.distributed.comm import CommStats
from repro.distributed.simulator import DistributedSimulator
from repro.distributed.state import DistributedState
from repro.distributed.storage import SharedMemoryShards
from repro.plan import plan_for
from repro.scheduling.program import Schedule
from repro.statevector.state import StateVector

__all__ = ["MultiprocessRunner"]


def _worker_count(num_ranks: int) -> int:
    """One worker per CPU this process may use, each owning many ranks."""
    return min(num_ranks, len(os.sched_getaffinity(0)))


def _worker(schedule, shards, barrier, result) -> None:
    """Initialise and run the schedule on the ranks *shards* owns."""
    try:
        state = DistributedSimulator(
            schedule.num_qubits, schedule.local_qubits, storage=shards
        ).run_schedule(schedule).state
        # Every worker evolved the same layout, labelling and counters;
        # the coordinator reads worker 0's.
        result.send((state.layout, shards.slot_of_rank, state.stats))
    except threading.BrokenBarrierError:
        result.send(None)  # a peer failed first and reports for itself
        raise
    except BaseException as exc:
        barrier.abort()  # peers leave their waits instead of hanging
        result.send(f"{type(exc).__name__}: {exc}")
        raise


class MultiprocessRunner:
    """Executes a :class:`Schedule` on every CPU available to the process.

    Returns the final state gathered into a :class:`StateVector`;
    ``stats`` holds the :class:`CommStats` of the most recent run.
    """

    def __init__(self, num_qubits: int, local_qubits: int) -> None:
        if not 0 < local_qubits <= num_qubits:
            raise ValueError("invalid qubit split")
        self.num_qubits = num_qubits
        self.local_qubits = local_qubits
        self.num_ranks = 1 << (num_qubits - local_qubits)
        self.stats: CommStats | None = None

    def run_schedule(self, schedule: Schedule) -> StateVector:
        """Run *schedule* and return the gathered final state."""
        if schedule.num_qubits != self.num_qubits:
            raise ValueError("schedule size mismatch")
        if schedule.local_qubits != self.local_qubits:
            raise ValueError("schedule local-qubit split mismatch")
        plan_for(schedule)  # compiled once, inherited by every fork
        count = _worker_count(self.num_ranks)
        ctx = mp.get_context("fork")
        barrier = ctx.Barrier(count)
        block = shared_memory.SharedMemory(
            create=True, size=(1 << self.num_qubits) * 16
        )
        procs, receivers = [], []
        try:
            attachments = [
                SharedMemoryShards(
                    self.num_ranks, 1 << self.local_qubits, buffer=block.buf,
                    barrier=barrier, worker=index, num_workers=count,
                )
                for index in range(count)
            ]
            for shards in attachments:
                # The write end lives in its worker alone, so a worker that
                # dies without reporting reads as EOF here.
                receive, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker, args=(schedule, shards, barrier, send)
                )
                proc.start()
                send.close()
                procs.append(proc)
                receivers.append(receive)
            layout, slots, self.stats = self._collect(receivers, attachments)
            attachments[0].relabel(slots)
            state = DistributedState(
                self.num_qubits, self.local_qubits,
                storage=attachments[0], init=None,
            )
            state.layout = layout
            return state.to_statevector()
        except BaseException:
            for proc in procs:
                proc.terminate()  # peers of a dead worker wait forever
            raise
        finally:
            for proc, receive in zip(procs, receivers):
                proc.join()  # reported or terminated: exits at once
                receive.close()
            block.close()
            block.unlink()

    @staticmethod
    def _collect(receivers: list, attachments: list):
        """Worker 0's result once all reported; the first failure raises."""
        final = None
        waiting = {receive: index for index, receive in enumerate(receivers)}
        while waiting:
            for receive in connection.wait(list(waiting)):
                index = waiting.pop(receive)
                try:
                    outcome = receive.recv()
                except EOFError:
                    outcome = "exited without reporting"
                if isinstance(outcome, str):
                    ranks = attachments[index].local_ranks
                    raise RuntimeError(
                        f"worker {index} (ranks {ranks[0]}..{ranks[-1]}) "
                        f"failed: {outcome}"
                    )
                if index == 0:
                    final = outcome
        if final is None:
            raise RuntimeError("workers aborted without reporting a failure")
        return final

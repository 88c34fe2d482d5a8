"""Process-wide registry of background executors pending shutdown.

The pipeline layer (and anything else that owns a small worker pool)
creates short-lived ``ThreadPoolExecutor`` instances whose lifetime is
tied to a run, not to a ``with`` block.  Registering them here gives two
guarantees:

* an ``atexit`` hook shuts down every executor that is still alive at
  interpreter exit, so a crashed run can never block exit on a
  non-daemon worker;
* the ``daemon-thread-leak`` source invariant
  (``tests/staticcheck/test_source_invariants.py``) recognises
  :func:`register_executor` as a cleanup registration, the same way it
  recognises ``atexit.register`` — owners that both register *and*
  shut down in ``finalize`` pass it without an allow comment.

The registry holds strong references only until :func:`unregister_executor`
(the normal path: the owner shuts the pool down itself and unregisters);
``shutdown_registered`` is the exit-time sweep.
"""

from __future__ import annotations

import atexit
import threading

__all__ = [
    "register_executor",
    "unregister_executor",
    "registered_executors",
    "shutdown_registered",
]

_registry_lock = threading.Lock()
_registry: dict[int, object] = {}
_atexit_installed = False


def register_executor(executor) -> None:
    """Track *executor* for exit-time shutdown (idempotent)."""
    global _atexit_installed
    with _registry_lock:
        _registry[id(executor)] = executor
        if not _atexit_installed:
            atexit.register(shutdown_registered)
            _atexit_installed = True


def unregister_executor(executor) -> None:
    """Stop tracking *executor* (idempotent; the owner shut it down)."""
    with _registry_lock:
        _registry.pop(id(executor), None)


def registered_executors() -> list:
    """Executors currently tracked (snapshot, for tests/diagnostics)."""
    with _registry_lock:
        return list(_registry.values())


def shutdown_registered(*, wait: bool = True) -> int:
    """Shut down and drop every tracked executor; returns the count."""
    with _registry_lock:
        executors = list(_registry.values())
        _registry.clear()
    for executor in executors:
        executor.shutdown(wait=wait)
    return len(executors)

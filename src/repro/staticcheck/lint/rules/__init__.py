"""The lint rule catalogue.

Importing this package registers every built-in rule with the framework
registry (each module applies :func:`repro.staticcheck.lint.register`
at import).  Five rules guard repo idioms (defaults, float equality,
views, the one op loop, engine construction); four are concurrency rules
aimed at the service layer's async/thread mix; ``metric-name`` guards
the observability plane's naming convention.

==================== ======== =============================================
rule                 severity what it catches
==================== ======== =============================================
mutable-default      error    mutable literal as a parameter default
float-eq             warning  ``==``/``!=`` against a float
view-return          error    docstring promises a copy, returns a view
op-loop              error    hand-rolled op.execute loop over a schedule
engine-direct        error    ExecutionEngine() outside runtime/service
blocking-in-async    error    blocking call on the event loop
unguarded-global     warning  module global mutated outside its lock
lock-order           error    cyclic lock-acquisition graph (deadlock)
daemon-thread-leak   warning  thread/executor created, never joined
metric-name          warning  instrument name off the dot convention
plan-pass-mutation   error    compiler pass mutates its input op stream
==================== ======== =============================================
"""

from repro.staticcheck.lint.rules import (  # noqa: F401  (self-register)
    blocking_in_async,
    daemon_thread,
    engine_direct,
    float_eq,
    lock_order,
    metric_name,
    mutable_default,
    op_loop,
    pass_mutation,
    unguarded_global,
    view_return,
)

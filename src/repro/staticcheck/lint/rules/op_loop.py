"""op-loop: a hand-rolled schedule executor.

A ``for ... in schedule.operations(...)`` loop whose body calls
``op.execute(...)`` is a private execution loop.  The repo once had
seven of them — the last, the multi-process runner, dispatched kernels
per op itself; all are unified in :class:`repro.runtime.ExecutionEngine`,
which owns tracing, layering and retries, and nothing under ``src/``
outside ``repro/runtime`` applies a kernel per schedule op any more
(multi-process runs are that same engine in every worker).  The
canonical loop itself lives under ``repro/runtime`` (exempt); everything
else must go through the engine so the parallel-executors problem cannot
silently regrow.
"""

from __future__ import annotations

import ast

from repro.staticcheck.lint.core import LintRule, ModuleContext, register


def _calls_attr(node: ast.AST, attr: str) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == attr
        ):
            return True
    return False


@register
class OpLoopRule(LintRule):
    name = "op-loop"
    severity = "error"
    description = (
        "hand-rolled op.execute loop over schedule.operations(); use "
        "repro.runtime.ExecutionEngine"
    )

    def check_module(self, module: ModuleContext):
        if "repro/runtime" in module.norm_path:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.For):
                continue
            if _calls_attr(node.iter, "operations") and any(
                _calls_attr(stmt, "execute") for stmt in node.body
            ):
                yield self.finding(
                    module,
                    node.lineno,
                    "hand-rolled schedule executor (op.execute loop over "
                    "schedule.operations()); run it through "
                    "repro.runtime.ExecutionEngine instead",
                    hint="use engine.run_schedule / ExecutionEngine",
                )

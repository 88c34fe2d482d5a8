"""Good/bad fixture snippets for every rule in the lint catalogue.

Each rule gets at least one snippet that must fire and one that must
stay silent, plus the suppression and baseline machinery tests.  The
snippets are written to tmp files so path-sensitive rules (op-loop,
engine-direct) can be exercised under both exempt and non-exempt paths.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.staticcheck.lint import (
    Baseline,
    default_rules,
    lint_file,
    run_lint,
    write_baseline,
)


def lint_snippet(tmp_path, code, rule, *, name="snippet.py", subdir=""):
    """Findings of one *rule* over a dedented snippet on disk."""
    directory = tmp_path / subdir if subdir else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return lint_file(path, rules=default_rules([rule]))


# ----------------------------------------------------------------------
# The five ported rules
# ----------------------------------------------------------------------
class TestMutableDefault:
    def test_flags_literal_and_call_defaults(self, tmp_path):
        code = """
        def f(a, b=[]):
            return b

        def g(x={}, *, y=set()):
            return x, y
        """
        found = lint_snippet(tmp_path, code, "mutable-default")
        assert len(found) == 3
        assert all(f.rule == "mutable-default" for f in found)
        assert all(f.severity == "error" for f in found)

    def test_flags_async_def(self, tmp_path):
        code = """
        async def f(items=[]):
            return items
        """
        assert len(lint_snippet(tmp_path, code, "mutable-default")) == 1

    def test_silent_on_none_and_immutables(self, tmp_path):
        code = """
        def f(a=None, b=(), c="x", d=0):
            return a or []
        """
        assert lint_snippet(tmp_path, code, "mutable-default") == []


class TestFloatEq:
    def test_flags_float_equality(self, tmp_path):
        code = """
        import math

        def f(x):
            return x == 0.5 or x != math.pi
        """
        found = lint_snippet(tmp_path, code, "float-eq")
        assert len(found) == 2
        assert all(f.severity == "warning" for f in found)

    def test_silent_on_tolerant_compare(self, tmp_path):
        code = """
        import math

        def f(x):
            return math.isclose(x, 0.5) or abs(x - 0.5) < 1e-9 or x == 3
        """
        assert lint_snippet(tmp_path, code, "float-eq") == []


class TestViewReturn:
    def test_flags_documented_copy_returning_view(self, tmp_path):
        code = """
        def shard_copy(arr):
            \"\"\"Return a copy of the first half.\"\"\"
            return arr[: len(arr) // 2]
        """
        found = lint_snippet(tmp_path, code, "view-return")
        assert len(found) == 1
        assert found[0].severity == "error"

    def test_flags_async_def_too(self, tmp_path):
        # The pre-framework linter skipped _check_copy_doc for async
        # functions; the port runs sync and async through one visitor.
        code = """
        async def fetch_copy(arr):
            \"\"\"Return a fresh array of the buffer.\"\"\"
            return arr.reshape(-1)
        """
        found = lint_snippet(tmp_path, code, "view-return")
        assert len(found) == 1

    def test_silent_when_copying_or_undocumented(self, tmp_path):
        code = """
        def shard_copy(arr):
            \"\"\"Return a copy of the first half.\"\"\"
            return arr[: len(arr) // 2].copy()

        def shard_view(arr):
            \"\"\"Return a view of the first half.\"\"\"
            return arr[: len(arr) // 2]
        """
        assert lint_snippet(tmp_path, code, "view-return") == []

    def test_nested_function_return_not_attributed(self, tmp_path):
        code = """
        def outer(arr):
            \"\"\"Return a copy of the table.\"\"\"
            def helper():
                return arr.ravel()
            return list(arr)
        """
        assert lint_snippet(tmp_path, code, "view-return") == []


OP_LOOP = """
def run(schedule, state):
    for op in schedule.operations():
        op.execute(state)
"""


class TestOpLoop:
    def test_flags_hand_rolled_executor(self, tmp_path):
        found = lint_snippet(tmp_path, OP_LOOP, "op-loop")
        assert len(found) == 1
        assert found[0].severity == "error"

    def test_exempt_under_repro_runtime(self, tmp_path):
        found = lint_snippet(
            tmp_path, OP_LOOP, "op-loop", subdir="repro/runtime"
        )
        assert found == []

    def test_silent_without_execute(self, tmp_path):
        code = """
        def count(schedule):
            return sum(1 for _ in schedule.operations())
        """
        assert lint_snippet(tmp_path, code, "op-loop") == []

    def test_flags_nested_execute(self, tmp_path):
        code = """
        def run(schedule, state):
            for index, op in enumerate(schedule.operations()):
                if index > 0:
                    op.execute(state)
        """
        found = lint_snippet(tmp_path, code, "op-loop")
        assert [f.rule for f in found] == ["op-loop"]

    def test_layout_replay_is_fine(self, tmp_path):
        code = """
        def replay(schedule, layout):
            for op in schedule.operations():
                update_layout(op, layout)
        """
        assert lint_snippet(tmp_path, code, "op-loop") == []

    def test_execute_over_plain_iterable_is_fine(self, tmp_path):
        # Only loops over schedule.operations() are executor-shaped.
        code = """
        def run(ops, state):
            for op in ops:
                op.execute(state)
        """
        assert lint_snippet(tmp_path, code, "op-loop") == []

    def test_suppressible_inline(self, tmp_path):
        source = OP_LOOP.replace(
            "for op in schedule.operations():",
            "for op in schedule.operations():  # lint: allow-op-loop",
        )
        assert lint_snippet(tmp_path, source, "op-loop") == []

    def test_multiproc_runner_dispatches_no_kernels(self):
        """The multi-process runner is the engine, not an eighth op loop:
        it imports no kernel and no schedule op class to dispatch on."""
        import ast
        from pathlib import Path

        path = (
            Path(__file__).resolve().parents[2]
            / "src/repro/distributed/multiproc.py"
        )
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module)
                names.update(alias.name for alias in node.names)
        assert not [m for m in modules if m.startswith("repro.kernels")]
        assert not names & {
            "SwapOp", "GateOp", "ClusterOp",
            "apply_gate", "apply_diagonal_gate",
        }


ENGINE_DIRECT = """
def run(schedule):
    from repro.runtime import ExecutionEngine

    return ExecutionEngine(schedule).run()
"""


class TestEngineDirect:
    def test_flags_direct_construction(self, tmp_path):
        found = lint_snippet(tmp_path, ENGINE_DIRECT, "engine-direct")
        assert len(found) == 1

    @pytest.mark.parametrize(
        "subdir",
        ["repro/runtime", "repro/service", "tests/runtime", "tests/service"],
    )
    def test_exempt_paths(self, tmp_path, subdir):
        found = lint_snippet(
            tmp_path, ENGINE_DIRECT, "engine-direct", subdir=subdir
        )
        assert found == []

    def test_flags_attribute_construction(self, tmp_path):
        code = """
        def run(plan):
            return runtime.ExecutionEngine(plan, layers=[]).run()
        """
        found = lint_snippet(tmp_path, code, "engine-direct")
        assert [f.rule for f in found] == ["engine-direct"]

    def test_suppressible_inline(self, tmp_path):
        source = ENGINE_DIRECT.replace(
            "ExecutionEngine(schedule).run()",
            "ExecutionEngine(schedule).run()  # lint: allow-engine-direct",
        )
        assert lint_snippet(tmp_path, source, "engine-direct") == []


# ----------------------------------------------------------------------
# The four concurrency rules
# ----------------------------------------------------------------------
class TestBlockingInAsync:
    @pytest.mark.parametrize(
        "stmt",
        [
            "time.sleep(1)",
            "open('x').read()",
            "fut.result()",
            "path.read_text()",
            "subprocess.run(['ls'])",
            "socket.create_connection(('h', 1))",
            "self._executor.shutdown(wait=True)",
            "worker_thread.join()",
        ],
    )
    def test_flags_blocking_calls(self, tmp_path, stmt):
        code = f"""
        import socket
        import subprocess
        import time

        async def handler(self, fut, path, worker_thread):
            {stmt}
        """
        found = lint_snippet(tmp_path, code, "blocking-in-async")
        assert len(found) >= 1
        assert all(f.severity == "error" for f in found)

    def test_silent_in_sync_def(self, tmp_path):
        code = """
        import time

        def warmup():
            time.sleep(0.1)
        """
        assert lint_snippet(tmp_path, code, "blocking-in-async") == []

    def test_silent_in_nested_sync_def(self, tmp_path):
        # A sync helper defined inside an async def runs wherever it is
        # called — flagging its body would be the caller's finding.
        code = """
        import time

        async def handler():
            def worker():
                time.sleep(0.1)
            return worker
        """
        assert lint_snippet(tmp_path, code, "blocking-in-async") == []

    def test_silent_on_async_idioms(self, tmp_path):
        code = """
        import asyncio

        async def handler(loop, executor, spec):
            await asyncio.sleep(0.1)
            plan = await loop.run_in_executor(executor, compile, spec)
            await loop.run_in_executor(None, executor.shutdown)
            return plan
        """
        assert lint_snippet(tmp_path, code, "blocking-in-async") == []


class TestUnguardedGlobal:
    CODE = """
    import threading

    _LOCK = threading.Lock()
    _CACHE = {}

    def put(key, value):
        _CACHE[key] = value

    def put_guarded(key, value):
        with _LOCK:
            _CACHE[key] = value

    def mutate():
        _CACHE.update(a=1)
        _CACHE.pop("a", None)
    """

    def test_flags_unguarded_and_accepts_guarded(self, tmp_path):
        found = lint_snippet(tmp_path, self.CODE, "unguarded-global")
        assert len(found) == 3
        assert all(f.severity == "warning" for f in found)

    def test_silent_without_declared_lock(self, tmp_path):
        code = """
        _CACHE = {}

        def put(key, value):
            _CACHE[key] = value
        """
        assert lint_snippet(tmp_path, code, "unguarded-global") == []

    def test_module_level_init_exempt(self, tmp_path):
        code = """
        import threading

        _LOCK = threading.Lock()
        _CACHE = {}
        _CACHE["seed"] = 1
        """
        assert lint_snippet(tmp_path, code, "unguarded-global") == []

    def test_global_rebind_flagged(self, tmp_path):
        code = """
        import threading

        _LOCK = threading.Lock()
        _TABLE = []

        def reset():
            global _TABLE
            _TABLE = []
        """
        found = lint_snippet(tmp_path, code, "unguarded-global")
        assert len(found) == 1


class TestLockOrder:
    def test_flags_cycle(self, tmp_path):
        code = """
        import threading

        a_lock = threading.Lock()
        b_lock = threading.Lock()

        def forward():
            with a_lock:
                with b_lock:
                    pass

        def backward():
            with b_lock:
                with a_lock:
                    pass
        """
        found = lint_snippet(tmp_path, code, "lock-order")
        assert len(found) == 1
        assert found[0].severity == "error"
        assert "deadlock" in found[0].message

    def test_silent_on_consistent_order(self, tmp_path):
        code = """
        import threading

        a_lock = threading.Lock()
        b_lock = threading.Lock()

        def one():
            with a_lock:
                with b_lock:
                    pass

        def two():
            with a_lock:
                with b_lock:
                    pass
        """
        assert lint_snippet(tmp_path, code, "lock-order") == []

    def test_cycle_through_call_resolution(self, tmp_path):
        code = """
        import threading

        a_lock = threading.Lock()
        b_lock = threading.Lock()

        def leaf_takes_a():
            with a_lock:
                pass

        def cycle_via_call():
            with b_lock:
                leaf_takes_a()

        def direct():
            with a_lock:
                with b_lock:
                    pass
        """
        found = lint_snippet(tmp_path, code, "lock-order")
        assert len(found) == 1


class TestDaemonThreadLeak:
    def test_flags_unjoined_thread(self, tmp_path):
        code = """
        import threading

        def spawn(fn):
            t = threading.Thread(target=fn)
            t.start()
        """
        found = lint_snippet(tmp_path, code, "daemon-thread-leak")
        assert len(found) == 1
        assert found[0].severity == "warning"

    def test_flags_unassigned_start_chain(self, tmp_path):
        code = """
        import threading

        def spawn(fn):
            threading.Thread(target=fn).start()
        """
        assert len(lint_snippet(tmp_path, code, "daemon-thread-leak")) == 1

    def test_silent_when_joined_or_with(self, tmp_path):
        code = """
        import threading
        from concurrent.futures import ThreadPoolExecutor

        def run_all(fns):
            workers = []
            for fn in fns:
                t = threading.Thread(target=fn)
                workers.append(t)
                t.start()
            for t in workers:
                t.join()
            with ThreadPoolExecutor(max_workers=2) as pool:
                pool.map(print, fns)
        """
        assert lint_snippet(tmp_path, code, "daemon-thread-leak") == []

    def test_cross_method_attribute_cleanup(self, tmp_path):
        # Creation in __init__, shutdown via a *local* rebind in another
        # method: the canonical service teardown shape.
        code = """
        from concurrent.futures import ThreadPoolExecutor

        class Service:
            def __init__(self):
                self._executor = ThreadPoolExecutor(max_workers=4)

            async def shutdown(self, loop):
                executor = self._executor
                await loop.run_in_executor(None, executor.shutdown)
        """
        assert lint_snippet(tmp_path, code, "daemon-thread-leak") == []

    def test_comprehension_relaxation(self, tmp_path):
        code = """
        import multiprocessing as mp

        def run(n):
            workers = [mp.Process(target=print) for _ in range(n)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        """
        assert lint_snippet(tmp_path, code, "daemon-thread-leak") == []

    def test_registered_executor_by_name_is_clean(self, tmp_path):
        # The pipeline layer's shape: create in one method, hand to the
        # process-wide registry, shut down + unregister in finalize.
        code = """
        from concurrent.futures import ThreadPoolExecutor

        from repro.util.executors import register_executor

        class Layer:
            def on_run_start(self):
                self._executor = ThreadPoolExecutor(max_workers=1)
                register_executor(self._executor)
        """
        assert lint_snippet(tmp_path, code, "daemon-thread-leak") == []

    def test_registered_executor_inline_is_clean(self, tmp_path):
        code = """
        from concurrent.futures import ThreadPoolExecutor

        from repro.util.executors import register_executor

        def make_pool():
            register_executor(ThreadPoolExecutor(max_workers=1))
        """
        assert lint_snippet(tmp_path, code, "daemon-thread-leak") == []

    def test_unregistered_executor_still_flags(self, tmp_path):
        # register_executor in the module must not blanket-suppress:
        # a *different*, unregistered pool is still a leak.
        code = """
        from concurrent.futures import ThreadPoolExecutor

        from repro.util.executors import register_executor

        def make_pools():
            register_executor(ThreadPoolExecutor(max_workers=1))
            stray = ThreadPoolExecutor(max_workers=2)
            stray.submit(print)
        """
        found = lint_snippet(tmp_path, code, "daemon-thread-leak")
        assert len(found) == 1


class TestMetricName:
    def test_flags_off_convention_names(self, tmp_path):
        code = """
        def instrument(registry):
            registry.counter("jobs")
            registry.gauge("QueueDepth.size")
            registry.histogram("service.Wait.Seconds")
        """
        found = lint_snippet(tmp_path, code, "metric-name")
        assert len(found) == 3
        assert all(f.severity == "warning" for f in found)
        assert "jobs" in found[0].message

    def test_silent_on_convention_names(self, tmp_path):
        code = """
        def instrument(registry):
            registry.counter("comm.bytes_on_network")
            registry.gauge("service.queue.depth", tenant="a")
            registry.histogram("kernel.apply.seconds", k=4)
            registry.histogram("service.queue.wait_seconds")
        """
        assert lint_snippet(tmp_path, code, "metric-name") == []

    def test_silent_on_dynamic_names_and_other_calls(self, tmp_path):
        code = """
        def instrument(registry, name):
            registry.counter(name)
            registry.counter(f"service.{name}")
            registry.lookup("not a metric")
            counter("bare call, not a method")
        """
        assert lint_snippet(tmp_path, code, "metric-name") == []

    def test_line_suppression(self, tmp_path):
        code = """
        def instrument(registry):
            registry.counter("tmp")  # lint: allow-metric-name
        """
        assert lint_snippet(tmp_path, code, "metric-name") == []


# ----------------------------------------------------------------------
# Suppression and baseline machinery
# ----------------------------------------------------------------------
class TestSuppression:
    def test_line_suppression_with_reason(self, tmp_path):
        code = """
        def f(x):
            return x == 0.0  # lint: allow-float-eq -- exact sentinel
        """
        assert lint_snippet(tmp_path, code, "float-eq") == []

    def test_file_level_skip_all(self, tmp_path):
        code = """
        # lint: skip-file
        def f(a=[]):
            return a == 0.5
        """
        path = tmp_path / "skipped.py"
        path.write_text(textwrap.dedent(code), encoding="utf-8")
        assert lint_file(path) == []

    def test_file_level_skip_named_rule(self, tmp_path):
        code = """
        # lint: skip-file=float-eq
        def f(a=[]):
            return a == 0.5
        """
        path = tmp_path / "partial.py"
        path.write_text(textwrap.dedent(code), encoding="utf-8")
        rules = {f.rule for f in lint_file(path)}
        assert rules == {"mutable-default"}


class TestBaseline:
    def test_baseline_grandfathers_and_new_findings_gate(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("def f(a=[]):\n    return a\n", encoding="utf-8")
        report = run_lint([path])
        assert len(report.errors) == 1

        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, report.findings)
        baseline = Baseline.load(baseline_path)
        assert len(baseline) == 1

        report2 = run_lint([path], baseline=baseline)
        assert report2.errors == []
        assert len(report2.baselined) == 1
        assert report2.exit_code() == 0

        # A new finding is not in the baseline and gates immediately.
        path.write_text(
            "def f(a=[]):\n    return a\n\ndef g(b={}):\n    return b\n",
            encoding="utf-8",
        )
        report3 = run_lint([path], baseline=baseline)
        assert len(report3.baselined) == 1
        assert len(report3.errors) == 1
        assert report3.exit_code() == 1

    def test_fingerprints_survive_line_shifts(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("def f(a=[]):\n    return a\n", encoding="utf-8")
        report = run_lint([path])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, report.findings)

        # Unrelated code above shifts the finding's line number.
        path.write_text(
            "X = 1\nY = 2\n\n\ndef f(a=[]):\n    return a\n",
            encoding="utf-8",
        )
        report2 = run_lint([path], baseline=Baseline.load(baseline_path))
        assert report2.errors == []
        assert len(report2.baselined) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "nope.json")
        assert len(baseline) == 0

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9", "findings": []}')
        with pytest.raises(ValueError):
            Baseline.load(path)


class TestRepoIsClean:
    def test_src_tree_clean_under_all_rules(self):
        # Acceptance criterion: the shipped tree has no active findings
        # under the full nine-rule catalogue (the committed baseline is
        # empty, so this also means no grandfathered debt).
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        report = run_lint([repo / "src"])
        assert [f.format() for f in report.findings] == []

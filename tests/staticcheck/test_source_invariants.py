"""Source invariants: checks over the AST of every module under ``src/``.

Each class below is one rule.  ``test_src_is_clean`` asserts that no
module breaks it; the snippet cases pin what the check flags and what it
lets through.  A line that breaks a rule on purpose carries a
``# lint: allow-<rule>`` comment with a reason; that comment is the only
escape hatch.  Warnings and errors are not told apart: any finding fails.

:func:`build_lock_graph` is the lock-order rule's whole-program graph;
``test_lock_tracker.py`` checks it against the locks a service stress
run actually nests.
"""

from __future__ import annotations

import ast
import re
import textwrap
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class Module:
    """One parsed source file as the rules see it."""

    #: Repo-relative and ``/``-separated; path-sensitive rules read it.
    path: str
    #: Dotted import name (``src/repro/plan/passes.py`` -> ``repro.plan.passes``).
    name: str
    lines: list[str]
    tree: ast.Module
    #: Every node of ``tree``, walked once.
    nodes: list[ast.AST]


def parse(source: str, path: str) -> Module:
    tree = ast.parse(source, filename=path)
    name = path.removeprefix("src/").removesuffix(".py").replace("/", ".")
    return Module(
        path,
        name.removesuffix(".__init__"),
        source.splitlines(),
        tree,
        list(ast.walk(tree)),
    )


def load(paths) -> list[Module]:
    """Every ``*.py`` file under *paths* (files or directories in the repo)."""
    files: list[Path] = []
    for root in map(Path, paths):
        files += [root] if root.is_file() else sorted(root.rglob("*.py"))
    return [
        parse(f.read_text(encoding="utf-8"), f.relative_to(REPO).as_posix())
        for f in files
    ]


@pytest.fixture(scope="session")
def src_modules() -> list[Module]:
    return load([REPO / "src"])


def findings(rule, modules: list[Module]) -> list[str]:
    """``path:line: message`` for each hit of *rule* not allowed inline."""
    allow = "lint: allow-" + rule.__name__.replace("_", "-")
    if rule is lock_order:
        hits = lock_order(modules)
    else:
        hits = ((m, line, msg) for m in modules for line, msg in rule(m))
    return [
        f"{m.path}:{line}: {msg}"
        for m, line, msg in hits
        if allow not in m.lines[line - 1]
    ]


def flagged(rule, code: str, path: str = "snippet.py") -> list[str]:
    """Findings of *rule* over a dedented snippet posing as *path*."""
    return findings(rule, [parse(textwrap.dedent(code), path)])


def _name(func: ast.expr) -> str | None:
    """The called name: ``f`` for ``f(...)`` and ``x.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dotted(node: ast.expr) -> tuple[str, ...]:
    """``("a", "b", "c")`` for ``a.b.c``; ``()`` unless it starts at a name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, *reversed(parts)) if isinstance(node, ast.Name) else ()


# ----------------------------------------------------------------------
# The rules
# ----------------------------------------------------------------------
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}


def mutable_default(module: Module):
    """A mutable default is built once and shared by every call."""
    for node in module.nodes:
        if not isinstance(node, (*_DEFS, ast.Lambda)):
            continue
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
                and not default.args
            ):
                name = getattr(node, "name", "<lambda>")
                yield default.lineno, (
                    f"{name!r} has a mutable default argument; default to "
                    "None and build it in the body"
                )


_FLOAT_ATTRS = {"pi", "e", "inf", "nan", "tau"}


def _floaty(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp):
        return _floaty(node.operand)
    return (
        isinstance(node, ast.Constant) and isinstance(node.value, float)
    ) or (isinstance(node, ast.Attribute) and node.attr in _FLOAT_ATTRS)


def float_eq(module: Module):
    """Amplitude code compares floats with a tolerance, never exactly."""
    for node in module.nodes:
        if (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(_floaty(n) for n in [node.left, *node.comparators])
        ):
            yield node.lineno, (
                "== / != against a float; compare with a tolerance "
                "(math.isclose / np.allclose / abs(a-b) < tol)"
            )


#: numpy expressions that may alias their input buffer.
_VIEW_ATTRS = {"view", "ravel", "reshape", "transpose", "swapaxes", "T"}
_COPY_WORDS = ("copy", "copies", "fresh array", "new array")


def _may_alias(node: ast.expr) -> bool:
    if isinstance(node, ast.Subscript):
        sub = node.slice
        parts = sub.elts if isinstance(sub, ast.Tuple) else [sub]
        return any(isinstance(p, ast.Slice) for p in parts)
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Attribute) and node.attr in _VIEW_ATTRS


def _own_nodes(func: ast.AST):
    """The nodes of *func* outside its nested defs and lambdas."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if not isinstance(node, (*_DEFS, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def view_return(module: Module):
    """A function whose docstring promises a copy returns no numpy view."""
    for func in module.nodes:
        if not isinstance(func, _DEFS):
            continue
        doc = ast.get_docstring(func)
        head = doc.splitlines()[0].lower() if doc else ""
        if not any(w in head for w in _COPY_WORDS):
            continue
        for node in _own_nodes(func):
            if (
                isinstance(node, ast.Return)
                and node.value is not None
                and _may_alias(node.value)
            ):
                yield node.lineno, (
                    f"{func.name!r} documents a copy but returns a possible "
                    "numpy view; add .copy()"
                )


def _calls_attr(node: ast.AST, attr: str) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr == attr
        for sub in ast.walk(node)
    )


def op_loop(module: Module):
    """Only ``repro/runtime`` loops ``op.execute`` over a schedule's ops."""
    if "repro/runtime" in module.path:
        return
    for node in module.nodes:
        if (
            isinstance(node, ast.For)
            and _calls_attr(node.iter, "operations")
            and any(_calls_attr(stmt, "execute") for stmt in node.body)
        ):
            yield node.lineno, (
                "hand-rolled op.execute loop over schedule.operations(); "
                "run it through repro.runtime.ExecutionEngine"
            )


def engine_direct(module: Module):
    """Only ``repro/runtime`` and ``repro/service`` construct the engine."""
    if "repro/runtime" in module.path or "repro/service" in module.path:
        return
    for node in module.nodes:
        if isinstance(node, ast.Call) and _name(node.func) == "ExecutionEngine":
            yield node.lineno, (
                "direct ExecutionEngine construction; use the run_schedule "
                "family or a service job"
            )


#: ``module.function`` calls that always block.
_BLOCKING_CALLS = {
    ("time", "sleep"),
    ("socket", "create_connection"),
    ("socket", "getaddrinfo"),
    ("subprocess", "run"),
    ("subprocess", "check_output"),
    ("subprocess", "check_call"),
    ("subprocess", "call"),
    ("os", "system"),
}
_FILE_IO_ATTRS = {"read_text", "write_text", "read_bytes", "write_bytes"}


def _blocking(call: ast.Call) -> str | None:
    """What blocks in *call*, or None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "synchronous open()"
    if _dotted(func)[-2:] in _BLOCKING_CALLS:
        return f"blocking {'.'.join(_dotted(func)[-2:])}()"
    if not isinstance(func, ast.Attribute):
        return None
    receiver = ".".join(_dotted(func.value)).lower()
    waits = any(
        kw.arg == "wait"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in call.keywords
    )
    if func.attr in _FILE_IO_ATTRS:
        return f"synchronous file I/O (.{func.attr}())"
    if func.attr == "result":
        return "blocking future.result(); await asyncio.wrap_future instead"
    if func.attr == "shutdown" and (
        "executor" in receiver or "pool" in receiver or waits
    ):
        return "executor.shutdown() waits for its workers"
    if func.attr == "join" and any(w in receiver for w in ("thread", "worker", "proc")):
        return "blocking .join()"
    return None


def blocking_in_async(module: Module):
    """Nothing in an ``async def`` blocks the event loop.

    The innermost enclosing def decides: a sync helper nested in an
    async def blocks only whoever calls it.  Lambdas are transparent.
    """

    def walk(node, in_async):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                yield from walk(child, isinstance(child, ast.AsyncFunctionDef))
                continue
            if in_async and isinstance(child, ast.Call) and (what := _blocking(child)):
                yield child.lineno, f"{what} on the event loop"
            yield from walk(child, in_async)

    yield from walk(module.tree, False)


_LOCK_CALLS = {"Lock", "RLock", "TrackedLock"}
_CONTAINER_CALLS = {
    "list", "dict", "set", "OrderedDict", "defaultdict", "deque", "Counter",
}
_CONTAINER_NODES = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)
_MUTATORS = {
    "append", "add", "update", "pop", "popitem", "clear", "setdefault",
    "extend", "remove", "discard", "insert", "move_to_end", "appendleft",
}


def _module_state(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(lock names, mutable container names) bound at module level."""
    locks: set[str] = set()
    containers: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        called = _name(value.func) if isinstance(value, ast.Call) else None
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if called in _LOCK_CALLS or target.id.lower().endswith("_lock"):
                locks.add(target.id)
            elif isinstance(value, _CONTAINER_NODES) or called in _CONTAINER_CALLS:
                containers.add(target.id)
    return locks, containers


def unguarded_global(module: Module):
    """A module that declares a lock mutates its containers under it.

    Modules without a module-level lock are single-threaded by design
    and exempt; so is import-time initialization.
    """
    locks, containers = _module_state(module.tree)
    if not (locks and containers):
        return

    def shared(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.id if isinstance(node, ast.Name) and node.id in containers else None

    def mutations(node, declared_global):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Subscript):
                    yield "subscript assignment", shared(t)
                elif isinstance(t, ast.Name) and t.id in declared_global:
                    yield "rebind", shared(t)
        elif isinstance(node, ast.AugAssign):
            yield "augmented assignment", shared(node.target)
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                if isinstance(t, ast.Subscript):
                    yield "subscript deletion", shared(t)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                yield f".{node.func.attr}()", shared(node.func.value)

    def holds_lock(item):
        dotted = _dotted(item.context_expr)
        return bool(dotted) and (dotted[-1] in locks or "lock" in dotted[-1].lower())

    def walk(node, in_function, guarded, declared_global):
        if isinstance(node, _DEFS):
            in_function, declared_global = True, set()
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            guarded = guarded or any(holds_lock(item) for item in node.items)
        if in_function and not guarded:
            for what, name in mutations(node, declared_global):
                if name is not None:
                    yield node.lineno, (
                        f"{what} of module global {name!r} outside a "
                        f"'with <lock>:' block (module declares {sorted(locks)[0]!r})"
                    )
        for child in ast.iter_child_nodes(node):
            yield from walk(child, in_function, guarded, declared_global)

    yield from walk(module.tree, False, False, set())


_WORKER_FACTORIES = {
    "Thread", "Timer", "Process", "ThreadPoolExecutor", "ProcessPoolExecutor",
}
_CLEANUP_ATTRS = {"join", "shutdown", "cancel"}
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _receiver_key(node: ast.expr) -> str | None:
    """``self._executor`` and a local ``executor`` both key as ``executor``."""
    if isinstance(node, ast.Attribute):
        return node.attr.lstrip("_")
    if isinstance(node, ast.Name):
        return node.id.lstrip("_")
    return None


def daemon_thread_leak(module: Module):
    """Every thread, process or executor a module creates is reaped.

    A creation is fine as the context of a ``with``, when handed to
    :func:`repro.util.executors.register_executor`, or when assigned to a
    name that the module joins, shuts down or cancels (a method
    reference like ``run_in_executor(None, executor.shutdown)`` counts).
    ``atexit.register`` / ``weakref.finalize`` exempt the whole module;
    creations inside a comprehension need only some cleanup call.
    """
    nodes = module.nodes
    if any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr in ("register", "finalize")
        and _dotted(n.func.value) in (("atexit",), ("weakref",))
        for n in nodes
    ):
        return
    owned: set[int] = set()  # ids of nodes a with-block or the registry owns
    assigned: dict[int, str | None] = {}  # id(node) -> receiver key
    in_comprehension: set[int] = set()
    cleaned: set[str | None] = set()
    any_cleanup = False
    for node in nodes:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                owned.update(id(n) for n in ast.walk(item.context_expr))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for n in ast.walk(node.value):
                    assigned.setdefault(id(n), _receiver_key(target))
        elif isinstance(node, _COMPREHENSIONS):
            in_comprehension.update(id(n) for n in ast.walk(node))
        elif isinstance(node, ast.Attribute) and node.attr in _CLEANUP_ATTRS:
            any_cleanup = True
            cleaned.add(_receiver_key(node.value))
        elif isinstance(node, ast.Call) and _name(node.func) == "register_executor":
            any_cleanup = True
            for arg in node.args:
                cleaned.add(_receiver_key(arg))
                owned.update(id(n) for n in ast.walk(arg))
    cleaned.discard(None)
    for node in nodes:
        if not isinstance(node, ast.Call) or id(node) in owned:
            continue
        factory = _name(node.func)
        if factory not in _WORKER_FACTORIES:
            continue
        if id(node) in in_comprehension:
            if any_cleanup:
                continue
        elif assigned.get(id(node)) in cleaned:
            continue
        yield node.lineno, (
            f"{factory} created but never joined/shut down in this module; "
            "leaked workers outlive the owner"
        )


#: Instrument names are ``subsystem.quantity[.unit]``: lowercase
#: dot-separated segments, at least two.
_METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def metric_name(module: Module):
    """Literal instrument names follow the registry's dot convention."""
    for node in module.nodes:
        if not (
            isinstance(node, ast.Call)
            and node.args
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("counter", "gauge", "histogram")
        ):
            continue
        first = node.args[0]
        if (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and not _METRIC_NAME.match(first.value)
        ):
            yield node.lineno, (
                f"metric name {first.value!r} breaks the "
                "subsystem.quantity[.unit] convention"
            )


_STREAM_MUTATORS = {
    "append", "extend", "insert", "pop", "remove", "sort", "reverse", "clear",
}


def _rooted_at(node: ast.expr, name: str) -> bool:
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == name


def plan_pass_mutation(module: Module):
    """A ``*_pass`` in ``repro.plan`` never mutates its input op stream.

    ``plan_for`` memoizes compiled programs, so a mutated intermediate
    corrupts every later consumer.  Rebinding the name is how a pass
    produces its output and is fine.
    """
    if not module.name.startswith("repro.plan"):
        return
    for func in module.nodes:
        if not isinstance(func, _DEFS) or not func.name.endswith("_pass"):
            continue
        params = [a.arg for a in func.args.posonlyargs + func.args.args]
        if not params:
            continue
        stream = params[1] if params[0] == "self" and len(params) > 1 else params[0]
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                hit = (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _STREAM_MUTATORS
                    and _rooted_at(node.func.value, stream)
                )
            elif isinstance(node, (ast.Assign, ast.Delete, ast.AugAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                hit = any(
                    isinstance(t, (ast.Subscript, ast.Attribute))
                    and _rooted_at(t, stream)
                    for t in targets
                )
            else:
                hit = False
            if hit:
                yield node.lineno, (
                    f"pass {func.name!r} mutates its input op stream {stream!r}"
                )


# -- lock order --------------------------------------------------------
#: Never resolved to program functions: ubiquitous container and
#: concurrency method names would invent call edges.
_COMMON_NAMES = {
    "acquire", "add", "append", "appendleft", "clear", "close", "copy",
    "discard", "extend", "format", "get", "inc", "insert", "items", "join",
    "keys", "move_to_end", "observe", "pop", "popitem", "put", "release",
    "remove", "reset", "result", "run", "setdefault", "split", "start",
    "stats", "submit", "update", "values",
}


def _lock_name(expr: ast.expr, module: str, cls: str | None) -> str | None:
    """The qualified name a ``with`` item's lock has at runtime, or None.

    Matches :class:`repro.util.locktrack.TrackedLock` naming:
    ``{module}.{Class}.{attr}`` for ``self.<attr>``, ``{module}.{name}``
    for a module global.
    """
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and "lock" in expr.attr.lower()
    ):
        return f"{module}.{cls}.{expr.attr}" if cls else f"{module}.{expr.attr}"
    if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
        return f"{module}.{expr.id}"
    return None


def _lock_events(func, module: str, cls: str | None):
    """(acquisitions, calls) in *func*'s own body, each ``(what, held, line)``.

    Only sync ``with`` acquires: ``async with`` guards asyncio
    primitives, which suspend rather than block.
    """
    acquires: list = []
    calls: list = []

    def visit(node, held):
        if isinstance(node, (*_DEFS, ast.Lambda)):
            return
        if isinstance(node, ast.With):
            for item in node.items:
                lock = _lock_name(item.context_expr, module, cls)
                if lock is not None:
                    acquires.append((lock, held, node.lineno))
                    held = (*held, lock)
        elif isinstance(node, ast.Call) and (callee := _name(node.func)):
            calls.append((callee, held, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for stmt in func.body:
        visit(stmt, ())
    return acquires, calls


def _functions(module: Module):
    """``(qualname, path, acquires, calls)`` per function, nested defs too."""
    for stmt in module.tree.body:
        if isinstance(stmt, ast.ClassDef):
            tops = [(s, stmt.name) for s in stmt.body if isinstance(s, _DEFS)]
        elif isinstance(stmt, _DEFS):
            tops = [(stmt, None)]
        else:
            continue
        for top, cls in tops:
            owner = f"{module.name}.{cls}" if cls else module.name
            for func in ast.walk(top):
                if isinstance(func, _DEFS):
                    yield (
                        f"{owner}.{func.name}",
                        module.path,
                        *_lock_events(func, module.name, cls),
                    )


@dataclass
class LockGraph:
    """The static may-acquire-while-holding graph.

    ``edges`` maps ``(held, acquired)`` to one witnessing ``(path,
    line)``; the runtime tracker's observed edges must be a subset.
    """

    nodes: set[str] = field(default_factory=set)
    edges: dict = field(default_factory=dict)

    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def cycles(self) -> list[list[str]]:
        """Simple cycles, each found once from its smallest member."""
        adjacency: dict[str, set[str]] = {}
        for a, b in self.edges:
            adjacency.setdefault(a, set()).add(b)
        cycles: list[list[str]] = []
        seen: set[frozenset] = set()

        def dfs(start: str, node: str, path: list[str]) -> None:
            for nxt in adjacency.get(node, ()):
                if nxt == start:
                    if frozenset(path) not in seen:
                        seen.add(frozenset(path))
                        cycles.append(path[:])
                elif nxt not in path and nxt > start:
                    dfs(start, nxt, path + [nxt])

        for start in sorted(adjacency):
            dfs(start, start, [start])
        return cycles


def _lock_graph(modules: list[Module]) -> LockGraph:
    """Edges ``held -> acquired`` through nesting and resolved calls.

    A call resolves, one level, only when its simple name names exactly
    one function in *modules* and is not in :data:`_COMMON_NAMES`: a
    missed resolution under-approximates the graph, a wrong one invents
    deadlocks.  A fixpoint closes ``may_acquire`` over resolved calls.
    """
    functions = [f for m in modules for f in _functions(m)]
    simple = Counter(q.rsplit(".", 1)[-1] for q, *_ in functions)
    resolve = {
        q.rsplit(".", 1)[-1]: q
        for q, *_ in functions
        if simple[q.rsplit(".", 1)[-1]] == 1
        and q.rsplit(".", 1)[-1] not in _COMMON_NAMES
    }
    may = {q: {lock for lock, _, _ in acquires} for q, _, acquires, _ in functions}
    changed = True
    while changed:
        changed = False
        for q, _, _, calls in functions:
            before = len(may[q])
            for callee, _, _ in calls:
                if callee in resolve:
                    may[q] |= may[resolve[callee]]
            changed |= len(may[q]) != before

    graph = LockGraph()
    for _, path, acquires, calls in functions:
        reached = acquires + [
            (lock, held, line)
            for callee, held, line in calls
            if held and callee in resolve
            for lock in may[resolve[callee]]
        ]
        for lock, held, line in reached:
            graph.nodes.add(lock)
            for h in held:
                if h != lock:
                    graph.edges.setdefault((h, lock), (path, line))
    return graph


def build_lock_graph(paths) -> LockGraph:
    """The static lock graph of every ``*.py`` under *paths*."""
    return _lock_graph(load(paths))


def lock_order(modules: list[Module]):
    """The whole program's lock-acquisition graph has no cycle."""
    graph = _lock_graph(modules)
    by_path = {m.path: m for m in modules}
    for cycle in graph.cycles():
        path, line = graph.edges[(cycle[0], cycle[1])]
        yield by_path[path], line, (
            f"lock-order cycle: {' -> '.join(cycle + cycle[:1])}; threads "
            "taking these locks in different orders can deadlock"
        )


# ----------------------------------------------------------------------
# One class per rule
# ----------------------------------------------------------------------
class TestMutableDefault:
    def test_src_is_clean(self, src_modules):
        assert findings(mutable_default, src_modules) == []

    def test_flags_literal_and_call_defaults(self):
        code = """
        def f(a, b=[]):
            return b

        def g(x={}, *, y=set()):
            return x, y
        """
        assert len(flagged(mutable_default, code)) == 3

    def test_flags_async_def(self):
        code = """
        async def f(items=[]):
            return items
        """
        assert len(flagged(mutable_default, code)) == 1

    def test_silent_on_none_and_immutables(self):
        code = """
        def f(a=None, b=(), c="x", d=0):
            return a or []
        """
        assert flagged(mutable_default, code) == []


class TestFloatEq:
    def test_src_is_clean(self, src_modules):
        assert findings(float_eq, src_modules) == []

    def test_flags_float_equality(self):
        code = """
        import math

        def f(x):
            return x == 0.5 or x != math.pi
        """
        assert len(flagged(float_eq, code)) == 2

    def test_silent_on_tolerant_compare(self):
        code = """
        import math

        def f(x):
            return math.isclose(x, 0.5) or abs(x - 0.5) < 1e-9 or x == 3
        """
        assert flagged(float_eq, code) == []

    def test_line_suppression_with_reason(self):
        code = """
        def f(x):
            return x == 0.0  # lint: allow-float-eq -- exact sentinel
        """
        assert flagged(float_eq, code) == []


class TestViewReturn:
    def test_src_is_clean(self, src_modules):
        assert findings(view_return, src_modules) == []

    def test_flags_documented_copy_returning_view(self):
        code = """
        def shard_copy(arr):
            \"\"\"Return a copy of the first half.\"\"\"
            return arr[: len(arr) // 2]
        """
        assert len(flagged(view_return, code)) == 1

    def test_flags_async_def_too(self):
        code = """
        async def fetch_copy(arr):
            \"\"\"Return a fresh array of the buffer.\"\"\"
            return arr.reshape(-1)
        """
        assert len(flagged(view_return, code)) == 1

    def test_silent_when_copying_or_undocumented(self):
        code = """
        def shard_copy(arr):
            \"\"\"Return a copy of the first half.\"\"\"
            return arr[: len(arr) // 2].copy()

        def shard_view(arr):
            \"\"\"Return a view of the first half.\"\"\"
            return arr[: len(arr) // 2]
        """
        assert flagged(view_return, code) == []

    def test_nested_function_return_not_attributed(self):
        code = """
        def outer(arr):
            \"\"\"Return a copy of the table.\"\"\"
            def helper():
                return arr.ravel()
            return list(arr)
        """
        assert flagged(view_return, code) == []


OP_LOOP = """
def run(schedule, state):
    for op in schedule.operations():
        op.execute(state)
"""


class TestOpLoop:
    def test_src_is_clean(self, src_modules):
        assert findings(op_loop, src_modules) == []

    def test_flags_hand_rolled_executor(self):
        assert len(flagged(op_loop, OP_LOOP)) == 1

    def test_exempt_under_repro_runtime(self):
        assert flagged(op_loop, OP_LOOP, "src/repro/runtime/snippet.py") == []

    def test_silent_without_execute(self):
        code = """
        def count(schedule):
            return sum(1 for _ in schedule.operations())
        """
        assert flagged(op_loop, code) == []

    def test_flags_nested_execute(self):
        code = """
        def run(schedule, state):
            for index, op in enumerate(schedule.operations()):
                if index > 0:
                    op.execute(state)
        """
        assert len(flagged(op_loop, code)) == 1

    def test_layout_replay_is_fine(self):
        code = """
        def replay(schedule, layout):
            for op in schedule.operations():
                update_layout(op, layout)
        """
        assert flagged(op_loop, code) == []

    def test_execute_over_plain_iterable_is_fine(self):
        # Only loops over schedule.operations() are executor-shaped.
        code = """
        def run(ops, state):
            for op in ops:
                op.execute(state)
        """
        assert flagged(op_loop, code) == []

    def test_suppressible_inline(self):
        source = OP_LOOP.replace(
            "for op in schedule.operations():",
            "for op in schedule.operations():  # lint: allow-op-loop",
        )
        assert flagged(op_loop, source) == []


ENGINE_DIRECT = """
def run(schedule):
    from repro.runtime import ExecutionEngine

    return ExecutionEngine(schedule).run()
"""


class TestEngineDirect:
    def test_src_is_clean(self, src_modules):
        assert findings(engine_direct, src_modules) == []

    def test_flags_direct_construction(self):
        assert len(flagged(engine_direct, ENGINE_DIRECT)) == 1

    @pytest.mark.parametrize("subdir", ["repro/runtime", "repro/service"])
    def test_exempt_paths(self, subdir):
        path = f"src/{subdir}/snippet.py"
        assert flagged(engine_direct, ENGINE_DIRECT, path) == []

    def test_flags_attribute_construction(self):
        code = """
        def run(plan):
            return runtime.ExecutionEngine(plan, layers=[]).run()
        """
        assert len(flagged(engine_direct, code)) == 1

    def test_suppressible_inline(self):
        source = ENGINE_DIRECT.replace(
            "ExecutionEngine(schedule).run()",
            "ExecutionEngine(schedule).run()  # lint: allow-engine-direct",
        )
        assert flagged(engine_direct, source) == []


class TestBlockingInAsync:
    def test_src_is_clean(self, src_modules):
        assert findings(blocking_in_async, src_modules) == []

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
    def test_flags_blocking_calls(self, stmt):
        code = f"""
        import socket
        import subprocess
        import time

        async def handler(self, fut, path, worker_thread):
            {stmt}
        """
        assert len(flagged(blocking_in_async, code)) >= 1

    def test_silent_in_sync_def(self):
        code = """
        import time

        def warmup():
            time.sleep(0.1)
        """
        assert flagged(blocking_in_async, code) == []

    def test_silent_in_nested_sync_def(self):
        # A sync helper defined inside an async def runs wherever it is
        # called; flagging its body would be the caller's finding.
        code = """
        import time

        async def handler():
            def worker():
                time.sleep(0.1)
            return worker
        """
        assert flagged(blocking_in_async, code) == []

    def test_silent_on_async_idioms(self):
        code = """
        import asyncio

        async def handler(loop, executor, spec):
            await asyncio.sleep(0.1)
            plan = await loop.run_in_executor(executor, compile, spec)
            await loop.run_in_executor(None, executor.shutdown)
            return plan
        """
        assert flagged(blocking_in_async, code) == []


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

    def test_src_is_clean(self, src_modules):
        assert findings(unguarded_global, src_modules) == []

    def test_flags_unguarded_and_accepts_guarded(self):
        assert len(flagged(unguarded_global, self.CODE)) == 3

    def test_silent_without_declared_lock(self):
        code = """
        _CACHE = {}

        def put(key, value):
            _CACHE[key] = value
        """
        assert flagged(unguarded_global, code) == []

    def test_module_level_init_exempt(self):
        code = """
        import threading

        _LOCK = threading.Lock()
        _CACHE = {}
        _CACHE["seed"] = 1
        """
        assert flagged(unguarded_global, code) == []

    def test_global_rebind_flagged(self):
        code = """
        import threading

        _LOCK = threading.Lock()
        _TABLE = []

        def reset():
            global _TABLE
            _TABLE = []
        """
        assert len(flagged(unguarded_global, code)) == 1


class TestLockOrder:
    def test_src_is_clean(self, src_modules):
        assert findings(lock_order, src_modules) == []

    def test_flags_cycle(self):
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
        found = flagged(lock_order, code)
        assert len(found) == 1
        assert "deadlock" in found[0]

    def test_silent_on_consistent_order(self):
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
        assert flagged(lock_order, code) == []

    def test_cycle_through_call_resolution(self):
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
        assert len(flagged(lock_order, code)) == 1


class TestDaemonThreadLeak:
    def test_src_is_clean(self, src_modules):
        assert findings(daemon_thread_leak, src_modules) == []

    def test_flags_unjoined_thread(self):
        code = """
        import threading

        def spawn(fn):
            t = threading.Thread(target=fn)
            t.start()
        """
        assert len(flagged(daemon_thread_leak, code)) == 1

    def test_flags_unassigned_start_chain(self):
        code = """
        import threading

        def spawn(fn):
            threading.Thread(target=fn).start()
        """
        assert len(flagged(daemon_thread_leak, code)) == 1

    def test_silent_when_joined_or_with(self):
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
        assert flagged(daemon_thread_leak, code) == []

    def test_cross_method_attribute_cleanup(self):
        # Creation in __init__, shutdown via a *local* rebind in another
        # method: the service's teardown shape.
        code = """
        from concurrent.futures import ThreadPoolExecutor

        class Service:
            def __init__(self):
                self._executor = ThreadPoolExecutor(max_workers=4)

            async def shutdown(self, loop):
                executor = self._executor
                await loop.run_in_executor(None, executor.shutdown)
        """
        assert flagged(daemon_thread_leak, code) == []

    def test_comprehension_relaxation(self):
        code = """
        import multiprocessing as mp

        def run(n):
            workers = [mp.Process(target=print) for _ in range(n)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        """
        assert flagged(daemon_thread_leak, code) == []

    def test_registered_executor_by_name_is_clean(self):
        code = """
        from concurrent.futures import ThreadPoolExecutor

        from repro.util.executors import register_executor

        class Layer:
            def on_run_start(self):
                self._executor = ThreadPoolExecutor(max_workers=1)
                register_executor(self._executor)
        """
        assert flagged(daemon_thread_leak, code) == []

    def test_registered_executor_inline_is_clean(self):
        code = """
        from concurrent.futures import ThreadPoolExecutor

        from repro.util.executors import register_executor

        def make_pool():
            register_executor(ThreadPoolExecutor(max_workers=1))
        """
        assert flagged(daemon_thread_leak, code) == []

    def test_unregistered_executor_still_flags(self):
        # register_executor in the module must not blanket-exempt it:
        # a *different*, unregistered pool is still a leak.
        code = """
        from concurrent.futures import ThreadPoolExecutor

        from repro.util.executors import register_executor

        def make_pools():
            register_executor(ThreadPoolExecutor(max_workers=1))
            stray = ThreadPoolExecutor(max_workers=2)
            stray.submit(print)
        """
        assert len(flagged(daemon_thread_leak, code)) == 1


class TestMetricName:
    def test_src_is_clean(self, src_modules):
        assert findings(metric_name, src_modules) == []

    def test_flags_off_convention_names(self):
        code = """
        def instrument(registry):
            registry.counter("jobs")
            registry.gauge("QueueDepth.size")
            registry.histogram("service.Wait.Seconds")
        """
        found = flagged(metric_name, code)
        assert len(found) == 3
        assert "'jobs'" in found[0]

    def test_silent_on_convention_names(self):
        code = """
        def instrument(registry):
            registry.counter("comm.bytes_on_network")
            registry.gauge("service.queue.depth", tenant="a")
            registry.histogram("kernel.apply.seconds", k=4)
            registry.histogram("service.queue.wait_seconds")
        """
        assert flagged(metric_name, code) == []

    def test_silent_on_dynamic_names_and_other_calls(self):
        code = """
        def instrument(registry, name):
            registry.counter(name)
            registry.counter(f"service.{name}")
            registry.lookup("not a metric")
            counter("bare call, not a method")
        """
        assert flagged(metric_name, code) == []

    def test_line_suppression(self):
        code = """
        def instrument(registry):
            registry.counter("tmp")  # lint: allow-metric-name
        """
        assert flagged(metric_name, code) == []


PASS_MUTATION = """
def fold_pass(ops, ctx):
    ops.append(None)
    ops[0] = ops[-1]
    del ops[1]
    ops[0].stage += 1
    return ops

class Compiler:
    def sort_pass(self, ops):
        ops.sort()
        return ops
"""


class TestPlanPassMutation:
    PATH = "src/repro/plan/snippet.py"

    def test_src_is_clean(self, src_modules):
        assert findings(plan_pass_mutation, src_modules) == []

    def test_flags_mutation_of_the_input_stream(self):
        assert len(flagged(plan_pass_mutation, PASS_MUTATION, self.PATH)) == 5

    def test_silent_on_rebinding_helpers_and_other_packages(self):
        code = """
        def fold_pass(ops, ctx):
            out = list(ops)
            out.append(None)
            ops = tuple(out)
            ops += (None,)
            return ops

        def fold(ops):
            ops.append(None)
        """
        assert flagged(plan_pass_mutation, code, self.PATH) == []
        assert flagged(plan_pass_mutation, PASS_MUTATION) == []

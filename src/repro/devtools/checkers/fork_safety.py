"""Fork-safety rules.

The fleet's process-pool executor forks worker processes (where the ``fork``
start method is the platform default) and deliberately passes bulk data
through inherited module globals (:data:`repro.analysis.parallel._SHARD_WINDOWS`
and friends).  That design is sound only under discipline:

* **FS101** — no thread may be running, no lock held, no pool constructed
  at *import time*: any module imported before the fleet forks would
  poison every worker.
* **FS102** — a module-level global that functions rebind (``global X``)
  is process-shared state that crosses ``fork`` silently; each one must
  be declared intentional with a ``# repro: fork-shared`` marker comment
  on its module-level assignment (or suppressed), so fork-visible state
  is enumerable by grep.
* **FS103** — in a function that creates a :class:`ProcessPoolExecutor`,
  threads must be started only *after* the last ``submit`` call: workers
  fork at first submission, and forking with live threads can snapshot
  held locks into the child (the PR 7 feeder-thread rule).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..source import ModuleSource
from .base import (
    Checker,
    Rule,
    call_name,
    calls_in,
    module_top_level_statements,
    walk_functions,
)

_POOL_NAMES = {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool"}
_THREAD_NAMES = {"Thread", "Timer"}


def _base_name(name: str | None) -> str | None:
    return name.split(".")[-1] if name else None


class ForkSafetyChecker(Checker):
    name = "fork-safety"
    rules = (
        Rule(
            "FS101",
            Severity.ERROR,
            "no threads started, locks acquired or pools created at import time",
        ),
        Rule(
            "FS102",
            Severity.ERROR,
            "module-level globals rebound by functions must carry a "
            "'# repro: fork-shared' marker",
        ),
        Rule(
            "FS103",
            Severity.ERROR,
            "threads must start after the last pool.submit when a "
            "ProcessPoolExecutor is created (workers fork at first submission)",
        ),
    )

    def check_module(self, source: ModuleSource) -> Iterator[Finding]:
        yield from self._check_import_time(source)
        yield from self._check_fork_shared_globals(source)
        yield from self._check_start_before_submit(source)

    # ------------------------------------------------------------------ #
    # FS101
    # ------------------------------------------------------------------ #
    def _check_import_time(self, source: ModuleSource) -> Iterator[Finding]:
        for stmt in module_top_level_statements(source.tree):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in calls_in(stmt):
                name = call_name(call)
                base = _base_name(name)
                if base in _THREAD_NAMES and (
                    name in _THREAD_NAMES or name.startswith(("threading.", "multiprocessing."))
                ):
                    yield self.finding(
                        "FS101",
                        source,
                        call,
                        f"thread constructed at import time ({name}); forked "
                        "workers would inherit it mid-flight",
                    )
                elif base in _POOL_NAMES and base != "Pool":
                    yield self.finding(
                        "FS101",
                        source,
                        call,
                        f"executor created at import time ({name})",
                    )
                elif name == "multiprocessing.Pool":
                    yield self.finding(
                        "FS101", source, call, "process pool created at import time"
                    )
                elif name is not None and name.endswith(".acquire"):
                    yield self.finding(
                        "FS101",
                        source,
                        call,
                        f"lock acquired at import time ({name}); a fork would "
                        "inherit it held",
                    )

    # ------------------------------------------------------------------ #
    # FS102
    # ------------------------------------------------------------------ #
    def _check_fork_shared_globals(self, source: ModuleSource) -> Iterator[Finding]:
        rebound: set[str] = set()
        for function in walk_functions(source.tree):
            for stmt in ast.walk(function):
                if isinstance(stmt, ast.Global):
                    rebound.update(stmt.names)
        if not rebound:
            return
        reported: set[str] = set()
        for stmt in source.tree.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if not isinstance(target, ast.Name) or target.id not in rebound:
                    continue
                if target.id in reported:
                    continue
                end = getattr(stmt, "end_lineno", stmt.lineno)
                markers = source.suppressions.markers_on(stmt.lineno, end)
                if "fork-shared" in markers:
                    continue
                reported.add(target.id)
                yield self.finding(
                    "FS102",
                    source,
                    stmt,
                    f"module global {target.id!r} is rebound from function "
                    "scope and crosses fork boundaries undeclared; annotate "
                    "the assignment with '# repro: fork-shared' if intended",
                )

    # ------------------------------------------------------------------ #
    # FS103
    # ------------------------------------------------------------------ #
    def _check_start_before_submit(self, source: ModuleSource) -> Iterator[Finding]:
        for function in walk_functions(source.tree):
            creates_pool = False
            submit_lines: list[int] = []
            starts: list[ast.Call] = []
            for call in calls_in(function):
                name = call_name(call)
                base = _base_name(name)
                if base == "ProcessPoolExecutor":
                    creates_pool = True
                elif name is not None and name.endswith(".submit"):
                    submit_lines.append(call.lineno)
                elif name is not None and name.endswith(".start"):
                    starts.append(call)
            if not creates_pool or not submit_lines or not starts:
                continue
            last_submit = max(submit_lines)
            for call in starts:
                if call.lineno < last_submit:
                    yield self.finding(
                        "FS103",
                        source,
                        call,
                        "thread started before the pool's last submit call; "
                        "fork-context workers fork at first submission and "
                        "could snapshot the thread's held locks",
                    )

"""Concurrency rules (RPR1xx): lock discipline and worker state.

A lock acquired outside ``with``/try-finally deadlocks on the
exception edge, and a module global written from a worker entry point
silently diverges across the forked shard processes.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .base import Checker, FileContext, Finding, dotted_name, register

_LOCK_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
}


@register
class LockDisciplineChecker(Checker):
    """RPR103: threading locks held only via ``with`` or try/finally."""

    code = "RPR103"
    name = "lock-discipline"
    summary = (
        "threading.Lock/Condition acquired only via 'with' or "
        "try/finally release; a bare acquire() deadlocks on the "
        "exception edge"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        lock_names = self._lock_names(ctx)
        if not lock_names:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "acquire"):
                continue
            receiver = dotted_name(func.value)
            if receiver not in lock_names:
                continue
            if self._guarded(ctx, node, receiver):
                continue
            yield self.finding(
                ctx,
                node,
                f"explicit {receiver}.acquire() without a matching "
                "release() in a finally block; use 'with "
                f"{receiver}:' instead",
            )

    @staticmethod
    def _lock_names(ctx: FileContext) -> set:
        """Names/attribute chains bound to a threading lock factory."""
        names = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            factory = dotted_name(node.value.func)
            if factory.split(".")[-1] not in _LOCK_FACTORIES:
                continue
            for target in node.targets:
                name = dotted_name(target)
                if name:
                    names.add(name)
        return names

    @classmethod
    def _guarded(cls, ctx: FileContext, node: ast.Call,
                 receiver: str) -> bool:
        """True when a finally block releases the same lock — either a
        Try ancestor of the acquire, or (the classic idiom) a Try that
        is the next statement after the acquire in the same body."""
        for anc in ctx.ancestors(node):
            if isinstance(anc, ast.Try) and cls._releases(
                anc.finalbody, receiver
            ):
                return True
        stmt = cls._enclosing_statement(ctx, node)
        if stmt is not None:
            parent = ctx.parent(stmt)
            for field in ("body", "orelse", "finalbody"):
                siblings = getattr(parent, field, None)
                if not isinstance(siblings, list) or stmt not in siblings:
                    continue
                idx = siblings.index(stmt)
                if idx + 1 < len(siblings):
                    nxt = siblings[idx + 1]
                    if isinstance(nxt, ast.Try) and cls._releases(
                        nxt.finalbody, receiver
                    ):
                        return True
        return False

    @staticmethod
    def _releases(body, receiver: str) -> bool:
        for root in body:
            for sub in ast.walk(root):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "release"
                        and dotted_name(sub.func.value) == receiver):
                    return True
        return False

    @staticmethod
    def _enclosing_statement(ctx: FileContext, node: ast.AST):
        """The statement node whose parent holds it in a body list."""
        cur = node
        while cur is not None and not isinstance(cur, ast.stmt):
            cur = ctx.parent(cur)
        return cur


@register
class WorkerGlobalChecker(Checker):
    """RPR104: worker entry points must not write module globals."""

    code = "RPR104"
    name = "worker-global"
    summary = (
        "no 'global' writes from worker/_loop entry points; "
        "module-level mutable state is per-process and silently "
        "diverges across shard workers"
    )

    @staticmethod
    def _is_worker_name(name: str) -> bool:
        lowered = name.lower()
        return "worker" in lowered or lowered.endswith("_loop")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Global):
                continue
            func = ctx.enclosing_function(node)
            if func is None or not self._is_worker_name(func.name):
                continue
            yield self.finding(
                ctx,
                node,
                f"worker entry point {func.name}() declares global "
                f"{', '.join(node.names)}; pass state through the "
                "worker's task messages instead of module globals",
            )

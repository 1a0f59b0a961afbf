"""Hygiene rules (RPR4xx): exception handling in runtime code.

The sharded service deliberately catches broadly in a few places
(dead-worker reap, teardown races) — but each of those sites names the
narrow reason in a comment and does *something* with the error.  What
these rules refuse is the silent kind: a bare ``except:``, a swallowed
``BaseException`` (which eats ``KeyboardInterrupt``/``SystemExit`` and
turns Ctrl-C into a hang), and ``except Exception: pass`` in the
serving stack, where a swallowed error shows up later as a stuck
request or a missing result.

Scope: ``src/repro/runtime/`` only.  Outside the serving stack, ruff's
``E722``/``BLE001`` own this class of finding (see pyproject's
per-file-ignores, which hand the runtime tree to these rules so every
finding has exactly one owner).
"""

from __future__ import annotations

import ast
from typing import Iterable

from .base import Checker, FileContext, Finding, register


def _runtime_scope(path: str) -> bool:
    return "repro/runtime/" in path


def _names_exception(node: ast.AST, wanted: str) -> bool:
    """True when an except clause type names ``wanted`` (directly or
    inside a tuple)."""
    if isinstance(node, ast.Name):
        return node.id == wanted
    if isinstance(node, ast.Tuple):
        return any(_names_exception(elt, wanted) for elt in node.elts)
    return False


def _body_is_silent(body) -> bool:
    """A handler body of only pass/``...`` statements."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and stmt.value.value is Ellipsis:
            continue
        return False
    return True


@register
class BareExceptChecker(Checker):
    """RPR401: no bare ``except:`` in the serving stack."""

    code = "RPR401"
    name = "bare-except"
    summary = (
        "no bare 'except:' in runtime code; it catches "
        "SystemExit/KeyboardInterrupt and hides the real error class"
    )
    paths_note = "src/repro/runtime/"

    def applies(self, path: str) -> bool:
        return _runtime_scope(path)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare 'except:' catches BaseException; name the "
                    "exception classes this site can actually handle",
                )


@register
class SwallowedBaseExceptionChecker(Checker):
    """RPR402: ``except BaseException`` must re-raise."""

    code = "RPR402"
    name = "swallowed-base-exception"
    summary = (
        "'except BaseException' without a re-raise swallows "
        "KeyboardInterrupt/SystemExit and turns shutdown into a hang"
    )
    paths_note = "src/repro/runtime/"

    def applies(self, path: str) -> bool:
        return _runtime_scope(path)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                continue  # RPR401's finding, not a second one here
            if not _names_exception(node.type, "BaseException"):
                continue
            reraises = any(
                isinstance(sub, ast.Raise) for sub in ast.walk(node)
            )
            if reraises:
                continue
            yield self.finding(
                ctx,
                node,
                "except BaseException without re-raise; catch "
                "Exception instead, or end the handler with 'raise'",
            )


@register
class SilentExceptChecker(Checker):
    """RPR403: no ``except Exception: pass`` in the serving stack."""

    code = "RPR403"
    name = "silent-except"
    summary = (
        "'except Exception: pass' in runtime code; narrow the class "
        "to the one failure the site really tolerates"
    )
    paths_note = "src/repro/runtime/"

    def applies(self, path: str) -> bool:
        return _runtime_scope(path)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                continue
            if not _names_exception(node.type, "Exception"):
                continue
            if not _body_is_silent(node.body):
                continue
            yield self.finding(
                ctx,
                node,
                "except Exception: pass swallows every error class; "
                "catch the specific exception this site tolerates "
                "(and say why in a comment)",
            )

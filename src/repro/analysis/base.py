"""Core machinery for the repo-specific static analyzer.

The analyzer enforces the invariants the serving stack's bit-identity
guarantee rests on (lock discipline, error-schema conformance) as AST
checks with stable rule codes.  It is stdlib-only on purpose: like
``scripts/lint.py`` and ``scripts/check_report_schema.py`` it must run
offline, in CI, and in any contributor checkout without installing
anything.

Vocabulary
----------
* :class:`Finding` — one violation at one source location.
* :class:`Checker` — one rule; subclasses register themselves via
  :func:`register` and yield findings from :meth:`Checker.check`.
* :class:`FileContext` — a parsed file plus the parent map and scope
  helpers every checker needs.
* ``# repro: noqa[RPR103]`` on the flagged line suppresses a finding;
  ``# repro: noqa`` (no codes) suppresses every rule on that line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

# Rule code for files the analyzer cannot parse at all.  Not a Checker:
# there is no AST to hand one.
PARSE_ERROR_CODE = "RPR001"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9,\s]*)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: line numbers drift, so grandfathered
        findings match on (rule, path, stripped source line) instead."""
        return (self.rule, self.path, self.snippet.strip())

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


class FileContext:
    """A parsed source file with the lookups checkers share."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # -- tree navigation ------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from the node's parent up to the module root."""
        cur = self._parents.get(node)
        while cur is not None:
            yield cur
            cur = self._parents.get(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.AST]:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    # -- suppression ----------------------------------------------------
    def suppressed(self, lineno: int, rule: str) -> bool:
        """True when the physical line carries a matching
        ``# repro: noqa`` comment."""
        match = _NOQA_RE.search(self.line_text(lineno))
        if match is None:
            return False
        codes = match.group("codes")
        if codes is None:
            return True  # bare "repro: noqa" silences every rule
        wanted = {c.strip().upper() for c in codes.split(",") if c.strip()}
        return rule.upper() in wanted


class Checker:
    """Base class for one analyzer rule.

    Subclasses set ``code``/``name``/``summary``, optionally narrow
    ``applies`` to a path subset, and yield :class:`Finding` objects
    from :meth:`check`.  Use :meth:`finding` so snippets and locations
    stay uniform.
    """

    code: str = "RPR000"
    name: str = "abstract"
    summary: str = ""
    #: Human description of the path subset the rule runs on.
    paths_note: str = "all files"

    def applies(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (posix, repo-relative)."""
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.code,
            path=ctx.path,
            line=lineno,
            col=col,
            message=message,
            snippet=ctx.line_text(lineno).strip(),
        )


_REGISTRY: List[Type[Checker]] = []


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a rule to the global registry."""
    codes = {c.code for c in _REGISTRY}
    if cls.code in codes:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY.append(cls)
    return cls


def all_checkers() -> List[Checker]:
    """Fresh instances of every registered rule, sorted by code."""
    return [cls() for cls in sorted(_REGISTRY, key=lambda c: c.code)]


# -- shared AST helpers -------------------------------------------------

def call_name(node: ast.Call) -> str:
    """Dotted name of a call target: ``np.bitwise_count`` ->
    ``"np.bitwise_count"``; unresolvable shapes -> ``""``."""
    return dotted_name(node.func)


def dotted_name(node: ast.AST) -> str:
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
    elif not parts:
        return ""
    return ".".join(reversed(parts))


def literal_int(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    return None


def literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None

"""Analyzer driver: file walking, baseline, output, self-test, CLI.

Entry points:

* ``python scripts/analyze.py [targets...]`` — repo gate (exit 1 on
  any non-baselined finding).
* ``python -m repro.cli analyze`` — same driver behind the CLI.
* ``--self-test`` — the analyzer proves it still accepts every clean
  fixture and rejects every seeded violation before CI trusts it with
  the real tree (same contract as ``check_report_schema.py``).

The committed baseline (``ANALYSIS_baseline.json``) grandfathers
findings by ``(rule, path, stripped source line)`` so pure line drift
never resurrects them; it ships empty and should stay that way — fix
findings or suppress them at the site with ``# repro: noqa[RPRnnn]``.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .base import (
    PARSE_ERROR_CODE,
    Checker,
    FileContext,
    Finding,
    all_checkers,
)

# Importing the rule modules registers their checkers.
from . import api, concurrency, hygiene  # noqa: F401

BASELINE_VERSION = 1
DEFAULT_BASELINE = "ANALYSIS_baseline.json"
#: Directories the repo gate walks when no explicit targets are given
#: (mirrors scripts/lint.py's TARGETS).
DEFAULT_TARGETS = ("src", "scripts", "benchmarks", "tests")
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist", ".ruff_cache"}


# -- core analysis ------------------------------------------------------

def analyze_source(
    path: str, source: str, checkers: Optional[Sequence[Checker]] = None
) -> List[Finding]:
    """All findings for one source blob presented as ``path``."""
    norm = path.replace("\\", "/")
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        lineno = exc.lineno or 1
        lines = source.splitlines()
        snippet = lines[lineno - 1].strip() if 0 < lineno <= len(lines) else ""
        return [Finding(
            rule=PARSE_ERROR_CODE,
            path=norm,
            line=lineno,
            col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}",
            snippet=snippet,
        )]
    ctx = FileContext(norm, source, tree)
    findings: List[Finding] = []
    for checker in (checkers if checkers is not None else all_checkers()):
        if not checker.applies(norm):
            continue
        for finding in checker.check(ctx):
            if not ctx.suppressed(finding.line, finding.rule):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def iter_python_files(targets: Sequence[str], root: Path) -> Iterable[Path]:
    for target in targets:
        path = (root / target) if not Path(target).is_absolute() \
            else Path(target)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if any(part in _SKIP_DIRS for part in sub.parts):
                    continue
                yield sub


def analyze_paths(
    targets: Sequence[str], root: Optional[Path] = None
) -> List[Finding]:
    root = root or Path.cwd()
    checkers = all_checkers()
    findings: List[Finding] = []
    for file_path in iter_python_files(targets, root):
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(
                rule=PARSE_ERROR_CODE,
                path=_rel(file_path, root),
                line=1,
                col=0,
                message=f"file is unreadable: {exc}",
            ))
            continue
        findings.extend(
            analyze_source(_rel(file_path, root), source, checkers)
        )
    return findings


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


# -- baseline -----------------------------------------------------------

def load_baseline(path: Path) -> List[dict]:
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"{path}: expected a baseline object with version "
            f"{BASELINE_VERSION}"
        )
    entries = data.get("findings")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'findings' must be a list")
    for entry in entries:
        if not isinstance(entry, dict) or not (
            {"rule", "path", "snippet"} <= set(entry)
        ):
            raise ValueError(
                f"{path}: each baseline entry needs rule/path/snippet"
            )
    return entries


def apply_baseline(
    findings: Sequence[Finding], entries: Sequence[dict]
) -> Tuple[List[Finding], int, int]:
    """Split findings into (new, matched-count, stale-count).

    Matching is a multiset over ``Finding.key()``: two identical
    grandfathered lines need two baseline entries, and entries whose
    code was fixed in the meantime count as *stale* so the baseline
    shrinks instead of rotting.
    """
    budget: Dict[Tuple[str, str, str], int] = {}
    for entry in entries:
        key = (entry["rule"], entry["path"], entry["snippet"].strip())
        budget[key] = budget.get(key, 0) + 1
    fresh: List[Finding] = []
    matched = 0
    for finding in findings:
        key = finding.key()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            matched += 1
        else:
            fresh.append(finding)
    stale = sum(budget.values())
    return fresh, matched, stale


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {"rule": f.rule, "path": f.path, "snippet": f.snippet.strip()}
            for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule))
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# -- output -------------------------------------------------------------

def render_text(findings: Sequence[Finding]) -> str:
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}"
        for f in findings
    ]
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], matched: int = 0, stale: int = 0
) -> str:
    payload = {
        "version": BASELINE_VERSION,
        "findings": [f.to_json() for f in findings],
        "count": len(findings),
        "baselined": matched,
        "stale_baseline_entries": stale,
    }
    return json.dumps(payload, indent=2)


# -- self-test ----------------------------------------------------------

def run_self_test(verbose: bool = True) -> int:
    """0 when every clean fixture passes and every seeded violation is
    rejected with exactly its rule code; 1 otherwise."""
    from .fixtures import FIXTURES

    failures: List[str] = []
    checked = 0
    for fixture in FIXTURES:
        findings = analyze_source(fixture.path, fixture.source)
        codes = {f.rule for f in findings}
        checked += 1
        if fixture.kind == "violation":
            if fixture.rule not in codes:
                failures.append(
                    f"seeded {fixture.rule} violation NOT rejected "
                    f"({fixture.path}); got {sorted(codes) or 'nothing'}"
                )
        else:
            if codes:
                failures.append(
                    f"clean {fixture.rule} fixture rejected "
                    f"({fixture.path}): {sorted(codes)}"
                )
    # Suppression handling is part of the contract: a noqa'd seeded
    # violation must stop firing, and an unrelated code must not
    # silence it.
    from .fixtures import seeded_violations

    for fixture in seeded_violations():
        if fixture.rule == PARSE_ERROR_CODE:
            continue  # syntax errors have no line to annotate
        suppressed = _suppress_lines(fixture, f"# repro: noqa[{fixture.rule}]")
        if any(f.rule == fixture.rule
               for f in analyze_source(fixture.path, suppressed)):
            failures.append(
                f"{fixture.rule}: site noqa[{fixture.rule}] did not "
                "suppress the finding"
            )
        wrong = _suppress_lines(fixture, "# repro: noqa[RPR999]")
        if not any(f.rule == fixture.rule
                   for f in analyze_source(fixture.path, wrong)):
            failures.append(
                f"{fixture.rule}: unrelated noqa[RPR999] wrongly "
                "suppressed the finding"
            )
        checked += 2
    for line in failures:
        print(f"self-test FAIL: {line}", file=sys.stderr)
    if verbose and not failures:
        rules = sorted({c.code for c in all_checkers()} | {PARSE_ERROR_CODE})
        print(
            f"self-test OK: {checked} fixture checks across "
            f"{len(rules)} rules ({', '.join(rules)})"
        )
    return 1 if failures else 0


def _suppress_lines(fixture, comment: str) -> str:
    """The fixture source with ``comment`` appended to every line the
    fixture's rule fires on."""
    hits = {
        f.line for f in analyze_source(fixture.path, fixture.source)
        if f.rule == fixture.rule
    }
    lines = fixture.source.splitlines()
    return "\n".join(
        f"{line}  {comment}" if i + 1 in hits else line
        for i, line in enumerate(lines)
    ) + "\n"


# -- CLI ----------------------------------------------------------------

def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The analyzer's flag surface; shared verbatim by the standalone
    parser and the ``repro analyze`` CLI subcommand."""
    parser.add_argument(
        "targets", nargs="*",
        help=f"files/directories to analyze (default: "
             f"{' '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help="baseline file of grandfathered findings "
             f"(default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline to grandfather current findings "
             "(then exit 0)",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify the rules against the built-in clean/violating "
             "fixtures and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "Repo-specific static analyzer: enforces the runtime's "
            "concurrency (RPR1xx), API-contract (RPR3xx) and "
            "hygiene (RPR4xx) invariants. Stdlib-only."
        ),
    )
    add_arguments(parser)
    return parser


def list_rules() -> str:
    rows = [(c.code, c.name, c.paths_note, c.summary)
            for c in all_checkers()]
    rows.append((
        PARSE_ERROR_CODE, "parse-error", "all files",
        "file must parse with ast.parse before any rule can run",
    ))
    rows.sort()
    width = max(len(r[1]) for r in rows)
    return "\n".join(
        f"{code}  {name:<{width}}  [{paths}] {summary}"
        for code, name, paths, summary in rows
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Execute one analyzer invocation from parsed arguments."""
    if args.self_test:
        return run_self_test()
    if args.list_rules:
        print(list_rules())
        return 0

    targets = args.targets or list(DEFAULT_TARGETS)
    root = Path.cwd()
    findings = analyze_paths(targets, root)

    baseline_path = Path(args.baseline)
    if args.write_baseline:
        write_baseline(baseline_path, findings)
        print(
            f"wrote {len(findings)} grandfathered finding(s) to "
            f"{baseline_path}"
        )
        return 0

    matched = stale = 0
    if not args.no_baseline and baseline_path.is_file():
        entries = load_baseline(baseline_path)
        findings, matched, stale = apply_baseline(findings, entries)

    if args.json:
        print(render_json(findings, matched, stale))
    else:
        if findings:
            print(render_text(findings))
        summary = (
            f"{len(findings)} finding(s)"
            + (f", {matched} baselined" if matched else "")
            + (f", {stale} stale baseline entr"
               f"{'y' if stale == 1 else 'ies'}" if stale else "")
        )
        print(f"repro analyze: {summary} in {' '.join(targets)}")
        if stale:
            print(
                "  stale entries no longer match any finding; prune "
                "them with --write-baseline", file=sys.stderr,
            )
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())

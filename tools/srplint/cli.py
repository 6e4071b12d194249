"""srplint command-line interface.

Usage::

    PYTHONPATH=tools python -m srplint src/ [--format text|github]
    PYTHONPATH=tools python -m srplint src/ tools/ --project --json
    python tools/srplint src/           # path bootstrap in __main__

Modes:

* default — per-file rules only (SRP002–SRP006), one file at a time;
* ``--project`` — additionally builds the whole-program index
  (:mod:`srplint.project`) once and runs the project rules
  (SRP007–SRP010: transitive determinism, acquire/release pairing,
  thread-shared-state discipline, protocol exhaustiveness).

Output: classic ``path:line:col: CODE message`` lines, ``--format
github`` workflow-command annotations, or ``--json`` (a single object
with findings, per-rule counts and the pragma audit, for other
tools).  ``--summary PATH``
appends a markdown job summary (per-rule counts + pragma inventory),
``$GITHUB_STEP_SUMMARY``-ready.

``--cache PATH`` keeps a content-hash result cache: the run key hashes
every linted file, the rule selection and the mode, so an unchanged
tree re-reports instantly without re-analysis.  ``--report-unused-
pragmas`` (implies ``--project``) fails the run when a ``# srplint:``
suppression no longer suppresses anything — dead pragmas rot into
blanket exemptions otherwise.

Exit status: 0 clean, 1 findings (or dead pragmas), 2 usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from srplint.engine import (
    Finding,
    TOOL_CODE,
    default_rules,
    iter_python_files,
    run_path,
)

_CACHE_VERSION = 1
_CACHE_KEEP = 8
_DEFAULT_EXCLUDE = ("tests/fixtures",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srplint",
        description="AST-level invariant checker for the SRP reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--project", action="store_true",
        help="whole-program mode: build the module index + call graph "
             "and run the project rules (SRP007-SRP010)",
    )
    parser.add_argument(
        "--format", choices=("text", "github"), default="text",
        help="output format: human-readable lines or GitHub annotations",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one JSON object (findings, counts, pragma audit) "
             "instead of text lines",
    )
    parser.add_argument(
        "--summary", metavar="PATH",
        help="append a markdown run summary to PATH "
             "(pass $GITHUB_STEP_SUMMARY in CI)",
    )
    parser.add_argument(
        "--cache", metavar="PATH",
        help="content-hash result cache file; unchanged trees "
             "re-report without re-analysis",
    )
    parser.add_argument(
        "--report-unused-pragmas", action="store_true",
        help="fail when a '# srplint:' pragma no longer suppresses or "
             "informs anything (implies --project)",
    )
    parser.add_argument(
        "--exclude", action="append", default=None, metavar="SUBSTRING",
        help="skip files whose path contains SUBSTRING "
             f"(default: {', '.join(_DEFAULT_EXCLUDE)})",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary line",
    )
    return parser


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
def _run_key(
    files: Sequence[Path], rule_codes: Sequence[str], mode: str
) -> str:
    digest = hashlib.sha256()
    digest.update(f"v{_CACHE_VERSION}|{mode}|{','.join(rule_codes)}".encode())
    for path in files:
        digest.update(path.as_posix().encode())
        digest.update(hashlib.sha256(path.read_bytes()).hexdigest().encode())
    return digest.hexdigest()


def _cache_load(cache_path: str, key: str) -> Optional[dict]:
    try:
        store = json.loads(Path(cache_path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if store.get("version") != _CACHE_VERSION:
        return None
    entry = store.get("runs", {}).get(key)
    return entry if isinstance(entry, dict) else None


def _cache_store(cache_path: str, key: str, result: dict) -> None:
    path = Path(cache_path)
    try:
        store = json.loads(path.read_text(encoding="utf-8"))
        if store.get("version") != _CACHE_VERSION:
            raise ValueError
    except (OSError, ValueError):
        store = {"version": _CACHE_VERSION, "runs": {}, "order": []}
    runs = store.setdefault("runs", {})
    order = store.setdefault("order", [])
    if key in runs:
        order = [k for k in order if k != key]
    runs[key] = result
    order.append(key)
    while len(order) > _CACHE_KEEP:
        runs.pop(order.pop(0), None)
    store["order"] = order
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(store, indent=1), encoding="utf-8")
    except OSError:
        pass  # an unwritable cache must never fail the lint


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _execute(
    files: List[Path],
    rules,
    project_mode: bool,
    audit_pragmas: bool,
    exclude: Sequence[str],
    paths: Sequence[str],
) -> dict:
    """Run the lint and return the JSON-shaped result object."""
    findings: List[Finding]
    pragma_entries: List[Tuple[str, int, str, str]] = []
    unused: List[Tuple[str, int, str, str]] = []
    if project_mode:
        from srplint.project import run_project

        findings, project = run_project(
            [str(p) for p in paths], rules=rules, exclude=exclude
        )
        active = {rule.code for rule in rules}
        for path in sorted(project.modules):
            pragmas = project.modules[path].pragmas
            for line, directive, reason in pragmas.entries:
                pragma_entries.append((path, line, directive, reason))
            if audit_pragmas:
                for line, directive, reason in pragmas.unused_entries(active):
                    unused.append((path, line, directive, reason))
    else:
        findings = []
        for path in files:
            findings.extend(run_path(path, rules=rules))

    for path, line, directive, reason in unused:
        findings.append(
            Finding(
                path, line, 0, TOOL_CODE,
                f"unused srplint pragma '{directive}' — nothing here "
                "triggers the rule it suppresses; delete it "
                f"(stale reason: {reason})",
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return {
        "files_checked": len(files),
        "findings": [
            {"path": f.path, "line": f.line, "col": f.col,
             "code": f.code, "message": f.message}
            for f in findings
        ],
        "counts": counts,
        "pragmas": [
            {"path": p, "line": ln, "directive": d, "reason": r}
            for p, ln, d, r in pragma_entries
        ],
        "unused_pragmas": [
            {"path": p, "line": ln, "directive": d, "reason": r}
            for p, ln, d, r in unused
        ],
    }


def _write_summary(summary_path: str, result: dict, rules) -> None:
    names = {rule.code: rule.name for rule in rules}
    lines = ["## srplint", ""]
    lines.append(f"{result['files_checked']} file(s) checked, "
                 f"{len(result['findings'])} finding(s).")
    lines.append("")
    lines.append("| rule | findings |")
    lines.append("| --- | ---: |")
    for rule in rules:
        lines.append(
            f"| {rule.code} {names[rule.code]} "
            f"| {result['counts'].get(rule.code, 0)} |"
        )
    tool_count = result["counts"].get(TOOL_CODE, 0)
    if tool_count:
        lines.append(f"| {TOOL_CODE} tool/pragma-audit | {tool_count} |")
    lines.append("")
    pragmas = result.get("pragmas", [])
    lines.append(f"### pragma inventory ({len(pragmas)})")
    lines.append("")
    for entry in pragmas:
        mark = " **(unused)**" if any(
            u["path"] == entry["path"] and u["line"] == entry["line"]
            for u in result.get("unused_pragmas", [])
        ) else ""
        lines.append(
            f"- `{entry['path']}:{entry['line']}` `{entry['directive']}` "
            f"— {entry['reason']}{mark}"
        )
    lines.append("")
    with open(summary_path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rules = default_rules()
    if args.report_unused_pragmas:
        args.project = True

    if args.list_rules:
        for rule in rules:
            doc = (type(rule).__doc__ or "").strip().splitlines()[0]
            print(f"{rule.code}  {rule.name:<24} {doc}")
        return 0

    if args.select:
        wanted = {code.strip().upper() for code in args.select.split(",")}
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            print(f"srplint: unknown rule code(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.code in wanted]

    exclude = tuple(args.exclude) if args.exclude else _DEFAULT_EXCLUDE
    files = sorted(iter_python_files(args.paths, exclude=exclude))
    if not files:
        print(f"srplint: no python files found under: {' '.join(args.paths)}",
              file=sys.stderr)
        return 2

    mode = "project" if args.project else "files"
    if args.report_unused_pragmas:
        mode += "+pragma-audit"
    cache_state = None
    result: Optional[dict] = None
    key = ""
    if args.cache:
        key = _run_key(files, [r.code for r in rules], mode)
        result = _cache_load(args.cache, key)
        cache_state = "hit" if result is not None else "miss"
    if result is None:
        result = _execute(
            files, rules, args.project, args.report_unused_pragmas,
            exclude, args.paths,
        )
        if args.cache:
            _cache_store(args.cache, key, result)
    result["cache"] = cache_state

    findings = [
        Finding(f["path"], f["line"], f["col"], f["code"], f["message"])
        for f in result["findings"]
    ]
    if args.as_json:
        print(json.dumps(result, indent=1))
    else:
        for finding in findings:
            if args.format == "github":
                print(finding.render_github())
            else:
                print(finding.render())

    if args.summary:
        _write_summary(args.summary, result, rules)

    if not args.quiet and not args.as_json:
        status = f"{len(findings)} finding(s)" if findings else "clean"
        suffix = f" [cache {cache_state}]" if cache_state else ""
        print(
            f"srplint: {result['files_checked']} file(s) checked, "
            f"{status}{suffix}",
            file=sys.stderr,
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())

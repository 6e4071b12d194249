"""Core srplint engine: findings, pragmas, rule protocol, file runner.

A :class:`Rule` inspects one parsed module and yields :class:`Finding`
records.  The engine owns everything rule-independent: discovering
files, parsing, extracting ``# srplint:`` suppression pragmas with
:mod:`tokenize` (so pragmas inside string literals are never honoured),
and filtering findings through those pragmas.

Pragma syntax (one comment, trailing the offending line)::

    x = 0.5  # srplint: allow-float  <reason why a float is sound here>
    foo()    # srplint: allow(SRP003) <reason>
    return ok  # srplint: holds(claim_boundary_hold) <reason>
    self.done = 1  # srplint: shared(done) <reason>

``allow-float`` is sugar for ``allow(SRP002)``.  ``holds(...)`` declares
that the annotated ``return`` intentionally exits with the named
resources still acquired (a 2PC *prepare* handing claims to its
coordinator — consumed by SRP008); ``shared(...)`` declares the named
attributes/variables safe to touch from a thread body without a lock
(immutable hand-off, monotonic flag — consumed by SRP009).  A pragma
**must** carry a non-empty reason, and an ``allow(CODE)`` must name a
registered rule; a bare pragma, or one naming an unknown or retired
rule, is itself reported as ``SRP000`` so that suppressions stay
auditable
(``--summary`` lists the full pragma inventory in CI job summaries).
Project mode additionally tracks which pragmas
actually fired, so dead suppressions are reported by
``--report-unused-pragmas`` instead of quietly accumulating.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Code used for tool-level problems (unparsable file, malformed pragma).
TOOL_CODE = "SRP000"

_PRAGMA_RE = re.compile(
    r"#\s*srplint:\s*(?P<directive>allow-float|allow\((?P<code>[A-Z]{3}\d{3})\)"
    r"|holds\((?P<holds>[A-Za-z_][\w ,]*)\)"
    r"|shared\((?P<shared>[A-Za-z_][\w ,]*)\))"
    r"(?P<reason>.*)$"
)


def _split_names(raw: str) -> Tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation (or tool error) at a location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """Classic ``path:line:col: CODE message`` single-line form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def render_github(self) -> str:
        """GitHub Actions workflow-command annotation form."""
        return (
            f"::error file={self.path},line={self.line},col={self.col},"
            f"title={self.code}::{self.message}"
        )


@dataclass
class Pragmas:
    """Per-file suppression table extracted from ``# srplint:`` comments."""

    #: line -> set of rule codes allowed on that line
    allowed: Dict[int, set] = field(default_factory=dict)
    #: tool-level findings for malformed pragmas
    errors: List[Tuple[int, int, str]] = field(default_factory=list)
    #: (line, directive, reason) for every well-formed pragma (audit feed)
    entries: List[Tuple[int, str, str]] = field(default_factory=list)
    #: line -> resource names an exit on that line may legitimately hold
    #: (SRP008's 2PC-prepare escape hatch)
    holds: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    #: file-scoped attribute/variable names declared safe to share across
    #: threads without a lock (SRP009), name -> declaration line
    shared: Dict[str, int] = field(default_factory=dict)
    #: (line, directive) pairs that suppressed or informed ≥1 finding —
    #: everything else is a dead pragma (``--report-unused-pragmas``)
    used: set = field(default_factory=set)

    def allows(self, line: int, code: str) -> bool:
        if code in self.allowed.get(line, ()):
            self.mark_used(line, f"allow({code})")
            if code == "SRP002":
                self.mark_used(line, "allow-float")
            return True
        return False

    def mark_used(self, line: int, directive: str) -> None:
        self.used.add((line, directive))

    def mark_holds_used(self, line: int) -> None:
        """Mark the ``holds(...)`` entry on *line* as consulted (SRP008)."""
        for entry_line, directive, _reason in self.entries:
            if entry_line == line and directive.startswith("holds("):
                self.used.add((entry_line, directive))

    def mark_shared_used(self, name: str) -> None:
        """Mark the ``shared(...)`` entry declaring *name* as consulted."""
        line = self.shared.get(name)
        if line is None:
            return
        for entry_line, directive, _reason in self.entries:
            if entry_line == line and directive.startswith("shared("):
                self.used.add((entry_line, directive))

    def unused_entries(self, active_codes: set) -> List[Tuple[int, str, str]]:
        """Pragma entries that never fired, restricted to *active_codes*.

        A pragma for a rule that was not part of this run is never
        reported: only codes the run could have exercised count.
        ``holds``/``shared`` map to the rules that consume them.
        """
        out: List[Tuple[int, str, str]] = []
        for line, directive, reason in self.entries:
            if directive.startswith("allow-float"):
                code = "SRP002"
            elif directive.startswith("allow("):
                code = directive[6:12]
            elif directive.startswith("holds("):
                code = "SRP008"
            else:  # shared(...)
                code = "SRP009"
            if code not in active_codes:
                continue
            if (line, directive) not in self.used:
                out.append((line, directive, reason))
        return out


def registered_codes() -> frozenset:
    """Codes owned by a built-in rule: the ``allow(CODE)`` vocabulary."""
    from srplint.rules import ALL_RULES

    return frozenset(rule_cls.code for rule_cls in ALL_RULES)


def extract_pragmas(source: str) -> Pragmas:
    """Scan *source* comments for ``# srplint:`` pragmas.

    Uses :mod:`tokenize` so string literals that merely contain the
    pragma text are ignored.  Falls back to a line scan when the file
    does not tokenize (the parse error is reported separately).
    """
    known = registered_codes()
    pragmas = Pragmas()
    comments: List[Tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "#" in text:
                idx = text.index("#")
                comments.append((lineno, idx, text[idx:]))
    for lineno, col, text in comments:
        match = _PRAGMA_RE.search(text)
        if match is None:
            # Only comments that look like a pragma (tool name followed
            # by a colon) are errors; prose mentions are fine.
            if "srplint" + ":" in text:
                pragmas.errors.append(
                    (lineno, col, "unrecognised srplint pragma (expected "
                     "'# srplint: allow-float <reason>' or "
                     "'# srplint: allow(CODE) <reason>')")
                )
            continue
        directive = match.group("directive")
        reason = match.group("reason").strip(" :-—")
        if not reason:
            pragmas.errors.append(
                (lineno, col,
                 f"srplint pragma '{directive}' is missing a reason")
            )
            continue
        code = match.group("code")
        if code is not None and code not in known:
            # Nothing would ever consult it, so no run could report it
            # unused either: a retired rule's pragma would linger forever.
            pragmas.errors.append(
                (lineno, col,
                 f"srplint pragma '{directive}' names no registered rule")
            )
            continue
        if match.group("holds") is not None:
            names = _split_names(match.group("holds"))
            pragmas.holds[lineno] = pragmas.holds.get(lineno, ()) + names
        elif match.group("shared") is not None:
            for name in _split_names(match.group("shared")):
                pragmas.shared[name] = lineno
        else:
            pragmas.allowed.setdefault(lineno, set()).add(code or "SRP002")
        pragmas.entries.append((lineno, directive, reason))
    return pragmas


class Rule:
    """Base class for srplint rules.

    Subclasses set :attr:`code`, :attr:`name`, :attr:`scope` and
    implement :meth:`check`.  ``scope`` is a tuple of POSIX path
    substrings; an empty tuple applies the rule to every file.
    """

    code: str = TOOL_CODE
    name: str = "base"
    scope: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not self.scope:
            return True
        posix = path.replace("\\", "/")
        return any(part in posix for part in self.scope)

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules (SRP007–SRP010).

    A project rule sees the complete
    :class:`srplint.project.ProjectIndex` — every parsed module, the
    function index, the call graph — instead of one tree at a time, so
    it can reason across files and processes.  ``scope`` still applies:
    it selects which modules' *definitions* the rule analyses (findings
    may land anywhere the analysis reaches).  In per-file mode project
    rules are silent; ``--project`` runs them exactly once per run.
    """

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        return []

    def check_project(self, project: "object") -> List[Finding]:
        raise NotImplementedError


def default_rules() -> List[Rule]:
    """Instantiate the built-in rule set (imported lazily to avoid cycles)."""
    from srplint.rules import ALL_RULES

    return [rule_cls() for rule_cls in ALL_RULES]


def run_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    respect_scope: bool = True,
) -> List[Finding]:
    """Lint one module's *source*; returns findings sorted by location.

    ``respect_scope=False`` runs every given rule regardless of its
    path scope — used by the fixture tests, which live outside the
    paths the rules target in the real tree.
    """
    if rules is None:
        rules = default_rules()
    pragmas = extract_pragmas(source)
    findings: List[Finding] = [
        Finding(path, line, col, TOOL_CODE, message)
        for line, col, message in pragmas.errors
    ]
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append(
            Finding(path, exc.lineno or 1, (exc.offset or 1) - 1, TOOL_CODE,
                    f"could not parse file: {exc.msg}")
        )
        return sorted(findings, key=lambda f: (f.line, f.col, f.code))
    for rule in rules:
        if respect_scope and not rule.applies_to(path):
            continue
        for finding in rule.check(tree, path):
            if pragmas.allows(finding.line, finding.code):
                continue
            findings.append(finding)
    return sorted(findings, key=lambda f: (f.line, f.col, f.code))


def run_path(
    path: Path,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one file on disk."""
    source = path.read_text(encoding="utf-8")
    return run_source(source, str(path), rules=rules)


def iter_python_files(
    paths: Iterable[str], exclude: Sequence[str] = ()
) -> Iterator[Path]:
    """Yield every ``.py`` file under *paths* (files or directories).

    ``exclude`` is a sequence of POSIX path substrings; any file whose
    path contains one is skipped (the CLI default excludes the seeded
    rule-violation fixtures under ``tests/fixtures/``).
    """

    def keep(p: Path) -> bool:
        posix = p.as_posix()
        return not any(part in posix for part in exclude)

    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from (f for f in sorted(p.rglob("*.py")) if keep(f))
        elif p.suffix == ".py" and keep(p):
            yield p

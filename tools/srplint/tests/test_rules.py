"""Fixture-driven tests for the srplint rules.

Each seeded-violation fixture must produce the exact (code, line) pairs
listed here — no more, no fewer — and the companion "good" fixtures must
come back clean.  A final test asserts the real tree under ``src/`` is
clean, which is the same gate CI enforces via ``python -m srplint src/``.
"""

from pathlib import Path

from srplint.engine import default_rules, extract_pragmas, run_path, run_source

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[3]


def lint_fixture(name):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return run_source(source, str(FIXTURES / name),
                      rules=default_rules(), respect_scope=False)


def codes_and_lines(findings):
    return [(f.code, f.line) for f in findings]


class TestSRP002IntArithmetic:
    def test_seeded_violations_exact(self):
        findings = [f for f in lint_fixture("srp002_bad.py") if f.code == "SRP002"]
        assert codes_and_lines(findings) == [
            ("SRP002", 6),   # true division
            ("SRP002", 10),  # float literal
            ("SRP002", 11),  # float() conversion
            ("SRP002", 15),  # math.sqrt
        ]

    def test_integer_safe_math_not_flagged(self):
        lines = {f.line for f in lint_fixture("srp002_bad.py")}
        assert 19 not in lines  # math.floor / math.isqrt line


class TestSRP003Determinism:
    def test_seeded_violations_exact(self):
        findings = [f for f in lint_fixture("srp003_bad.py") if f.code == "SRP003"]
        assert codes_and_lines(findings) == [
            ("SRP003", 8),   # time.time
            ("SRP003", 9),   # datetime.now
            ("SRP003", 14),  # random.randint
            ("SRP003", 19),  # set-literal iteration
            ("SRP003", 21),  # set(...) iteration
        ]

    def test_seeded_and_reporting_uses_not_flagged(self):
        lines = {f.line for f in lint_fixture("srp003_bad.py")}
        # random.Random(seed), perf_counter, sorted(set(...)) are all fine
        assert not lines & {27, 28, 29}


class TestSRP004Diagnostics:
    def test_seeded_violations_exact(self):
        findings = [f for f in lint_fixture("srp004_bad.py") if f.code == "SRP004"]
        assert codes_and_lines(findings) == [
            ("SRP004", 6),  # bare PlanningFailedError
            ("SRP004", 7),  # bare SimulationError
        ]

    def test_contextful_reraise_and_subclass_not_flagged(self):
        lines = {f.line for f in lint_fixture("srp004_bad.py")}
        assert not lines & {12, 16, 17}


class TestSRP006IntegerDtypes:
    def test_seeded_violations_exact(self):
        findings = [f for f in lint_fixture("srp006_bad.py") if f.code == "SRP006"]
        assert codes_and_lines(findings) == [
            ("SRP006", 8),   # np.zeros without dtype (float64 default)
            ("SRP006", 12),  # explicit float dtype
            ("SRP006", 16),  # float string dtype code
            ("SRP006", 20),  # arange with float dtype
            ("SRP006", 24),  # linspace
            ("SRP006", 28),  # array.array float typecode
        ]

    def test_integer_shapes_not_flagged(self):
        findings = [f for f in lint_fixture("srp006_bad.py") if f.code == "SRP006"]
        assert not {f.line for f in findings} & set(range(31, 40))

    def test_clean_columnar_shapes_accepted(self):
        findings = [f for f in lint_fixture("srp006_good.py") if f.code == "SRP006"]
        assert findings == []


class TestPragmas:
    def test_allow_float_with_reason_suppresses(self):
        findings = lint_fixture("pragmas.py")
        assert codes_and_lines(findings) == [
            ("SRP002", 12),  # division under a reason-less pragma still fires
            ("SRP000", 12),  # ...and the reason-less pragma itself is flagged
            ("SRP002", 18),  # un-pragma'd float literal
        ]

    def test_pragma_entries_feed_the_audit(self):
        source = (FIXTURES / "pragmas.py").read_text(encoding="utf-8")
        pragmas = extract_pragmas(source)
        assert [(line, directive) for line, directive, _ in pragmas.entries] == [
            (7, "allow-float"),
            (8, "allow-float"),
        ]
        assert all(reason for _, _, reason in pragmas.entries)

    def test_pragma_in_string_literal_ignored(self):
        source = 's = "# srplint: allow-float not a pragma"\nx = 1.5\n'
        findings = run_source(source, "repro/core/x.py", rules=default_rules())
        assert codes_and_lines(findings) == [("SRP002", 2)]

    def test_allow_code_form(self):
        source = (
            "import time\n"
            "t = time.time()  # srplint: allow(SRP003) fixture clock\n"
        )
        findings = run_source(source, "repro/core/x.py", rules=default_rules())
        assert findings == []

    def test_unregistered_code_reported(self):
        """A pragma no rule owns would never fire, so no run could call
        it unused: it is a tool finding instead, like a malformed one."""
        findings = lint_fixture("pragmas_unregistered.py")
        assert codes_and_lines(findings) == [("SRP000", 7), ("SRP000", 11)]
        assert all("no registered rule" in f.message for f in findings)

    def test_unregistered_code_fails_pragma_audit(self, tmp_path):
        from srplint.cli import main

        mod = tmp_path / "repro" / "core" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            (FIXTURES / "pragmas_unregistered.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert main(
            [str(tmp_path), "--project", "--report-unused-pragmas", "--quiet"]
        ) == 1


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        findings = run_source("def broken(:\n", "repro/core/x.py")
        assert [f.code for f in findings] == ["SRP000"]

    def test_scope_respected(self):
        source = "x = 1.5\n"
        assert run_source(source, "src/repro/core/a.py") != []
        assert run_source(source, "src/repro/simulation/a.py") == []

    def test_service_determinism_scope_split(self):
        """SRP003 covers the service's pure half but not its I/O half.

        The scheduler (``core.py``) and the telemetry registry
        (``telemetry.py``) must stay wall-clock-free; the socket
        frontend and the load generator are the designated homes for
        real time and must stay *out* of scope.
        """
        source = "import time\nnow = time.time()\n"
        in_scope = ("src/repro/service/core.py", "src/repro/service/telemetry.py")
        out_of_scope = (
            "src/repro/service/server.py",
            "src/repro/service/loadgen.py",
            "src/repro/service/protocol.py",
        )
        for path in in_scope:
            findings = run_source(source, path)
            assert [f.code for f in findings] == ["SRP003"], path
        for path in out_of_scope:
            assert run_source(source, path) == [], path

    def test_sharding_module_in_determinism_scope(self):
        """Region sharding replays bit-for-bit given the same partition,
        so ``repro/service/sharding.py`` is SRP003-scoped: no wall
        clock, no unseeded randomness, no unordered-set iteration in
        the partitioner, router, or workers."""
        path = "src/repro/service/sharding.py"
        clock = "import time\nnow = time.time()\n"
        assert [f.code for f in run_source(clock, path)] == ["SRP003"]
        set_iter = "def route(ids):\n    return [s for s in set(ids)]\n"
        assert [f.code for f in run_source(set_iter, path)] == ["SRP003"]
        rand = "import random\nchoice = random.randint(0, 3)\n"
        assert [f.code for f in run_source(rand, path)] == ["SRP003"]
        ok = (
            "import time\n"
            "def span():\n"
            "    return time.perf_counter()\n"
        )
        assert run_source(ok, path) == []

    def test_charging_modules_in_determinism_scope(self):
        """The battery/charging subsystem feeds route planning (charge
        trips commit occupancy), so ``repro/simulation/energy.py`` and
        ``repro/simulation/charging.py`` are SRP003-scoped: integer
        drain arithmetic, deterministic station placement, and
        wall-clock-free admission times."""
        clock = "import time\nnow = time.time()\n"
        rand = "import random\npad = random.randint(0, 3)\n"
        set_iter = "def pick(cells):\n    return [c for c in set(cells)]\n"
        for path in (
            "src/repro/simulation/energy.py",
            "src/repro/simulation/charging.py",
        ):
            for source in (clock, rand, set_iter):
                findings = run_source(source, path)
                assert [f.code for f in findings] == ["SRP003"], path

    def test_recovery_module_in_determinism_scope(self):
        """Joint cluster recovery replays from the fault seed, so
        ``repro/simulation/recovery.py`` is SRP003-scoped while the rest
        of the simulation package (real-time metrics sampling) is not."""
        source = "import time\nnow = time.time()\n"
        findings = run_source(source, "src/repro/simulation/recovery.py")
        assert [f.code for f in findings] == ["SRP003"]
        assert run_source(source, "src/repro/simulation/metrics.py") == []

    def test_clean_tree_zero_findings(self):
        """The committed tree must satisfy every invariant — same gate as CI."""
        src = REPO_ROOT / "src"
        assert src.is_dir()
        findings = []
        for path in sorted(src.rglob("*.py")):
            findings.extend(run_path(path))
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)


class TestCLI:
    def test_exit_codes_and_github_format(self, tmp_path, capsys):
        from srplint.cli import main

        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("x = 2.5\n", encoding="utf-8")
        assert main([str(tmp_path), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=SRP002" in out

        good = tmp_path / "repro" / "core" / "good.py"
        good.write_text("x = 2\n", encoding="utf-8")
        bad.unlink()
        assert main([str(tmp_path)]) == 0

    def test_select_unknown_code_is_usage_error(self):
        from srplint.cli import main

        assert main(["--select", "SRP999", "."]) == 2

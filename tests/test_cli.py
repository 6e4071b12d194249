"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_cell, build_parser, main


class TestParsing:
    def test_parse_cell(self):
        assert _parse_cell("3,7") == (3, 7)

    def test_parse_cell_bad(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_cell("3;7")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--dataset", "W-1", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "strip vertices" in out
        assert "W-1@0.2" in out

    def test_info_from_layout_file(self, capsys, tmp_path, small_warehouse):
        from repro.warehouse import save_warehouse

        path = tmp_path / "wh.json"
        save_warehouse(small_warehouse, path)
        assert main(["info", "--layout", str(path)]) == 0
        assert "28 x 20" in capsys.readouterr().out

    def test_plan(self, capsys):
        code = main(
            [
                "plan",
                "--dataset",
                "W-1",
                "--scale",
                "0.2",
                "--origin",
                "0,0",
                "--dest",
                "10,10",
                "--verbose",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "20 steps" in out
        assert "0,0" in out

    def test_simulate_multi_planner(self, capsys):
        code = main(
            [
                "simulate",
                "--dataset",
                "W-1",
                "--scale",
                "0.2",
                "--tasks",
                "8",
                "--day",
                "200",
                "--planner",
                "SRP,ACP",
                "--validate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SRP" in out and "ACP" in out
        assert "OG (s)" in out

    def test_simulate_json_rows(self, capsys):
        import json

        code = main(
            [
                "simulate", "--dataset", "W-1", "--scale", "0.2",
                "--tasks", "6", "--day", "150", "--planner", "SRP,ACP",
                "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines() if line]
        assert [row["planner"] for row in rows] == ["SRP", "ACP"]
        for row in rows:
            assert row["dataset"] == "W-1@0.2"
            assert row["tasks"] == 6
            assert row["failed"] == 0
            assert isinstance(row["og_s"], int)
            assert isinstance(row["tc_ms"], float)

    def test_simulate_joint_recovery_with_fault_flags(self, capsys):
        import json

        code = main(
            [
                "simulate", "--dataset", "W-1", "--scale", "0.25",
                "--tasks", "12", "--day", "150",
                "--stalls", "4", "--blockages", "2",
                "--slowdowns", "2", "--closures", "1",
                "--fault-seed", "9", "--recovery", "joint",
                "--validate", "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        (row,) = [json.loads(line) for line in out.splitlines() if line]
        assert row["recovery"] == "joint"
        assert row["faults"] == 9
        assert row["closure_cells"] > 0
        for key in ("replan_attempts", "decommitted_segments",
                    "recovery_clusters", "max_cluster_size", "cluster_robots",
                    "recovery_cbs", "recovery_serial", "slowdown_stretches"):
            assert isinstance(row[key], int)

    def test_serve_and_load_round_trip(self, capsys):
        import json
        import threading

        from repro.service.loadgen import request_shutdown

        argv = [
            "serve", "--dataset", "W-1", "--scale", "0.2",
            "--port", "0", "--deadline-ms", "200",
        ]
        codes = {}

        def run_serve():
            codes["serve"] = main(argv)

        # cmd_serve installs signal handlers only from the main thread;
        # patch that out and drain via the wire protocol instead.
        import repro.cli as cli_mod

        original = cli_mod.signal.signal
        cli_mod.signal.signal = lambda *a, **k: None
        try:
            thread = threading.Thread(target=run_serve, daemon=True)
            thread.start()
            import re
            import time

            port = None
            for _ in range(200):
                out = capsys.readouterr().out
                match = re.search(r"on 127\.0\.0\.1:(\d+)", out)
                if match:
                    port = int(match.group(1))
                    break
                time.sleep(0.05)
            assert port, "serve never announced its port"
            codes["load"] = main(
                ["load", "--dataset", "W-1", "--scale", "0.2",
                 "--port", str(port), "--queries", "10", "--rate", "500"]
            )
            summary = json.loads(capsys.readouterr().out)
            assert request_shutdown("127.0.0.1", port)
            thread.join(timeout=20)
            assert not thread.is_alive()
        finally:
            cli_mod.signal.signal = original
        assert codes == {"serve": 0, "load": 0}
        assert summary["replies"] == 10
        assert summary["protocol_errors"] == 0
        assert summary["server_stats"]["counters"]["admitted"] == 10

    def test_serve_workers_passes_planner_flags(self, monkeypatch):
        import repro.service

        class Built(Exception):
            pass

        seen = {}

        def fake_sharded(warehouse, **kwargs):
            seen.update(kwargs)
            raise Built  # stop before a server starts

        monkeypatch.setattr(repro.service, "ShardedPlanner", fake_sharded)
        with pytest.raises(Built):
            main(["serve", "--dataset", "W-1", "--scale", "0.2",
                  "--workers", "2", "--store", "naive", "--exact"])
        assert seen["workers"] == 2
        assert seen["planner_kwargs"] == {"store": "naive", "intra_exact": True}


class TestPlannerVariantFlags:
    def test_simulate_exact_intra(self, capsys):
        code = main(
            [
                "simulate", "--dataset", "W-1", "--scale", "0.2",
                "--tasks", "5", "--day", "120", "--exact", "--validate",
            ]
        )
        assert code == 0
        assert "SRP" in capsys.readouterr().out

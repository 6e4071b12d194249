"""Tests for the wire protocol codec and the threaded socket frontend."""

import io
import json
import socket

import pytest

from repro.core.planner import SRPPlanner
from repro.exceptions import PlanningFailedError
from repro.service import (
    ProtocolError,
    Reply,
    ReplyStatus,
    ServiceConfig,
    ServiceServer,
)
from repro.service import loadgen
from repro.service.protocol import (
    MAX_LINE_BYTES,
    decode_route,
    encode_message,
    encode_reply,
    encode_route,
    iter_wire_lines,
    parse_message_line,
    parse_reply_line,
    parse_request_line,
)
from repro.types import Route


class _ChunkedReader(io.RawIOBase):
    """A byte stream that returns at most ``chunk`` bytes per read,
    forcing line assembly across arbitrary buffer boundaries."""

    def __init__(self, data: bytes, chunk: int) -> None:
        self._buf = io.BytesIO(data)
        self._chunk = chunk

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        data = self._buf.read(min(len(b), self._chunk))
        b[: len(data)] = data
        return len(data)


class TestProtocolCodec:
    def test_plan_request_round_trip(self):
        parsed = parse_request_line(
            '{"op": "plan", "id": 3, "origin": [0, 0], "dest": [4, 5],'
            ' "release": 7, "deadline_ms": 50}'
        )
        assert parsed["op"] == "plan"
        assert parsed["id"] == 3
        assert parsed["deadline_ms"] == 50
        q = parsed["query"]
        assert q.origin == (0, 0) and q.destination == (4, 5)
        assert q.release_time == 7 and q.query_id == 3

    def test_non_plan_ops(self):
        for op in ("stats", "ping", "shutdown"):
            assert parse_request_line(json.dumps({"op": op})) == {"op": op}

    @pytest.mark.parametrize("line", [
        "not json at all",
        "[1, 2, 3]",
        '{"op": "fly"}',
        '{"op": "plan", "id": true, "origin": [0, 0], "dest": [1, 1]}',
        '{"op": "plan", "id": 1, "origin": [0], "dest": [1, 1]}',
        '{"op": "plan", "id": 1, "origin": [0, 0], "dest": "there"}',
        '{"op": "plan", "id": 1, "origin": [0, 0], "dest": [1, 1], "release": -2}',
        '{"op": "plan", "id": 1, "origin": [0, 0], "dest": [1, 1], "deadline_ms": -1}',
    ])
    def test_malformed_requests_raise(self, line):
        with pytest.raises(ProtocolError):
            parse_request_line(line)

    def test_route_codec_round_trip(self):
        route = Route(5, [(0, 0), (0, 1), (1, 1)], query_id=9)
        decoded = decode_route(encode_route(route), query_id=9)
        assert decoded.start_time == route.start_time
        assert decoded.grids == route.grids

    def test_reply_encoding_and_parsing(self):
        route = Route(2, [(0, 0), (0, 1)])
        line = encode_reply(Reply(4, ReplyStatus.DEGRADED, "cached", route,
                                  queue_ms=3))
        obj = parse_reply_line(line)
        assert obj["id"] == 4
        assert obj["status"] == "degraded"
        assert obj["rung"] == "cached"
        assert obj["route"]["start_time"] == 2

    def test_shed_reply_has_no_route(self):
        obj = parse_reply_line(
            encode_reply(Reply(1, ReplyStatus.SHED, note="admission queue full"))
        )
        assert obj["status"] == "shed"
        assert "route" not in obj
        assert obj["note"] == "admission queue full"

    def test_unknown_reply_status_raises(self):
        with pytest.raises(ProtocolError):
            parse_reply_line('{"status": "confused"}')


class TestWireLines:
    """Length-capped line reader: oversized, partial, and torn frames."""

    def test_normal_lines_pass_through(self):
        stream = io.BufferedReader(
            _ChunkedReader(b'{"op": "ping"}\n{"op": "stats"}\n', 1024)
        )
        assert list(iter_wire_lines(stream)) == ['{"op": "ping"}', '{"op": "stats"}']

    def test_partial_reads_across_buffer_boundaries(self):
        """Lines split at every possible point still assemble whole."""
        payload = b'{"op": "ping", "pad": "' + b"x" * 100 + b'"}\n{"op": "stats"}\n'
        for chunk in (1, 2, 3, 7, 64):
            stream = io.BufferedReader(_ChunkedReader(payload, chunk), buffer_size=16)
            lines = list(iter_wire_lines(stream))
            assert len(lines) == 2, chunk
            assert json.loads(lines[0])["op"] == "ping"
            assert json.loads(lines[1])["op"] == "stats"

    def test_oversized_line_yields_none_once_and_stream_recovers(self):
        giant = b"a" * (2 * MAX_LINE_BYTES)
        stream = io.BufferedReader(
            _ChunkedReader(giant + b"\n" + b'{"op": "ping"}\n', 65536)
        )
        lines = list(iter_wire_lines(stream))
        assert lines == [None, '{"op": "ping"}']

    def test_oversized_line_at_eof_without_newline(self):
        stream = io.BufferedReader(
            _ChunkedReader(b"b" * (MAX_LINE_BYTES + 10), 65536)
        )
        assert list(iter_wire_lines(stream)) == [None]

    def test_final_unterminated_fragment_is_yielded(self):
        stream = io.BufferedReader(_ChunkedReader(b'{"op": "ping"}', 8))
        assert list(iter_wire_lines(stream)) == ['{"op": "ping"}']

    def test_non_utf8_bytes_survive_as_replaced_text(self):
        stream = io.BufferedReader(_ChunkedReader(b"\xff\xfe\n", 8))
        (line,) = list(iter_wire_lines(stream))
        assert isinstance(line, str)


class TestShardMessageCodec:
    """The strict frame codec used on the frontend-worker pipes."""

    def test_round_trip(self):
        msg = {"op": "plan", "id": 3, "origin": [1, 2]}
        assert parse_message_line(encode_message(msg)) == msg

    @pytest.mark.parametrize("data", [
        b"not json",
        b"[1, 2]",
        b'{"no_op": 1}',
        b'{"op": 7}',
        b"\xff\xfe\xfd",
    ])
    def test_malformed_frames_raise(self, data):
        with pytest.raises(ProtocolError):
            parse_message_line(data)

    def test_oversized_frames_rejected_both_ways(self):
        with pytest.raises(ProtocolError):
            encode_message({"op": "plan", "pad": "x" * (MAX_LINE_BYTES + 1)})
        with pytest.raises(ProtocolError):
            parse_message_line(b"x" * (MAX_LINE_BYTES + 1))


@pytest.fixture
def server(small_warehouse):
    srv = ServiceServer(
        SRPPlanner(small_warehouse),
        ServiceConfig(queue_capacity=8, default_deadline_ms=0),
        port=0,
    ).start()
    yield srv
    srv.stop(timeout=10)


def talk(port: int, lines, read_n=None):
    """Send lines on one connection; read ``read_n`` reply lines back."""
    read_n = len(lines) if read_n is None else read_n
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        f = conn.makefile("rwb")
        for line in lines:
            f.write((line + "\n").encode())
        f.flush()
        return [json.loads(f.readline()) for _ in range(read_n)]


class TestServiceServer:
    def test_ping(self, server):
        (reply,) = talk(server.port, ['{"op": "ping"}'])
        assert reply == {"status": "ok", "pong": True}

    def test_plan_and_stats(self, server, small_warehouse):
        free = small_warehouse.free_cells()
        plan_line = json.dumps({
            "op": "plan", "id": 42,
            "origin": list(free[0]), "dest": list(free[-1]),
        })
        # a stats reply may legally overtake the queued plan reply on a
        # pipelined connection — identify the two replies by content
        replies = talk(server.port, [plan_line, '{"op": "stats"}'])
        plan = next(r for r in replies if "id" in r)
        stats = next(r for r in replies if "stats" in r)
        assert plan["id"] == 42
        assert plan["status"] == "ok"
        assert plan["rung"] == "full"
        assert plan["route"]["grids"][0] == list(free[0])
        assert stats["protocol"] == 1
        # the handler admits the plan before reading the stats line, so
        # the snapshot has counted it even if planning is still running
        assert stats["stats"]["counters"]["admitted"] == 1
        assert "uptime_ms" in stats["stats"]

    def test_malformed_line_answers_error_and_keeps_serving(self, server):
        error, pong = talk(server.port, ["garbage", '{"op": "ping"}'])
        assert error["status"] == "error"
        assert "not valid JSON" in error["note"]
        assert pong["pong"] is True

    def test_pipelined_plans_all_answered(self, server, small_warehouse):
        free = small_warehouse.free_cells()
        lines = [
            json.dumps({"op": "plan", "id": i,
                        "origin": list(free[i]), "dest": list(free[-1 - i])})
            for i in range(6)
        ]
        replies = talk(server.port, lines)
        assert sorted(r["id"] for r in replies) == list(range(6))
        assert all(r["status"] in ("ok", "degraded") for r in replies)

    def test_shutdown_drains_and_sheds_new_work(self, server, small_warehouse):
        free = small_warehouse.free_cells()
        (ack,) = talk(server.port, ['{"op": "shutdown"}'])
        assert ack == {"status": "draining"}
        assert server.drained.wait(10)
        plan_line = json.dumps({
            "op": "plan", "id": 1,
            "origin": list(free[0]), "dest": list(free[-1]),
        })
        (reply,) = talk(server.port, [plan_line])
        assert reply["status"] == "shed"
        assert reply["note"] == "server draining"
        assert server.stop(timeout=10) is True

    def test_oversized_line_answers_error_and_keeps_serving(self, server):
        giant = "x" * (MAX_LINE_BYTES + 100)
        error, pong = talk(server.port, [giant, '{"op": "ping"}'])
        assert error["status"] == "error"
        assert "exceeds" in error["note"]
        assert pong["pong"] is True

    def test_session_trace_is_replayable(self, server, small_warehouse):
        from repro.service import replay_session

        free = small_warehouse.free_cells()
        lines = [
            json.dumps({"op": "plan", "id": i,
                        "origin": list(free[2 * i]), "dest": list(free[-1 - i])})
            for i in range(4)
        ]
        talk(server.port, lines)
        server.request_shutdown()
        assert server.drained.wait(10)
        report = replay_session(server.core.trace, SRPPlanner(small_warehouse))
        assert report.duration_deltas == [0] * 4


class TestTelemetryLog:
    def test_jsonl_log_written_on_drain(self, small_warehouse, tmp_path):
        log = tmp_path / "telemetry.jsonl"
        srv = ServiceServer(
            SRPPlanner(small_warehouse), port=0,
            telemetry_log=str(log), log_interval=0.05,
        ).start()
        (reply,) = talk(srv.port, ['{"op": "ping"}'])
        assert reply["pong"] is True
        srv.request_shutdown()
        assert srv.drained.wait(10)
        assert srv.stop(timeout=10) is True
        lines = [json.loads(ln) for ln in log.read_text().splitlines() if ln]
        assert lines, "at least the final snapshot must be written"
        assert all("counters" in line and "uptime_ms" in line for line in lines)


class TestShardedServer:
    """The socket frontend over a region-sharded planner."""

    def test_inline_sharded_server_answers_and_drains(self, small_warehouse):
        from repro.service import ShardedPlanner

        planner = ShardedPlanner(small_warehouse, workers=2, mode="inline")
        srv = ServiceServer(planner, ServiceConfig(queue_capacity=16), port=0)
        srv.start()
        try:
            part = planner.partition
            free = small_warehouse.free_cells()
            top = [c for c in free if c[0] <= part.bounds[0][1]]
            bottom = [c for c in free if c[0] >= part.bounds[1][0]]
            lines = [
                json.dumps({"op": "plan", "id": i,
                            "origin": list(top[i]), "dest": list(bottom[i])})
                for i in range(4)
            ]
            replies = talk(srv.port, lines)
            assert sorted(r["id"] for r in replies) == list(range(4))
            assert all(r["status"] in ("ok", "degraded") for r in replies)
            assert planner.router_stats()["cross"] == 4
        finally:
            assert srv.stop(timeout=20) is True

    def test_process_sharded_server_drain_reaps_workers(self, small_warehouse):
        """SIGTERM-equivalent drain leaves no orphaned worker processes."""
        from repro.service import ShardedPlanner

        planner = ShardedPlanner(small_warehouse, workers=2, mode="process")
        srv = ServiceServer(planner, ServiceConfig(queue_capacity=16), port=0)
        srv.start()
        free = small_warehouse.free_cells()
        plan_line = json.dumps({
            "op": "plan", "id": 9,
            "origin": list(free[0]), "dest": list(free[-1]),
        })
        (reply,) = talk(srv.port, [plan_line])
        assert reply["status"] in ("ok", "degraded")
        srv.request_shutdown()
        assert srv.drained.wait(20)
        assert srv.stop(timeout=20) is True
        assert planner.workers_alive() == 0
        for shard in planner._shards:
            assert not shard.process.is_alive()


class _FailingPlanner(SRPPlanner):
    """Fails every ladder rung, so the service answers with no route."""

    def plan(self, query):
        raise PlanningFailedError("refused", query_id=query.query_id)

    def plan_strip_only(self, query, max_start_delay=None):
        return None

    def plan_fallback_only(self, query, max_start_delay=None):
        return None


class TestLoadgenSmoke:
    ARGS = [
        "--self-serve", "--dataset", "W-1", "--scale", "0.2",
        "--queries", "20", "--rate", "200", "--queue-cap", "32",
        "--deadline-ms", "0", "--timeout", "30",
    ]

    def test_tiny_self_serve_run_passes(self, capsys):
        assert loadgen.main(self.ARGS) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["replies"] == summary["sent"] == 20

    def test_fails_when_no_request_gets_a_route(self, monkeypatch, capsys):
        monkeypatch.setattr(
            loadgen, "_build_planner",
            lambda warehouse, plan_cost_ms=0, workers=0: _FailingPlanner(warehouse),
        )
        assert loadgen.main(self.ARGS) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status_counts"] == {"failed": 20}
        assert "no request was answered with a route" in captured.err

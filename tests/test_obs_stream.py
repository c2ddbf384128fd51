"""Event-stream tests: truncated-tail tolerance, schema, fan-out.

``read_stream``'s tolerance contract: a reader racing a live writer
may see the final line mid-flush — that tail is reported, never parsed
as garbage and never confused with real mid-file corruption.  And the
``EventFanout`` contract the serve layer uses: one emission point,
N subscribers, retained ``run_started`` replay, and subscribers that
stop receiving once unsubscribed.
"""

import json
import queue
import threading

import pytest

from repro.obs.stream import (
    EVENT_FIELDS,
    EventFanout,
    EventStream,
    read_stream,
    read_stream_partial,
    validate_stream,
)


def write_lines(path, lines, *, trailing_newline=True):
    text = "\n".join(lines)
    if trailing_newline:
        text += "\n"
    path.write_text(text, encoding="utf-8")
    return path


def event(kind: str, seq: int, **fields) -> str:
    return json.dumps({"kind": kind, "seq": seq, **fields})


#: One complete record of each kind's own fields (see EVENT_FIELDS).
FIELDS = {
    "run_started": {"workers": 2},
    "job_started": {
        "benchmark": "fft", "request_hash": "ab" * 32, "attempt": 1,
        "batch": 1,
    },
    "job_retried": {
        "benchmark": "fft", "request_hash": "ab" * 32, "attempt": 1,
        "status": "failed", "error": "InjectedFailure: boom",
    },
    "job_finished": {
        "benchmark": "fft", "request_hash": "ab" * 32, "status": "ok",
        "attempts": 2, "wall_time_s": 0.5, "queue_wait_s": 0.1,
        "compute_time_s": 0.4, "error": "", "spans": None,
    },
    "run_finished": {
        "duration_s": 1.0, "ok": 1, "failed": 0, "timeout": 0, "cached": 0,
    },
}


class TestPartialReads:
    def test_clean_file_parses_fully(self, tmp_path):
        path = write_lines(tmp_path / "s.jsonl", [
            event("run_started", 0, run_id="r"),
            event("run_finished", 1, run_id="r"),
        ])
        read = read_stream_partial(path)
        assert read.clean
        assert [e["kind"] for e in read.events] == [
            "run_started", "run_finished",
        ]

    def test_truncated_tail_reported_not_raised(self, tmp_path):
        complete = event("run_started", 0, run_id="r")
        partial = '{"kind": "job_finished", "seq": 1, "bench'
        path = write_lines(
            tmp_path / "s.jsonl", [complete, partial],
            trailing_newline=False,
        )
        read = read_stream_partial(path)
        assert not read.clean
        assert len(read.events) == 1
        assert read.incomplete_tail == partial

    def test_complete_line_without_newline_still_parses(self, tmp_path):
        # the writer flushed the record but not yet the newline
        path = write_lines(
            tmp_path / "s.jsonl",
            [event("run_started", 0, run_id="r")],
            trailing_newline=False,
        )
        read = read_stream_partial(path)
        assert read.clean
        assert read.events[0]["seq"] == 0

    def test_mid_file_corruption_raises_with_line_number(self, tmp_path):
        path = write_lines(tmp_path / "s.jsonl", [
            event("run_started", 0, run_id="r"),
            "{definitely not json",
            event("run_finished", 2, run_id="r"),
        ])
        with pytest.raises(ValueError, match="line 2"):
            read_stream_partial(path)

    def test_read_stream_tolerant_by_default_strict_on_request(
        self, tmp_path
    ):
        path = write_lines(
            tmp_path / "s.jsonl",
            [event("run_started", 0, run_id="r"), '{"cut": '],
            trailing_newline=False,
        )
        events = read_stream(path)
        assert len(events) == 1
        with pytest.raises(ValueError, match="truncated"):
            read_stream(path, strict=True)

    def test_blank_lines_skipped(self, tmp_path):
        path = write_lines(tmp_path / "s.jsonl", [
            event("run_started", 0, run_id="r"),
            "",
            event("run_finished", 1, run_id="r"),
        ])
        assert len(read_stream(path, strict=True)) == 2


class TestValidateStream:
    def good(self):
        return [
            {"kind": kind, "seq": seq, "ts": 1.0 + seq, "run_id": "r", **fields}
            for seq, (kind, fields) in enumerate(FIELDS.items())
        ]

    def test_valid_stream_has_no_problems(self):
        events = self.good()
        assert [e["kind"] for e in events] == list(EVENT_FIELDS)
        assert validate_stream(events) == []

    def test_unknown_kind_flagged(self):
        events = self.good()
        events[1]["kind"] = "job_exploded"
        assert any("unknown kind" in p for p in validate_stream(events))

    def test_non_increasing_seq_flagged(self):
        events = self.good()
        events[2]["seq"] = 1
        assert any("not increasing" in p for p in validate_stream(events))

    def test_missing_lifecycle_fields_flagged(self):
        events = self.good()
        del events[0]["run_id"]
        del events[3]["request_hash"]
        problems = validate_stream(events)
        assert any("run_id" in p for p in problems)
        assert any("request_hash" in p for p in problems)

    @pytest.mark.parametrize("kind", list(EVENT_FIELDS))
    def test_every_field_of_every_kind_is_checked(self, kind):
        position = list(EVENT_FIELDS).index(kind)
        for key in ("ts", "run_id") + EVENT_FIELDS[kind]:
            events = self.good()
            del events[position][key]
            assert validate_stream(events) == [
                f"event {position}: {kind} missing {key}"
            ]

    def test_retry_status_must_be_failed_or_timeout(self):
        events = self.good()
        events[2]["status"] = "ok"
        assert validate_stream(events) == ["event 2: job_retried status 'ok'"]

    def test_engine_trace_files_still_read(self, tmp_path):
        # the JSONL an engine run's --trace flag used to write
        path = write_lines(tmp_path / "trace.jsonl", [
            json.dumps({
                "kind": "job_submitted", "ts": 1.0, "benchmark": "fft",
                "request_hash": "ab" * 32, "attempt": 0, "status": "",
                "detail": "",
            }),
            json.dumps({
                "kind": "run_summary", "ts": 2.0, "benchmark": "",
                "request_hash": "", "attempt": 0, "status": "",
                "detail": "r", "retries": 0,
            }),
        ])
        events = read_stream(path, strict=True)
        assert [e["kind"] for e in events] == ["job_submitted", "run_summary"]
        assert len(validate_stream(events)) == 2  # kinds of the old trace


class TestEventFanout:
    def test_every_subscriber_and_sink_sees_each_event(self, tmp_path):
        fanout = EventFanout()
        fanout.attach(EventStream(tmp_path / "sink.jsonl"))
        events_a, events_b = [], []
        fanout.subscribe(events_a.append)
        fanout.subscribe(events_b.append)
        fanout.emit("run_started", run_id="r", workers=2)
        fanout.emit("job_finished", run_id="r", **FIELDS["job_finished"])
        fanout.close()
        assert events_a == events_b
        assert [e["seq"] for e in events_a] == [0, 1]
        on_disk = read_stream(tmp_path / "sink.jsonl", strict=True)
        assert on_disk == events_a
        assert validate_stream(on_disk) == []

    def test_late_subscriber_gets_retained_run_started(self):
        fanout = EventFanout()
        fanout.emit("run_started", run_id="r", workers=1)
        late, no_replay = [], []
        fanout.subscribe(late.append)
        (replayed,) = late
        assert replayed["kind"] == "run_started"
        assert replayed["run_id"] == "r"
        fanout.subscribe(no_replay.append, replay=False)
        fanout.close()
        assert no_replay == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown stream event kind"):
            EventFanout().emit("job_exploded")

    def test_unsubscribed_queue_stops_receiving(self):
        # a queue fed by its put_nowait, the form /events watchers use
        fanout = EventFanout()
        events = queue.Queue()
        handle = fanout.subscribe(events.put_nowait)
        fanout.emit("run_started", run_id="r")
        fanout.unsubscribe(handle)
        assert fanout.subscribers == 0
        fanout.emit(
            "job_finished", benchmark="b", status="ok",
            request_hash="ef" * 32,
        )
        fanout.close()
        # only the event delivered while subscribed
        assert events.get_nowait()["kind"] == "run_started"
        assert events.empty()

    def test_callback_subscribers_invoked_inline(self):
        fanout = EventFanout()
        seen = []
        handle = fanout.subscribe(seen.append)
        fanout.emit("run_started", run_id="r")
        assert [e["kind"] for e in seen] == ["run_started"]
        fanout.unsubscribe(handle)
        fanout.emit("run_finished", run_id="r")
        assert len(seen) == 1

    def test_emit_after_close_raises(self):
        fanout = EventFanout()
        fanout.close()
        with pytest.raises(RuntimeError, match="closed"):
            fanout.emit("run_started", run_id="r")

    def test_concurrent_emitters_keep_seq_strictly_increasing(self):
        fanout = EventFanout()
        events = []
        fanout.subscribe(events.append)

        def emit_many():
            for _ in range(50):
                fanout.emit(
                    "job_finished", benchmark="b", status="ok",
                    request_hash="aa" * 32,
                )

        threads = [threading.Thread(target=emit_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        fanout.close()
        assert len(events) == 200
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 200

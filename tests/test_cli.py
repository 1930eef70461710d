"""Command line behavior: subcommands, exit codes, deterministic output."""

import copy
import hashlib
import io
import json
import os
import re
import threading
import tracemalloc

import pytest

from rfoverlay import bus, protocol, scenario, trace
from rfoverlay.bus import TopicName
from rfoverlay.cli import EXIT_IO, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, _print_report, main
from rfoverlay.trace import TraceError


def write_config(tmp_path, **overrides):
    cfg = {
        "node_count": 6,
        "seed": 9,
        "workload": {"lambda": 2.0, "threshold": 2, "intervals": 12},
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _compact(event):
    """One trace line as the encoder writes it: no spaces after separators."""
    return json.dumps(event, separators=(",", ":"))


def _simulated_events(tmp_path, capsys):
    """Simulate the default config with a trace. Gives the config path, the
    trace path and the trace's lines as JSON objects, after checking that
    _write_events writes the unedited objects back byte for byte, so a
    forged trace differs from the real one by its edit alone."""
    config = write_config(tmp_path)
    trace_path = tmp_path / "run.jsonl"
    main(["simulate", "--config", config, "--trace", str(trace_path)])
    capsys.readouterr()
    text = trace_path.read_text()
    events = [json.loads(line) for line in text.splitlines()]
    assert "".join(_compact(e) + "\n" for e in events) == text
    return config, trace_path, events


def _write_events(trace_path, events):
    """Write the events over the trace; gives the number of the first line
    that changed."""
    return _forge(trace_path, "".join(_compact(e) + "\n" for e in events).encode())


# -- simulate / verify ---------------------------------------------------------


def test_simulate_writes_trace_and_metrics(tmp_path, capsys):
    config = write_config(tmp_path)
    trace_path = tmp_path / "run.jsonl"
    metrics_path = tmp_path / "metrics.txt"
    code = main([
        "simulate", "--config", config,
        "--trace", str(trace_path), "--metrics", str(metrics_path),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "wrote trace" in out and "wrote metrics" in out
    assert trace_path.read_text().count("\n") > 0
    table = metrics_path.read_text()
    assert table.startswith("interval")
    assert "total" in table


def test_simulate_without_a_trace_records_none(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path)
    assert main(["simulate", "--config", config, "--trace", str(tmp_path / "run.jsonl")]) == EXIT_OK
    traced = capsys.readouterr().out.splitlines()[1:]

    def no_recorder():
        raise AssertionError("simulate recorded a trace it does not write")

    monkeypatch.setattr(scenario, "TraceRecorder", no_recorder)
    assert main(["simulate", "--config", config]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == traced


def test_simulate_and_verify_roundtrip(tmp_path, capsys):
    config = write_config(tmp_path)
    trace_path = str(tmp_path / "run.jsonl")
    assert main(["simulate", "--config", config, "--trace", trace_path, "--verify"]) == EXIT_OK
    assert "verification: PASSED (12 intervals)" in capsys.readouterr().out
    assert main(["verify", "--config", config, "--trace", trace_path]) == EXIT_OK
    assert "verification: PASSED" in capsys.readouterr().out


def test_simulate_output_is_reproducible(tmp_path):
    config = write_config(tmp_path)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    main(["simulate", "--config", config, "--trace", str(first)])
    main(["simulate", "--config", config, "--trace", str(second)])
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("extra", [[], ["--verify"]], ids=["plain", "verify"])
def test_simulate_trace_is_pinned_across_commits(tmp_path, capsys, extra):
    """The README demo config; the digest changes only when the trace does.
    `--verify` checks the run and changes neither the trace nor the metrics
    table."""
    config = write_config(tmp_path)
    assert main(["simulate", "--config", config]) == EXIT_OK
    table = capsys.readouterr().out.splitlines()
    trace_path = tmp_path / "run.jsonl"
    assert main(["simulate", "--config", config, "--trace", str(trace_path), *extra]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "wrote trace: " + str(trace_path) + " (359 events)"
    if extra:
        assert out.pop() == "verification: PASSED (12 intervals)"
    assert out[1:] == table
    data = trace_path.read_bytes()
    assert data.count(b"\n") == 359
    assert hashlib.sha256(data).hexdigest() == (
        "cc95530bc5182bcdc17c60687ee7a62efaa5ba036d3a92b5ca8242dc8eac0df2"
    )


def _config_of(config):
    with open(config, encoding="utf-8") as stream:
        return scenario.load_config(stream)


def _run_events(config):
    """The config file's config, and the events of its run as a list to
    edit."""
    cfg = _config_of(config)
    return cfg, list(scenario.run_scenario(cfg)[0])


def _report(events, cfg):
    """verify_trace's report on the events, as `verify` prints it, and the
    exit code it gives."""
    out = io.StringIO()
    return _print_report(scenario.verify_trace(events, cfg), out), out.getvalue()


def _first_changed_line(old, new):
    """The number of the first line, newline included, where `new` differs
    from `old`; one past the shorter if one is the other's start."""
    old, new = old.splitlines(keepends=True), new.splitlines(keepends=True)
    return next(
        (number for number, (a, b) in enumerate(zip(old, new), 1) if a != b),
        min(len(old), len(new)) + 1,
    )


def _forge(trace_path, forged):
    """Write `forged` over the trace; gives the number of its first changed
    line."""
    line = _first_changed_line(trace_path.read_bytes(), forged)
    trace_path.write_bytes(forged)
    return line


def verify_refuses(config, trace_path, capsys, line):
    """`verify` exits 1 with one stderr line, which names `line` as the
    first line of the file that the replay of the config does not write.
    Gives that stderr line."""
    assert main(["verify", "--config", config, "--trace", str(trace_path)]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"malformed trace: line {line}, column ")
    assert captured.err.count("\n") == 1
    return captured.err


def test_verify_flags_a_corrupted_trace(tmp_path, capsys):
    """verify_trace reports a settled view's forged next-available value as
    a mismatch, and `verify` refuses the forged file at that line."""
    config, trace_path, _ = _simulated_events(tmp_path, capsys)
    cfg, events = _run_events(config)
    index = max(i for i, e in enumerate(events) if e.kind == "ViewChange")
    ose, ore, _tre, available, joining = events[index].value
    events[index] = events[index]._replace(value=(ose, ore, 777, available, joining))

    code, out = _report(events, cfg)
    assert code == EXIT_MISMATCH
    assert "verification: FAILED" in out
    assert "mismatch" in out
    trace_path.write_text(trace.dumps_trace(events))
    verify_refuses(config, trace_path, capsys, index + 1)


_VIEW_FIELDS = ("ose", "ore", "tre", "available", "joining")


@pytest.mark.parametrize(
    "node, field, was, forged, shown",
    [
        (3, "ose", 2, 0, "mismatch interval=11 node=n3 field=ose expected=2 observed=0"),
        (4, "ore", 5, 1, "mismatch interval=11 node=n4 field=ore expected=5 observed=1"),
        (
            4, "joining", False, True,
            "mismatch interval=11 node=n4 field=joining expected=False observed=True",
        ),
    ],
    ids=["forged-ose", "forged-ore", "forged-joining"],
)
def test_verify_checks_each_view_against_the_ring(tmp_path, capsys, node, field, was, forged, shown):
    """A settled view's sender and receiver are its ring neighbours in
    arrival order, and no view is still joining. Node 4's last view names
    node 0 as next available, not its receiver, so a forged ore changes
    nothing else the line states. Before verify_trace checked the ring
    links it passed the first two traces, and before it checked `joining`
    the third. `verify` refuses each forged file at its forged line."""
    config, trace_path, _ = _simulated_events(tmp_path, capsys)
    cfg, events = _run_events(config)
    index = [i for i, e in enumerate(events) if e.kind == "ViewChange" and e.node == node][-1]
    view = dict(zip(_VIEW_FIELDS, events[index].value))
    assert view[field] == was
    view[field] = forged
    events[index] = events[index]._replace(value=tuple(view.values()))

    code, out = _report(events, cfg)
    assert code == EXIT_MISMATCH
    assert [line for line in out.splitlines() if line.startswith("mismatch")] == [shown]
    trace_path.write_text(trace.dumps_trace(events))
    verify_refuses(config, trace_path, capsys, index + 1)


def test_verify_refuses_a_toggle_that_changes_nothing(tmp_path, capsys):
    """The run toggles a node only when its view holds the other state, so
    verify_trace refuses a Toggle repeated right after itself. Before this
    check, verify passed it; `verify` refuses the file at the repeat."""
    config, trace_path, _ = _simulated_events(tmp_path, capsys)
    cfg, events = _run_events(config)
    index = next(i for i, e in enumerate(events) if e.kind == "Toggle")
    assert events[index][:3] == (9, "Toggle", 1)
    events.insert(index, events[index])

    with pytest.raises(TraceError, match=r"^toggle of 1 at interval \d+ changes nothing$"):
        scenario.verify_trace(events, cfg)
    trace_path.write_text(trace.dumps_trace(events))
    verify_refuses(config, trace_path, capsys, index + 2)


@pytest.mark.parametrize(
    "config_overrides, extra",
    [({}, []), ({}, ["--interleaved-toggles"]), ({"delivery_delay": 3}, [])],
    ids=["serialized", "interleaved", "delay3"],
)
def test_verify_passes_an_untouched_trace_of_each_mode(tmp_path, capsys, config_overrides, extra):
    """`verify` works out the toggle mode from the file, so a trace of
    either mode, or of a delayed bus, verifies with no flag, and prints
    the report it printed when it decoded the file."""
    config = write_config(tmp_path, **config_overrides)
    trace_path = str(tmp_path / "run.jsonl")
    assert main(["simulate", "--config", config, "--trace", trace_path, *extra]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--config", config, "--trace", trace_path]) == EXIT_OK
    assert capsys.readouterr() == ("verification: PASSED (12 intervals)\n", "")


def test_verify_prints_the_report_of_a_run_that_fails(tmp_path, capsys, monkeypatch):
    """With stale views in the engine, `verify` replays the same run, so the
    file matches, and prints verify_trace's mismatches as `simulate
    --verify` does."""
    monkeypatch.setattr(protocol, "on_mybox_from_ore", stale_view)
    config = write_config(tmp_path, seed=5, workload={"lambda": 3.0, "intervals": 20})
    trace_path = str(tmp_path / "run.jsonl")
    run = ["simulate", "--config", config, "--trace", trace_path, "--verify"]
    assert main(run) == EXIT_MISMATCH
    simulated = capsys.readouterr().out.splitlines()
    assert main(["verify", "--config", config, "--trace", trace_path]) == EXIT_MISMATCH
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("verification: FAILED (")
    assert len(out) > 1 and all(line.startswith("mismatch interval=") for line in out[:-1])
    assert simulated[-len(out) :] == out


def _lines_of(kind, lines):
    return [i for i, line in enumerate(lines) if f'"kind":"{kind}"' in line]


def _drop_last(kind):
    def edit(lines):
        del lines[_lines_of(kind, lines)[-1]]

    return edit


def _repeat_last(kind):
    def edit(lines):
        index = _lines_of(kind, lines)[-1]
        lines.insert(index, lines[index])

    return edit


def _null_first_mybox_deliver(lines):
    index = next(i for i in _lines_of("Deliver", lines) if '"MyBox"' in lines[i])
    assert '"payload":null' not in lines[index]
    lines[index] = re.sub(r'"payload":\d+', '"payload":null', lines[index])


def _subscribe_before_the_last_line(lines):
    """A Subscribe of node 1 to node 3's status stream, at the last line's
    time, right before the last line."""
    key = '{"topic":"MyBox","instance":3}'
    lines.insert(-1, f'{{"time":42,"kind":"Subscribe","node":1,"detail":{{"key":{key}}}}}\n')


@pytest.mark.parametrize(
    "edit",
    [
        _drop_last("Subscribe"),
        _drop_last("Unsubscribe"),
        _drop_last("Deliver"),
        _repeat_last("Deliver"),
        _null_first_mybox_deliver,
        _subscribe_before_the_last_line,
    ],
    ids=[
        "last-subscribe-dropped", "last-unsubscribe-dropped", "last-deliver-dropped",
        "last-deliver-repeated", "deliver-payload-changed", "extra-mybox-subscribe",
    ],
)
def test_verify_refuses_a_forged_bus_line(tmp_path, capsys, edit):
    """Forged bus lines that the decoder passed, as the quiescent points
    they leave agree with the oracles: each is refused at its line."""
    config, trace_path, _ = _simulated_events(tmp_path, capsys)
    lines = trace_path.read_text().splitlines(keepends=True)
    edit(lines)
    verify_refuses(config, trace_path, capsys, _forge(trace_path, "".join(lines).encode()))


def _next_instance(key):
    key.update(instance=(key["instance"] + 1) % 6)


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("Join", lambda e: e.update(time=e["time"] + 1)),
        ("Toggle", lambda e: e["detail"].update(to="available")),
        ("Publish", lambda e: e["detail"].update(seq=e["detail"]["seq"] + 1)),
        ("Deliver", lambda e: e["detail"].update(publisher=(e["detail"]["publisher"] + 1) % 6)),
        ("Subscribe", lambda e: _next_instance(e["detail"]["key"])),
        ("Unsubscribe", lambda e: _next_instance(e["detail"]["key"])),
        ("ViewChange", lambda e: e["detail"].update(state="unavailable")),
    ],
    ids=["join", "toggle", "publish", "deliver", "subscribe", "unsubscribe", "view-change"],
)
def test_verify_refuses_an_edit_of_each_line_kind(tmp_path, capsys, kind, edit):
    """The last line of each kind, with one value changed, is refused at
    its own line."""
    config, trace_path, events = _simulated_events(tmp_path, capsys)
    index = max(i for i, e in enumerate(events) if e["kind"] == kind)
    before = copy.deepcopy(events[index])
    edit(events[index])
    assert events[index] != before
    assert _write_events(trace_path, events) == index + 1
    verify_refuses(config, trace_path, capsys, index + 1)


@pytest.mark.parametrize(
    "edit, line, column",
    [
        (lambda data: data[: data.rindex(b"\n", 0, -1) + 1], 359, 1),
        (lambda data: data + data[data.rindex(b"\n", 0, -1) + 1 :], 360, 1),
        (lambda data: data[:-1], 359, 112),
        (lambda data: data.replace(b"\n", b"\r\n"), 1, 46),
        (lambda data: data.replace(b'{"time":6,"kind":"Publish"', b'{"tim\xff":6,', 1), 100, 6),
    ],
    ids=["short", "long", "no-final-newline", "crlf", "not-utf8"],
)
def test_verify_refuses_a_file_changed_in_its_bytes(tmp_path, capsys, edit, line, column):
    """The file is compared as bytes: a file that ends early or goes on,
    and a line end or a byte the engine does not write, are refused at the
    first line and column that differ."""
    config, trace_path, _ = _simulated_events(tmp_path, capsys)
    data = trace_path.read_bytes()
    assert data.count(b"\n") == 359
    assert _forge(trace_path, edit(data)) == line
    err = verify_refuses(config, trace_path, capsys, line)
    assert err.startswith(f"malformed trace: line {line}, column {column}: expected ")


def test_verify_reports_a_difference_from_the_replay_that_matched_more(tmp_path, capsys):
    """An interleaved trace differs from the serialized replay at its first
    Toggle line, so an edit further on is reported at its own line, from the
    interleaved replay."""
    config = write_config(tmp_path)
    trace_path = tmp_path / "run.jsonl"
    run = ["simulate", "--config", config, "--trace", str(trace_path), "--interleaved-toggles"]
    assert main(run) == EXIT_OK
    capsys.readouterr()
    lines = trace_path.read_bytes().splitlines(keepends=True)
    first_toggle = next(i for i, line in enumerate(lines) if b'"kind":"Toggle"' in line)
    del lines[-2]
    assert _forge(trace_path, b"".join(lines)) == len(lines) > first_toggle + 1
    verify_refuses(config, trace_path, capsys, len(lines))


def _verify_through_a_pipe(config, data):
    """`verify` of `data`, which a thread writes into a pipe that `verify`
    reads as its trace file. Gives the exit code and the peak of memory
    traced during the call."""
    read_end, write_end = os.pipe()

    def feed():
        try:
            with open(write_end, "wb") as sink:
                sink.write(data)
        except BrokenPipeError:  # verify stopped reading
            pass

    feeder = threading.Thread(target=feed)
    feeder.start()
    tracemalloc.start()
    try:
        code = main(["verify", "--config", config, "--trace", f"/dev/fd/{read_end}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        os.close(read_end)
        feeder.join(timeout=30)
    assert not feeder.is_alive()
    return code, peak


@pytest.mark.parametrize("mode", ["serialized", "interleaved"])
def test_verify_reads_a_piped_trace_as_it_reads_the_file(tmp_path, capsys, mode):
    """A pipe is read once: an interleaved trace, which first differs from
    the serialized replay at its first Toggle line, is compared with the
    interleaved replay from that line on, starting with the bytes already
    read. Piped, an untouched trace, one edited after that line and one
    with 20 MB more after the edit get the file's exit code and output, in
    bounded memory."""
    config = write_config(tmp_path)
    trace_path = tmp_path / "run.jsonl"
    extra = ["--interleaved-toggles"] if mode == "interleaved" else []
    assert main(["simulate", "--config", config, "--trace", str(trace_path), *extra]) == EXIT_OK
    capsys.readouterr()
    data = trace_path.read_bytes()
    lines = data.splitlines(keepends=True)
    first_toggle = next(n for n, line in enumerate(lines, 1) if b'"kind":"Toggle"' in line)
    edited = b"".join(lines[:-2] + lines[-1:])
    assert _first_changed_line(data, edited) == len(lines) - 1 > first_toggle
    junk = b"".join(lines[: first_toggle + 1]) + b"x" * 20_000_000
    for forged, code in [(data, EXIT_OK), (edited, EXIT_MISMATCH), (junk, EXIT_MISMATCH)]:
        trace_path.write_bytes(forged)
        assert main(["verify", "--config", config, "--trace", str(trace_path)]) == code
        from_file = capsys.readouterr()
        piped, peak = _verify_through_a_pipe(config, forged)
        assert piped == code and capsys.readouterr() == from_file
        assert peak < 2_000_000
    assert from_file.err.startswith(f"malformed trace: line {first_toggle + 2}, column 1: ")


@pytest.mark.parametrize(
    "line",
    [
        b"this is not a trace",
        b'{"time":"abc","kind":"Join","node":0,"detail":{}}',
        b'{"time":Infinity,"kind":"Join","node":0,"detail":{}}',
        b'{"time":1,"kind":"Join","node":[1],"detail":{}}',
        b'{"time":1,"kind":"ViewChange","node":0,"detail":5}',
        b'{"time":1,"kind":"Publish","node":0,"detail":{"key":{"topic":"MyBox","instance":0},"seq":1}}',
        b'{"time":1,"kind":"Join","node":0,"detail":{}}\xff',
        b"[" * 200_000,
        b'{"time":' + b"1" * 5000 + b',"kind":"Join","node":0,"detail":{}}',
    ],
    ids=[
        "not-json", "bad-time", "infinite-time", "bad-node", "bad-detail", "no-payload",
        "not-utf8", "deeply-nested", "integer-too-long",
    ],
)
def test_verify_rejects_garbage(tmp_path, capsys, line):
    config = write_config(tmp_path)
    trace_path = tmp_path / "junk.jsonl"
    trace_path.write_bytes(line + b"\n")
    verify_refuses(config, trace_path, capsys, 1)


def _first(events, kind, match=lambda event: True):
    return next(e for e in events if e["kind"] == kind and match(e))


def _ose_publish(event):
    return event["detail"]["key"]["topic"] == "OSe"


def _mybox_publish(event):
    return event["detail"]["key"]["topic"] == "MyBox"


def _ore_deliver(event):
    return event["detail"]["key"]["topic"] == "ORe"


def _arrivals_publish(event):
    return event["detail"]["key"]["topic"] == "Arrivals"


def _move_first_mybox_publish(events):
    event = _first(events, "Publish", _mybox_publish)
    event["detail"]["key"]["instance"] = event["node"] + 1


def _append_about(node, kind, match=lambda event: True):
    """An edit that appends a well-formed copy of the first `kind` line, at
    the last line's time, about `node`, which never joined. A publish's
    instance follows the node."""

    def edit(events):
        event = copy.deepcopy(_first(events, kind, match))
        event.update(time=events[-1]["time"], node=node)
        if kind == "Publish":
            event["detail"]["key"]["instance"] = node
        events.append(event)

    return edit


def _insert_before_first_toggle(kind, node, detail):
    """An edit that inserts a line about `node` right before the first
    Toggle, at that Toggle's time."""

    def edit(events):
        index = events.index(_first(events, "Toggle"))
        line = {"time": events[index]["time"], "kind": kind, "node": node, "detail": detail}
        events.insert(index, line)

    return edit


def _join_record_on_first_mybox_publish(events):
    event = _first(events, "Publish", _mybox_publish)
    event["detail"]["payload"] = {"type": "join_record", "node": event["node"]}


def _oneback_null_publish(events):
    """Append a OneBack Publish of null by node 0 with its next seq: only
    set_available publishes there, and it publishes its own id."""
    seq = 1 + sum(
        e["kind"] == "Publish" and e["node"] == 0 and e["detail"]["key"]["topic"] == "OneBack"
        for e in events
    )
    detail = {"key": {"topic": "OneBack"}, "payload": None, "seq": seq}
    events.append({"time": events[-1]["time"], "kind": "Publish", "node": 0, "detail": detail})


@pytest.mark.parametrize(
    "edit",
    [
        lambda events: events[0].update(time=True),
        lambda events: events[0].update(time="1"),
        lambda events: events[0].update(time=1.9),
        lambda events: events[0].update(node=0.0),
        lambda events: _first(events, "ViewChange")["detail"].update(tre="2"),
        lambda events: _first(events, "Toggle")["detail"].update(interval="1"),
        lambda events: _first(events, "Publish", _mybox_publish)["detail"].update(payload="2"),
        lambda events: _first(events, "Publish", _ose_publish)["detail"]["key"].update(
            topic="Bogus"
        ),
        _move_first_mybox_publish,
        lambda events: events.append({"time": 42, "kind": "Deliver", "node": None, "detail": {}}),
        lambda events: _first(events, "Subscribe")["detail"].update(key="junk"),
        lambda events: _first(events, "ViewChange")["detail"].update(me=99),
        lambda events: _first(events, "ViewChange")["detail"].update(ose="x"),
        lambda events: _first(events, "ViewChange")["detail"].update(joining=1),
        lambda events: _first(events, "Deliver")["detail"]["key"].update(instance=-1),
        lambda events: _first(events, "Toggle")["detail"].update(cause=1),
        _append_about(42, "ViewChange"),
        _append_about(42, "Publish", _mybox_publish),
        _append_about(77, "Deliver"),
        _insert_before_first_toggle(
            "Publish", 0, {"key": {"topic": "Arrivals"}, "payload": None, "seq": 2}
        ),
        lambda events: _first(events, "Deliver", _ore_deliver)["detail"].update(
            payload={"type": "identity", "node": 1}
        ),
        _join_record_on_first_mybox_publish,
        lambda events: _first(events, "Deliver")["detail"].update(publisher=1_000_000_000),
        lambda events: _first(events, "ViewChange")["detail"].update(tre={"kind": "bogus"}),
        lambda events: _first(events, "Publish", _arrivals_publish)["detail"].update(
            payload={"type": "identity", "node": 0}
        ),
        _oneback_null_publish,
        lambda events: _first(events, "Publish", _mybox_publish)["detail"].update(payload=True),
        lambda events: _first(events, "Publish", _ose_publish)["detail"].update(
            payload={"role": "new_ore", "who": 0, "type": "ost_update"}
        ),
        lambda events: _first(events, "ViewChange")["detail"].update(state=True),
        lambda events: _first(events, "Toggle")["detail"].update(to=False),
    ],
    ids=[
        "time-bool", "time-string", "time-float", "node-float",
        "hint-node-string", "toggle-interval-string", "identity-node-string", "unknown-topic",
        "mybox-instance-not-publisher", "deliver-node-null", "subscribe-key-junk",
        "view-me-not-node", "view-ose-string", "view-joining-int", "key-instance-negative",
        "toggle-extra-field", "view-of-unjoined-node", "publish-by-unjoined-node",
        "deliver-to-unjoined-node", "arrivals-publish-null", "ore-deliver-identity",
        "mybox-publish-join-record", "deliver-publisher-unjoined",
        "unknown-tre-kind", "arrivals-publish-identity", "oneback-publish-null",
        "mybox-identity-node-bool", "ost-update-extra-field", "view-state-bool",
        "toggle-to-bool",
    ],
)
def test_verify_rejects_mistyped_fields(tmp_path, capsys, edit):
    # A full trace with one field edited: a value of another JSON type, a
    # field the kind does not have, an invalid topic key, a MyBox publish off
    # its publisher's own instance, a payload its topic does not carry, a
    # line about a node that never joined. Each is refused at its line.
    config, trace_path, events = _simulated_events(tmp_path, capsys)
    edit(events)
    verify_refuses(config, trace_path, capsys, _write_events(trace_path, events))


@pytest.mark.parametrize(
    "line, old",
    [
        (
            '{"time":1,"kind":"ViewChange","node":0,"detail":{"ose":0,"ore":0,"tre":0,'
            '"state":"available","joining":true}}',
            '{"time":1,"kind":"ViewChange","node":0,"detail":{"view":{"me":0,"ose":0,"ore":0,'
            '"tre":{"kind":"trust_ore"},"state":"available","joining":true}}}',
        ),
        (
            '{"time":9,"kind":"Publish","node":1,"detail":{"key":{"topic":"MyBox","instance":1},'
            '"payload":2,"seq":1}}',
            '{"time":9,"kind":"Publish","node":1,"detail":{"key":{"topic":"MyBox","instance":1},'
            '"payload":{"type":"identity","node":2},"seq":1}}',
        ),
        (
            '{"time":2,"kind":"Deliver","node":0,"detail":{"key":{"topic":"ORe","instance":0},'
            '"payload":1,"publisher":1,"seq":1}}',
            '{"time":2,"kind":"Deliver","node":0,"detail":{"key":{"topic":"ORe","instance":0},'
            '"payload":{"role":"new_ore","who":1},"publisher":1,"seq":1}}',
        ),
        (
            '{"time":2,"kind":"Publish","node":0,"detail":{"key":{"topic":"OSe","instance":1},'
            '"payload":0,"seq":1}}',
            '{"time":2,"kind":"Publish","node":0,"detail":{"key":{"topic":"OSe","instance":1},'
            '"payload":{"role":"new_ore","who":0},"seq":1}}',
        ),
    ],
    ids=["view-wrapper", "identity-payload", "ore-role-payload", "ose-role-payload"],
)
def test_verify_refuses_a_line_of_the_tagged_format(tmp_path, capsys, line, old):
    """Traces once wrapped a view with its `me`, tagged payloads and `tre`
    with type words, and wrote an ORe or OSe payload as a role and who. A
    line written an old way is not the line the engine writes, and is
    refused at its line."""
    config = write_config(tmp_path)
    trace_path = tmp_path / "run.jsonl"
    main(["simulate", "--config", config, "--trace", str(trace_path)])
    capsys.readouterr()

    text = trace_path.read_text()
    assert text.count(line + "\n") == 1
    forged = text.replace(line + "\n", old + "\n").encode()
    verify_refuses(config, trace_path, capsys, _forge(trace_path, forged))


def _reorder_first_view(text):
    """Write the first ViewChange line's `ore` before its `ose`."""
    return re.sub(
        r'("kind":"ViewChange".*?"detail":\{)("ose":\d+,)("ore":\d+,)', r"\1\3\2", text, count=1
    )


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace(
            '{"time":1,"kind":"Join","node":0,"detail":{}}',
            '{"time":9,"kind":"Join","node":0,"detail":{},"time":1}',
            1,
        ),
        lambda text: text.replace('"kind":"Join"', '"kind":"J\\u006fin"', 1),
        lambda text: text.replace('"kind":"Join","node":0,', '"kind":"Join","node":-0,', 1),
        _reorder_first_view,
        lambda text: "".join(json.dumps(json.loads(line)) + "\n" for line in text.splitlines()),
        lambda text: "  " + text,
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\n\n"),
        lambda text: text[:-1],
    ],
    ids=[
        "repeated-field",
        "escaped-kind",
        "minus-zero",
        "reordered-view",
        "spaced-separators",
        "leading-spaces",
        "crlf",
        "blank-lines",
        "no-final-newline",
    ],
)
def test_verify_refuses_the_right_values_written_another_way(tmp_path, capsys, edit):
    """A line that json.loads reads as the engine's values, but that the
    engine does not write byte for byte, is refused at its line, and so is
    a blank line. Before the decoder re-encoded each event, verify passed
    each of these traces; before it kept each line as read, it passed the
    last four."""
    config = write_config(tmp_path)
    trace_path = tmp_path / "run.jsonl"
    main(["simulate", "--config", config, "--trace", str(trace_path)])
    capsys.readouterr()

    text = trace_path.read_text()
    forged = edit(text)
    assert forged != text
    assert [json.loads(line) for line in forged.splitlines() if line] == [
        json.loads(line) for line in text.splitlines()
    ]
    verify_refuses(config, trace_path, capsys, _forge(trace_path, forged.encode()))


def _publish_of(deliver):
    """A match for the Publish line that `deliver` delivers."""
    detail = deliver["detail"]
    return lambda event: event["node"] == detail["publisher"] and all(
        event["detail"][field] == detail[field] for field in ("key", "seq")
    )


def _deliver_before_its_publish(events):
    deliver = _first(events, "Deliver")
    publish = _first(events, "Publish", _publish_of(deliver))
    events.remove(deliver)
    deliver["time"] = publish["time"]
    events.insert(events.index(publish), deliver)


@pytest.mark.parametrize(
    "edit",
    [
        lambda events: _first(events, "Deliver")["detail"].update(seq=999999),
        lambda events: _first(events, "Publish", lambda e: e["detail"]["seq"] == 2)[
            "detail"
        ].update(seq=3),
        _deliver_before_its_publish,
    ],
    ids=["deliver-seq-forged", "publish-seq-gap", "deliver-before-its-publish"],
)
def test_verify_rejects_a_seq_the_bus_never_gave(tmp_path, capsys, edit):
    # Each (publisher, key) numbers its samples 1, 2, 3, ...: a Publish line
    # takes the next number, and a Deliver line names a number already
    # published. Before the decoder checked the numbers, verify passed all
    # three edits; each is refused at its first changed line.
    config, trace_path, events = _simulated_events(tmp_path, capsys)
    edit(events)
    verify_refuses(config, trace_path, capsys, _write_events(trace_path, events))


def _join(node):
    return f'{{"time":1,"kind":"Join","node":{node},"detail":{{}}}}\n'


def _subscribe_mybox(node, instance):
    key = f'{{"topic":"MyBox","instance":{instance}}}'
    return f'{{"time":1,"kind":"Subscribe","node":{node},"detail":{{"key":{key}}}}}\n'


# Ids that no other test names, so that no earlier test can have put them in
# a table this test checks.
HOSTILE = range(7 * 10**9, 7 * 10**9 + 2000)


@pytest.mark.parametrize(
    "text, line",
    [
        (_join(0) + "".join(_subscribe_mybox(0, n) for n in HOSTILE), 2),
        ("".join(_join(n) + _subscribe_mybox(n, n) for n in HOSTILE), 1),
    ],
    ids=["keys-of-unjoined-nodes", "joins-outside-the-config"],
)
def test_verify_memory_does_not_grow_with_a_hostile_trace(tmp_path, capsys, text, line):
    """Topic keys are interned, and the encoder's table of text keeps each
    id and key it writes, for the life of the process: a trace whose keys
    name thousands of distinct nodes puts none of them in either. `verify`
    builds nothing from the file's values; it refuses the file at its first
    line that the replay of the config does not write."""
    config = write_config(tmp_path)
    trace_path = tmp_path / "hostile.jsonl"
    trace_path.write_text(text)
    keys = len(bus._KEYS[TopicName.MYBOX])
    verify_refuses(config, trace_path, capsys, line)
    assert len(bus._KEYS[TopicName.MYBOX]) == keys
    assert not any(node in trace._TEXT for node in HOSTILE)
    assert not any(getattr(value, "instance", None) in HOSTILE for value in trace._TEXT)


@pytest.mark.parametrize(
    "line",
    [
        b"x" * 1_000_000,
        json.dumps("x" * 1_000_000).encode(),
        b'{"time":1,"kind":"Toggle","node":0,"detail":{"to":"' + b"x" * 1_000_000 + b'"}}',
    ],
    ids=["not-json", "not-a-record", "bad-detail"],
)
def test_trace_errors_show_a_clipped_line(tmp_path, capsys, line):
    config = write_config(tmp_path)
    trace_path = tmp_path / "junk.jsonl"
    trace_path.write_bytes(line + b"\n")
    assert main(["verify", "--config", config, "--trace", str(trace_path)]) == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("malformed trace") and err.count("\n") == 1
    assert len(err.encode()) < 200


def test_verify_reads_a_huge_line_in_bounded_memory(tmp_path, capsys):
    """A first line of 20 MB with no newline: `verify` reads the file a
    chunk of the replay's length at a time, so it refuses the line without
    ever holding it. The decoder before it read the line whole."""
    config = write_config(tmp_path)
    trace_path = tmp_path / "huge.jsonl"
    trace_path.write_bytes(b"x" * 20_000_000)
    tracemalloc.start()
    try:
        err = verify_refuses(config, trace_path, capsys, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert err.endswith(", found '" + "x" * 80 + "'...\n")


# -- exit codes -------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["simulate"]) == EXIT_USAGE  # --config is required
    capsys.readouterr()
    assert main(["oracle", "--count", "0"]) == EXIT_USAGE
    capsys.readouterr()


def stale_view(view, msg):
    """A node that ignores news on its receiver's status stream keeps a
    stale next-available value."""
    return protocol.Effects(view)


def test_failed_in_run_verification_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch):
    """`simulate --verify` checks the run as it goes: a run with stale views
    prints its mismatch lines and the failed verdict, and exits 1."""
    monkeypatch.setattr(protocol, "on_mybox_from_ore", stale_view)
    config = write_config(tmp_path, seed=5, workload={"lambda": 3.0, "intervals": 20})
    assert main(["simulate", "--config", config, "--verify"]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[-1].startswith("verification: FAILED (")
    assert out[-1].endswith(" mismatches over 20 intervals)")
    assert any(line.startswith("mismatch interval=") for line in out)
    assert captured.err == ""


def test_a_view_off_the_schedule_fails_verify_and_simulate_alike(tmp_path, capsys, flip_one_view):
    """A handler that flips its node's availability: `simulate --verify`
    stops the run with the one stderr line of the TraceError that
    verify_trace raises on the same run's trace."""
    config = write_config(tmp_path, seed=5, workload={"lambda": 3.0, "intervals": 20})
    run = ["simulate", "--config", config, "--interleaved-toggles"]
    assert main([*run, "--verify"]) == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: interval ") and err.count("\n") == 1
    assert "availability diverges from the schedule" in err
    flip_one_view.clear()
    cfg = _config_of(config)
    events, _ = scenario.run_scenario(cfg, interleaved_toggles=True)
    with pytest.raises(TraceError) as raised:
        scenario.verify_trace(events, cfg)
    assert f"malformed trace: {raised.value}\n" == err


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "simulate" in capsys.readouterr().out


def test_missing_files_exit_3(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    config = write_config(tmp_path)
    assert main(["verify", "--config", config, "--trace", str(tmp_path / "no.jsonl")]) == EXIT_IO


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for data, message in (
        (b'{"node_count": 3, "mystery": true}', "unknown config keys"),
        (b'{"node_count": 3, "topology": "basic"}', "unknown config keys"),
        (b'{"node_count": 3, "verify_each_interval": true}', "unknown config keys"),
        (b'{"node_count": 3}\xff', "config is not UTF-8 text"),
        (b"[" * 200_000, "config is nested too deeply"),
        (b'{"node_count": ' + b"1" * 5000 + b"}", "config is not valid JSON"),
        (b'{"node_count": 3, "workload": {"lambda": 1' + b"0" * 400 + b"}}", "lambda is too large"),
    ):
        path.write_bytes(data)
        assert main(["simulate", "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1


# -- oracle -------------------------------------------------------------------------


REFERENCE_ORACLE = ["oracle", "--count", "10", "--down", "2,5,6"]


def test_oracle_prints_the_reference_assignment(capsys):
    assert main([*REFERENCE_ORACLE, "--topology", "basic"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "n0: trust-ore",
        "n1: hint n3",
        "n2: trust-ore",
        "n3: trust-ore",
        "n4: hint n7",
        "n5: hint n7",
        "n6: trust-ore",
        "n7: trust-ore",
        "n8: trust-ore",
        "n9: trust-ore",
    ]


def test_oracle_directional_output(capsys):
    """Every line of both directional tables on the reference ring; sbrf
    prints a pair for an Available node and one candidate for a down one."""
    assert main([*REFERENCE_ORACLE, "--topology", "brf"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "n0: cw=n1 ccw=n9",
        "n1: cw=n3 ccw=n0",
        "n2: cw=n3 ccw=n1",
        "n3: cw=n4 ccw=n1",
        "n4: cw=n7 ccw=n3",
        "n5: cw=n7 ccw=n4",
        "n6: cw=n7 ccw=n4",
        "n7: cw=n8 ccw=n4",
        "n8: cw=n9 ccw=n7",
        "n9: cw=n0 ccw=n8",
    ]
    assert main([*REFERENCE_ORACLE, "--topology", "sbrf"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "n0: cw=n1 ccw=n9",
        "n1: cw=n3 ccw=n0",
        "n2: candidate=n3",
        "n3: cw=n4 ccw=n1",
        "n4: cw=n7 ccw=n3",
        "n5: candidate=n4",
        "n6: candidate=n7",
        "n7: cw=n8 ccw=n4",
        "n8: cw=n9 ccw=n7",
        "n9: cw=n0 ccw=n8",
    ]


def test_oracle_empty_system(capsys):
    assert main(["oracle", "--count", "3", "--down", "0,1,2"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "n0: system-empty", "n1: system-empty", "n2: system-empty",
    ]


def test_oracle_rejects_bad_down_lists(capsys):
    assert main(["oracle", "--count", "3", "--down", "7"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: down nodes [7] outside 0..2\n"
    assert main(["oracle", "--count", "3", "--down", "x"]) == EXIT_USAGE
    capsys.readouterr()
    # The ring's size is checked before its down set: before, this printed
    # "down nodes [0] outside 0..-2".
    assert main(["oracle", "--count", "-1", "--down", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: a ring has at least one node\n"


# -- sweep ----------------------------------------------------------------------------


def test_sweep_reports_each_seed_in_order(tmp_path, capsys):
    config = write_config(tmp_path, workload={"lambda": 2.0, "threshold": 2, "intervals": 6})
    assert main(["sweep", "--config", config, "--seeds", "3:7"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == [
        "seed=3", "seed=4", "seed=5", "seed=6",
    ]
    assert all("verification=PASSED" in line for line in lines[:-1])
    assert lines[-1] == "sweep: 4/4 passed"


def test_sweep_reports_failing_seeds(tmp_path, capsys, monkeypatch):
    """With stale views a calm workload fails on some seeds (4 and 6) and
    passes on the others; the sweep counts the passes and exits 1."""
    monkeypatch.setattr(protocol, "on_mybox_from_ore", stale_view)
    config = write_config(tmp_path, workload={"lambda": 0.5, "threshold": 2, "intervals": 6})
    assert main(["sweep", "--config", config, "--seeds", "3:7"]) == EXIT_MISMATCH
    *seeds, last = capsys.readouterr().out.splitlines()
    line = re.compile(
        r"seed=(\d+) deliveries=\d+ intervals=6 "
        r"verification=(PASSED|FAILED \([1-9]\d* mismatches\))"
    )
    matches = [line.fullmatch(text) for text in seeds]
    assert all(matches), seeds
    assert [m[1] for m in matches] == ["3", "4", "5", "6"]
    passed = sum(m[2] == "PASSED" for m in matches)
    assert 0 < passed < 4
    assert last == f"sweep: {passed}/4 passed"


def test_checked_runs_keep_no_trace(tmp_path, capsys, monkeypatch):
    """`sweep` and `simulate --verify` without `--trace` check each run as
    it goes and never build a trace recorder."""
    config = write_config(tmp_path)

    def no_recorder():
        raise AssertionError("a checked run recorded a trace it does not write")

    monkeypatch.setattr(scenario, "TraceRecorder", no_recorder)
    assert main(["simulate", "--config", config, "--verify"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("verification: PASSED (12 intervals)\n")
    assert main(["sweep", "--config", config, "--seeds", "0:3"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("sweep: 3/3 passed\n")


def test_sweep_rejects_bad_ranges(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["sweep", "--config", config, "--seeds", "5"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["sweep", "--config", config, "--seeds", "7:7"]) == EXIT_USAGE
    capsys.readouterr()


# -- pmf ---------------------------------------------------------------------------------


def test_pmf_prints_the_distribution(capsys):
    assert main(["pmf", "--rate", "1.0", "--max-k", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k=0 p=0.367879441171"
    assert lines[1] == "k=1 p=0.367879441171"
    assert len(lines) == 4


def test_pmf_rejects_bad_rates(capsys):
    assert main(["pmf", "--rate", "0"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["pmf", "--rate", "99"]) == EXIT_USAGE
    capsys.readouterr()

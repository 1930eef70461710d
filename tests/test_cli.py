"""Command line behavior: subcommands, exit codes, deterministic output."""

import copy
import hashlib
import json
import re

import pytest

from rfoverlay import bus, protocol, scenario
from rfoverlay.bus import TopicName
from rfoverlay.cli import EXIT_IO, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main


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
    trace_path.write_text("".join(_compact(e) + "\n" for e in events))


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


def test_verify_flags_a_corrupted_trace(tmp_path, capsys):
    config, trace_path, events = _simulated_events(tmp_path, capsys)
    index = max(i for i, e in enumerate(events) if e["kind"] == "ViewChange")
    events[index]["detail"]["tre"] = 777
    _write_events(trace_path, events)

    code = main(["verify", "--config", config, "--trace", str(trace_path)])
    assert code == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "verification: FAILED" in out
    assert "mismatch" in out


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
    nothing else the line states. Before verify checked the ring links it
    passed the first two traces, and before it checked `joining` the
    third."""
    config, trace_path, events = _simulated_events(tmp_path, capsys)
    view = [e for e in events if e["kind"] == "ViewChange" and e["node"] == node][-1]["detail"]
    assert view[field] == was
    view[field] = forged
    _write_events(trace_path, events)

    code = main(["verify", "--config", config, "--trace", str(trace_path)])
    assert code == EXIT_MISMATCH
    mismatches = [line for line in capsys.readouterr().out.splitlines() if line.startswith("mismatch")]
    assert mismatches == [shown]


def test_verify_refuses_a_toggle_that_changes_nothing(tmp_path, capsys):
    """The run toggles a node only when its view holds the other state, so a
    Toggle line repeated right after itself is malformed. Before this check,
    verify passed it."""
    config = write_config(tmp_path)
    trace_path = tmp_path / "run.jsonl"
    main(["simulate", "--config", config, "--trace", str(trace_path)])
    capsys.readouterr()

    lines = trace_path.read_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if '"kind":"Toggle"' in line)
    assert lines[index].startswith('{"time":9,"kind":"Toggle","node":1,')
    lines.insert(index, lines[index])
    trace_path.write_text("".join(lines))

    assert main(["verify", "--config", config, "--trace", str(trace_path)]) == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: toggle of 1 at interval ") and err.count("\n") == 1


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
    code = main(["verify", "--config", config, "--trace", str(trace_path)])
    assert code == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("malformed trace") and err.count("\n") == 1


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
    # A full trace with one field edited: JSON values are taken as they stand,
    # never coerced, every line holds exactly the fields of its kind, keys are
    # valid topic keys, and a MyBox publish is on its publisher's own
    # instance. A payload must be the one form its topic carries: a node id,
    # or null on MyBox only. Availability is the word "available" or
    # "unavailable".
    config, trace_path, events = _simulated_events(tmp_path, capsys)
    edit(events)
    _write_events(trace_path, events)

    code = main(["verify", "--config", config, "--trace", str(trace_path)])
    assert code == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("malformed trace:") and err.count("\n") == 1


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
    with type words, and wrote an ORe or OSe payload as a role and who.
    There is one decoder, for bare values, so a line written an old way is
    malformed."""
    config = write_config(tmp_path)
    trace_path = tmp_path / "run.jsonl"
    main(["simulate", "--config", config, "--trace", str(trace_path)])
    capsys.readouterr()

    text = trace_path.read_text()
    assert text.count(line + "\n") == 1
    trace_path.write_text(text.replace(line + "\n", old + "\n"))
    assert main(["verify", "--config", config, "--trace", str(trace_path)]) == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("malformed trace:") and err.count("\n") == 1


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
    # published. Before these checks, verify passed all three edits.
    config, trace_path, events = _simulated_events(tmp_path, capsys)
    edit(events)
    _write_events(trace_path, events)

    code = main(["verify", "--config", config, "--trace", str(trace_path)])
    assert code == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("malformed trace:") and " seq " in err and err.count("\n") == 1


def _join(node):
    return f'{{"time":1,"kind":"Join","node":{node},"detail":{{}}}}\n'


def _subscribe_mybox(node, instance):
    key = f'{{"topic":"MyBox","instance":{instance}}}'
    return f'{{"time":1,"kind":"Subscribe","node":{node},"detail":{{"key":{key}}}}}\n'


HOSTILE = range(10**9, 10**9 + 2000)


@pytest.mark.parametrize(
    "text, shown",
    [
        (
            _join(0) + "".join(_subscribe_mybox(0, n) for n in HOSTILE),
            repr(_subscribe_mybox(0, HOSTILE[0]).strip()[:80]),
        ),
        ("".join(_join(n) + _subscribe_mybox(n, n) for n in HOSTILE), "config says 0.."),
    ],
    ids=["keys-of-unjoined-nodes", "joins-outside-the-config"],
)
def test_verify_memory_does_not_grow_with_a_hostile_trace(tmp_path, capsys, text, shown):
    """Topic keys are interned for the life of the process: a trace whose
    keys name thousands of distinct nodes is refused at its first such line,
    before the key is built, so the intern table does not grow. A key of an
    unjoined node is refused by the decoder, which shows the clipped line."""
    config = write_config(tmp_path)
    trace_path = tmp_path / "hostile.jsonl"
    trace_path.write_text(text)
    keys = len(bus._KEYS[TopicName.MYBOX])
    assert main(["verify", "--config", config, "--trace", str(trace_path)]) == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("malformed trace:") and err.count("\n") == 1
    assert f"node {HOSTILE[0]}" in err and shown in err
    assert len(bus._KEYS[TopicName.MYBOX]) == keys


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
    stops the run with the one stderr line that `verify` gives for the
    same run's trace."""
    config = write_config(tmp_path, seed=5, workload={"lambda": 3.0, "intervals": 20})
    run = ["simulate", "--config", config, "--interleaved-toggles"]
    assert main([*run, "--verify"]) == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: interval ") and err.count("\n") == 1
    assert "availability diverges from the schedule" in err
    flip_one_view.clear()
    trace_path = str(tmp_path / "run.jsonl")
    assert main([*run, "--trace", trace_path]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--config", config, "--trace", trace_path]) == EXIT_MISMATCH
    assert capsys.readouterr().err == err


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

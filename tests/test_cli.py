"""Command line behavior: subcommands, exit codes, deterministic output."""

import copy
import hashlib
import json

import pytest

from rfoverlay import scenario
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


def test_simulate_trace_is_pinned_across_commits(tmp_path, capsys):
    # The README demo config; the digest changes only when the trace does.
    config = write_config(tmp_path)
    trace_path = tmp_path / "run.jsonl"
    assert main(["simulate", "--config", config, "--trace", str(trace_path)]) == EXIT_OK
    assert "wrote trace: " + str(trace_path) + " (359 events)" in capsys.readouterr().out
    data = trace_path.read_bytes()
    assert data.count(b"\n") == 359
    assert hashlib.sha256(data).hexdigest() == (
        "1c1c64e1aebbb3e014eafca38c7dd3e0044096323c6588fb31d33a906b32f75c"
    )


def test_verify_flags_a_corrupted_trace(tmp_path, capsys):
    config = write_config(tmp_path)
    trace_path = tmp_path / "run.jsonl"
    main(["simulate", "--config", config, "--trace", str(trace_path)])
    capsys.readouterr()

    lines = trace_path.read_text().splitlines()
    events = [json.loads(line) for line in lines]
    index = max(
        i for i, e in enumerate(events)
        if e["kind"] == "ViewChange" and "view" in e["detail"]
    )
    events[index]["detail"]["view"]["tre"] = {"kind": "hint", "node": 777}
    lines[index] = json.dumps(events[index])
    trace_path.write_text("\n".join(lines) + "\n")

    code = main(["verify", "--config", config, "--trace", str(trace_path)])
    assert code == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "verification: FAILED" in out
    assert "mismatch" in out


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


def _hint_view(event):
    return event["detail"]["view"]["tre"]["kind"] == "hint"


def _identity_publish(event):
    return event["detail"]["payload"]["type"] == "identity"


def _ose_publish(event):
    return event["detail"]["key"]["topic"] == "OSe"


def _mybox_publish(event):
    return event["detail"]["key"]["topic"] == "MyBox"


def _move_first_mybox_publish(events):
    event = _first(events, "Publish", _mybox_publish)
    event["detail"]["key"]["instance"] = event["node"] + 1


def _append_about(node, kind, match=lambda event: True):
    """An edit that appends a well-formed copy of the first `kind` line, at
    the last line's time, about `node`, which never joined. A view's `me`
    and a publish's instance follow the node."""

    def edit(events):
        event = copy.deepcopy(_first(events, kind, match))
        event.update(time=events[-1]["time"], node=node)
        if kind == "ViewChange":
            event["detail"]["view"]["me"] = node
        if kind == "Publish":
            event["detail"]["key"]["instance"] = node
        events.append(event)

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda events: events[0].update(time=True),
        lambda events: events[0].update(time="1"),
        lambda events: events[0].update(time=1.9),
        lambda events: events[0].update(node=0.0),
        lambda events: _first(events, "ViewChange", _hint_view)["detail"]["view"]["tre"].update(
            node="2"
        ),
        lambda events: _first(events, "Toggle")["detail"].update(interval="1"),
        lambda events: _first(events, "Publish", _identity_publish)["detail"]["payload"].update(
            node="2"
        ),
        lambda events: _first(events, "Publish", _ose_publish)["detail"]["key"].update(
            topic="Bogus"
        ),
        _move_first_mybox_publish,
        lambda events: events.append({"time": 42, "kind": "Deliver", "node": None, "detail": {}}),
        lambda events: _first(events, "Subscribe")["detail"].update(key="junk"),
        lambda events: _first(events, "ViewChange")["detail"]["view"].update(me=99),
        lambda events: _first(events, "ViewChange")["detail"]["view"].update(ose="x"),
        lambda events: _first(events, "ViewChange")["detail"]["view"].update(joining=1),
        lambda events: _first(events, "Deliver")["detail"]["key"].update(instance=-1),
        lambda events: _first(events, "Toggle")["detail"].update(cause=1),
        _append_about(42, "ViewChange"),
        _append_about(42, "Publish", _mybox_publish),
        _append_about(77, "Deliver"),
    ],
    ids=[
        "time-bool", "time-string", "time-float", "node-float",
        "hint-node-string", "toggle-interval-string", "identity-node-string", "unknown-topic",
        "mybox-instance-not-publisher", "deliver-node-null", "subscribe-key-junk",
        "view-me-not-node", "view-ose-string", "view-joining-int", "key-instance-negative",
        "toggle-extra-field", "view-of-unjoined-node", "publish-by-unjoined-node",
        "deliver-to-unjoined-node",
    ],
)
def test_verify_rejects_mistyped_fields(tmp_path, capsys, edit):
    # A full trace with one field edited: JSON values are taken as they stand,
    # never coerced, every line holds exactly the fields of its kind, keys are
    # valid topic keys, a view's `me` is its node, and a MyBox publish is on
    # its publisher's own instance.
    config = write_config(tmp_path)
    trace_path = tmp_path / "run.jsonl"
    main(["simulate", "--config", config, "--trace", str(trace_path)])
    capsys.readouterr()

    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    edit(events)
    trace_path.write_text("".join(json.dumps(e) + "\n" for e in events))

    code = main(["verify", "--config", config, "--trace", str(trace_path)])
    assert code == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("malformed trace:") and err.count("\n") == 1


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


def test_failed_in_run_verification_exits_1_without_a_traceback(tmp_path, capsys):
    """Interleaved toggles that take every Available node down together can
    miss the system-empty state (the known defect); with in-run verification
    that run fails, and the CLI reports it on one line."""
    config = write_config(
        tmp_path,
        node_count=6,
        seed=5,
        workload={"lambda": 3.0, "intervals": 20},
        verify_each_interval=True,
    )
    assert main(["simulate", "--config", config, "--interleaved-toggles"]) == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("run failed: VerificationError: interval ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


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
        (b'{"node_count": 3}\xff', "config is not UTF-8 text"),
        (b"[" * 200_000, "config is nested too deeply"),
        (b'{"node_count": ' + b"1" * 5000 + b"}", "config is not valid JSON"),
    ):
        path.write_bytes(data)
        assert main(["simulate", "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1


# -- oracle -------------------------------------------------------------------------


def test_oracle_prints_the_reference_assignment(capsys):
    assert main(["oracle", "--topology", "basic", "--count", "10", "--down", "2,5,6"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n0: trust-ore"
    assert lines[1] == "n1: hint n3"
    assert lines[4] == "n4: hint n7"
    assert lines[5] == "n5: hint n7"
    assert len(lines) == 10


def test_oracle_directional_output(capsys):
    assert main(["oracle", "--topology", "brf", "--count", "10", "--down", "2,5,6"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[4] == "n4: cw=n7 ccw=n3"
    assert main(["oracle", "--topology", "sbrf", "--count", "10", "--down", "2,5,6"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[5] == "n5: candidate=n4"
    assert lines[0] == "n0: cw=n1 ccw=n9"


def test_oracle_empty_system(capsys):
    assert main(["oracle", "--count", "3", "--down", "0,1,2"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "n0: system-empty", "n1: system-empty", "n2: system-empty",
    ]


def test_oracle_rejects_bad_down_lists(capsys):
    assert main(["oracle", "--count", "3", "--down", "7"]) == EXIT_USAGE
    capsys.readouterr()
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

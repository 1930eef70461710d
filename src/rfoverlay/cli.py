"""Command line front end.

Subcommands:

  simulate   run a scenario from a config file; write trace and metrics, and
             with --verify check each quiescent point as the run reaches it
  verify     check a previously written trace against the oracles
  oracle     print the all-seeing assignment for one availability vector
  sweep      run and check a scenario across a seed range, one seed at a time
  pmf        print the event-count distribution used by the workload

`simulate --verify` and `sweep` check each run as it goes, so neither keeps
a trace unless `simulate --trace` writes one; `verify` checks a written
trace.

Exit codes: 0 on success, 1 when verification finds mismatches, a trace is
malformed (or a checked run's availability leaves the schedule) or a run
fails (a join, or quiescence), 2 for bad usage or configuration, 3 for I/O
failures.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from .oracle import RingError, RingModel, basic_tst, brf_tst, sbrf_tst
from .scenario import (
    ConfigError,
    ScenarioConfig,
    VerifyReport,
    config_with_seed,
    load_config,
    run_scenario,
    verify_trace,
)
from .metrics import render_metrics
from .network import JoinError, QuiescenceError
from .trace import TraceError, dump_trace, load_trace
from .workload import MAX_RATE, poisson_pmf

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _load_config_file(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as stream:
        return load_config(stream)


def _print_report(report: VerifyReport, out: IO[str]) -> int:
    for miss in report.mismatches:
        print(
            f"mismatch interval={miss.interval} node=n{miss.node} field={miss.field} "
            f"expected={miss.expected} observed={miss.observed}",
            file=out,
        )
    if report.passed:
        print(f"verification: PASSED ({report.intervals_checked} intervals)", file=out)
        return EXIT_OK
    print(
        f"verification: FAILED ({len(report.mismatches)} mismatches over "
        f"{report.intervals_checked} intervals)",
        file=out,
    )
    return EXIT_MISMATCH


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    found = [] if args.verify else None
    trace, metrics = run_scenario(
        cfg,
        interleaved_toggles=args.interleaved_toggles,
        record=args.trace is not None,
        mismatches=found,
    )
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as stream:
            dump_trace(trace, stream)
        print(f"wrote trace: {args.trace} ({len(trace)} events)")
    table = render_metrics(metrics)
    if args.metrics is not None:
        with open(args.metrics, "w", encoding="utf-8") as stream:
            stream.write(table)
        print(f"wrote metrics: {args.metrics}")
    else:
        print(table, end="")
    if found is not None:
        report = VerifyReport(cfg.workload.intervals, tuple(found))
        return _print_report(report, sys.stdout)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    with open(args.trace, "r", encoding="utf-8") as stream:
        report = verify_trace(load_trace(stream), cfg)
    return _print_report(report, sys.stdout)


def _parse_down(raw: str) -> set[int]:
    down: set[int] = set()
    if not raw:
        return down
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            node = int(part)
        except ValueError:
            raise ConfigError(f"--down expects integers, got {part!r}") from None
        down.add(node)
    return down


def _node_str(node: int | None) -> str:
    return "none" if node is None else f"n{node}"


def cmd_oracle(args: argparse.Namespace) -> int:
    ring = RingModel.of(args.count, _parse_down(args.down))
    if args.topology == "basic":
        for node, entry in sorted(basic_tst(ring).items()):
            if entry is None:
                text = "system-empty"
            elif entry == ring.successor(node):
                text = "trust-ore"
            else:
                text = f"hint {_node_str(entry)}"
            print(f"n{node}: {text}")
    elif args.topology == "brf":
        for node, (cw, ccw) in sorted(brf_tst(ring).items()):
            print(f"n{node}: cw={_node_str(cw)} ccw={_node_str(ccw)}")
    else:
        for node, entry in sorted(sbrf_tst(ring).items()):
            if isinstance(entry, tuple):
                print(f"n{node}: cw={_node_str(entry[0])} ccw={_node_str(entry[1])}")
            else:
                print(f"n{node}: candidate={_node_str(entry)}")
    return EXIT_OK


def _parse_seed_range(raw: str) -> range:
    try:
        start_text, end_text = raw.split(":", 1)
        start, end = int(start_text), int(end_text)
    except ValueError:
        raise ConfigError(f"--seeds expects START:END, got {raw!r}") from None
    if end <= start:
        raise ConfigError("--seeds range is empty")
    return range(start, end)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    seeds = _parse_seed_range(args.seeds)
    failures = 0
    for seed in seeds:
        seeded = config_with_seed(cfg, seed)
        found = []
        _, metrics = run_scenario(seeded, record=False, mismatches=found)
        mismatches = len(found)
        status = "PASSED" if mismatches == 0 else f"FAILED ({mismatches} mismatches)"
        print(
            f"seed={seed} deliveries={metrics.deliveries} "
            f"intervals={seeded.workload.intervals} verification={status}"
        )
        if mismatches:
            failures += 1
    print(f"sweep: {len(seeds) - failures}/{len(seeds)} passed")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def cmd_pmf(args: argparse.Namespace) -> int:
    if not 0.0 < args.rate <= MAX_RATE:
        raise ConfigError(f"--rate must be in (0, {MAX_RATE:g}]")
    if args.max_k < 0:
        raise ConfigError("--max-k must be >= 0")
    for k in range(args.max_k + 1):
        print(f"k={k} p={poisson_pmf(k, args.rate):.12f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfoverlay",
        description="Ring overlay simulator with oracle-backed verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario from a config file")
    p.add_argument("--config", required=True, help="scenario config (JSON)")
    p.add_argument("--trace", default=None, help="write the trace here (JSONL)")
    p.add_argument("--metrics", default=None, help="write the metrics table here")
    p.add_argument("--verify", action="store_true", help="check the run against the oracles")
    p.add_argument(
        "--interleaved-toggles",
        action="store_true",
        help="apply each interval's toggles before any dispatch (stress mode)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check a trace against the oracles")
    p.add_argument("--config", required=True, help="scenario config (JSON)")
    p.add_argument("--trace", required=True, help="trace to check (JSONL)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="print the assignment for one availability vector")
    p.add_argument("--topology", choices=["basic", "brf", "sbrf"], default="basic")
    p.add_argument("--count", type=int, required=True, help="ring size")
    p.add_argument("--down", default="", help="comma separated unavailable nodes")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="run and verify a scenario across seeds")
    p.add_argument("--config", required=True, help="scenario config (JSON)")
    p.add_argument("--seeds", required=True, help="seed range START:END (half open)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pmf", help="print the workload event-count distribution")
    p.add_argument("--rate", type=float, required=True, help="mean events per interval")
    p.add_argument("--max-k", type=int, default=12, help="largest count to print")
    p.set_defaults(func=cmd_pmf)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return EXIT_OK
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, RingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (JoinError, QuiescenceError) as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Inspect, validate and export srbsg telemetry JSONL traces.

Reads telemetry_schema 2, the layout the Collector writes: events, wear
snapshots, counters, span events, stall/write latency histograms and
decoded span/reason names. Every subcommand first rejects a trace whose
first record is not a telemetry_schema 2 header, or whose run records
disagree with its event lines (retained must equal the run's event
lines, retained + dropped its emitted events), so a truncated or foreign
trace fails instead of yielding a partial view. Subcommands (a leading
``--`` is accepted, so ``srbsg-trace --validate`` and ``srbsg-trace
validate`` are the same):

  validate FILE [--expect EV[,EV...]]
      Structural checks: known record/event types, per-run seq
      monotonicity, and the attribution invariant — every GapMoved /
      KeyRerandomized must follow a RemapTriggered from the same run and
      scheme at the same sim instant. It also pairs SpanBegin/SpanEnd
      per (run, scheme, span kind) and cross-checks histogram records.
      A span cut by ring overflow (run.dropped > 0) is reported as
      truncated, not an error; an unbalanced span in a run that dropped
      nothing is an error. Events at the ring's truncation boundary
      (oldest retained timestamp of a run that dropped events) are
      exempt from attribution: their trigger may have been dropped.
      --expect additionally requires at least one event of each listed
      type somewhere in the trace.

  timeline FILE [--entry N] [--limit N]
      Human-readable event listing (default: all entries, first 40
      events each).

  cadence FILE
      Remap-cadence statistics per run: distinct remap instants, mean /
      min / max gap between them, rekey and gap-move counts.

  forensics FILE
      Attack-forensics view: correlates the RTA probe's classified-bit
      stream with the defender's remap / re-key / detector timeline in
      the window the probe was active.

  export FILE [--chrome OUT] [--prom OUT]
      --chrome writes Chrome trace-event JSON (loadable in Perfetto /
      chrome://tracing): one process per run, one track per span kind,
      instant markers for point events. --prom writes a Prometheus
      text-format snapshot of the merged counters and latency
      histograms. OUT of ``-`` writes to stdout.

  channel FILE [--json]
      Replays the ChannelSymbol span stream as a binary channel and
      reports the empirical capacity per run: plug-in mutual
      information I(bit; observed stalls) in bits per symbol and per
      write. This is the trace-side cross-check of bench/perf_stall's
      in-process estimate.

Exit status: 0 on success, 1 on validation failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

SCHEMA_VERSION = 2

EVENT_TYPES = (
    "RemapTriggered",
    "GapMoved",
    "KeyRerandomized",
    "DetectorStateChange",
    "LineFailed",
    "BatchChunkApplied",
    "ProbeClassified",
    "EpochApplied",
    "SpanBegin",
    "SpanEnd",
)

RECORD_TYPES = ("header", "run", "event", "wear_snapshot", "counters",
                "counters_merged", "hist", "hist_merged")

SPAN_KINDS = ("RemapEpoch", "BatchChunk", "EpochProjection",
              "ExactReplayFallback", "DetectorEval", "ChannelSymbol")

FALLBACK_REASONS = ("None", "NearFailure", "PsiChange", "NonUniformContent",
                    "NonPeriodicPattern", "CacheMiss")

HIST_NAMES = ("write_ns", "stall_ns")

ATTRIBUTED = ("GapMoved", "KeyRerandomized")


class TraceError(Exception):
    """A malformed or invariant-violating trace."""


def load(path: str) -> list[dict]:
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceError(f"line {lineno}: not JSON: {exc}") from exc
                if not isinstance(rec, dict) or "type" not in rec:
                    raise TraceError(f"line {lineno}: record without a 'type'")
                rec["_line"] = lineno
                records.append(rec)
    except OSError as exc:
        raise TraceError(f"cannot read {path}: {exc}") from exc
    if not records:
        raise TraceError("empty trace")
    check_structure(records)
    return records


def events_of(records: list[dict]) -> list[dict]:
    return [r for r in records if r["type"] == "event"]


def runs_of(records: list[dict]) -> dict[int, dict]:
    return {r["entry"]: r for r in records if r["type"] == "run"}


def check_structure(records: list[dict]) -> None:
    """The header/schema and run-bookkeeping checks every subcommand
    relies on (see the module docstring)."""
    header = records[0]
    if header["type"] != "header":
        raise TraceError("first record must be the header")
    schema = header.get("telemetry_schema")
    if schema != SCHEMA_VERSION:
        raise TraceError(f"telemetry_schema must be {SCHEMA_VERSION}, got {schema!r}")
    lines = Counter(r.get("entry") for r in records if r["type"] == "event")
    for entry, run in runs_of(records).items():
        if lines[entry] != run.get("retained"):
            raise TraceError(
                f"entry {entry}: {lines[entry]} event lines but "
                f"run.retained={run.get('retained')}")
        if run.get("retained", 0) + run.get("dropped", 0) != run.get("events"):
            raise TraceError(
                f"entry {entry}: retained+dropped != events in the run record")


def bucket_lo(idx: int) -> int:
    """Lower bound of LogHistogram bucket `idx` (mirrors histogram.cpp)."""
    if idx < 8:
        return idx
    octave, sub = idx >> 3, idx & 7
    return (8 | sub) << (octave - 1)


def _validate_spans(entry: int, evs: list[dict], dropped: int) -> tuple[int, int]:
    """Pair SpanBegin/SpanEnd per (scheme, kind); returns (spans, truncated).

    An unmatched end (or a begin left open at run end) is only legal
    when the ring dropped events — the partner may be among them.
    """
    open_spans: Counter = Counter()
    spans = 0
    truncated = 0
    for ev in evs:
        if ev["ev"] not in ("SpanBegin", "SpanEnd"):
            continue
        kind = ev.get("span")
        if kind not in SPAN_KINDS:
            raise TraceError(f"line {ev['_line']}: unknown span kind {kind!r}")
        if kind == "ExactReplayFallback":
            if ev.get("reason") not in FALLBACK_REASONS:
                raise TraceError(
                    f"line {ev['_line']}: fallback span with bad reason "
                    f"{ev.get('reason')!r}")
        key = (ev["scheme"], kind)
        if ev["ev"] == "SpanBegin":
            open_spans[key] += 1
            spans += 1
        else:
            if open_spans[key] > 0:
                open_spans[key] -= 1
            elif dropped > 0:
                truncated += 1  # begin fell off the ring
            else:
                raise TraceError(
                    f"line {ev['_line']}: SpanEnd({kind}) without a begin in "
                    f"entry {entry} (and the run dropped nothing)")
    leftover = sum(open_spans.values())
    if leftover > 0 and dropped == 0:
        raise TraceError(
            f"entry {entry}: {leftover} span(s) never ended "
            f"(and the run dropped nothing)")
    return spans, truncated + leftover


def _validate_hists(records: list[dict], runs: dict[int, dict]) -> int:
    """Check per-run and merged histogram records; returns hist count."""
    per_run: dict[str, int] = {name: 0 for name in HIST_NAMES}
    seen: set[tuple[int, str]] = set()
    merged: dict[str, dict] = {}
    for rec in records:
        if rec["type"] not in ("hist", "hist_merged"):
            continue
        name = rec.get("name")
        if name not in HIST_NAMES:
            raise TraceError(f"line {rec['_line']}: unknown histogram {name!r}")
        total = sum(c for _, _, c in rec.get("buckets", []))
        if total != rec.get("count"):
            raise TraceError(
                f"line {rec['_line']}: histogram buckets sum to {total}, "
                f"count says {rec.get('count')}")
        for idx, lo, _ in rec.get("buckets", []):
            if lo != bucket_lo(idx):
                raise TraceError(
                    f"line {rec['_line']}: bucket {idx} claims lower bound {lo}, "
                    f"expected {bucket_lo(idx)}")
        if rec["type"] == "hist":
            if rec.get("entry") not in runs:
                raise TraceError(
                    f"line {rec['_line']}: histogram for entry {rec.get('entry')} "
                    f"with no run")
            key = (rec["entry"], name)
            if key in seen:
                raise TraceError(
                    f"line {rec['_line']}: duplicate {name} histogram for "
                    f"entry {rec['entry']}")
            seen.add(key)
            per_run[name] += rec["count"]
        else:
            merged[name] = rec
    for name in HIST_NAMES:
        if name not in merged:
            raise TraceError(f"trace is missing the merged {name} histogram")
        if merged[name]["count"] != per_run[name]:
            raise TraceError(
                f"merged {name} histogram counts {merged[name]['count']} samples, "
                f"per-run histograms sum to {per_run[name]}")
    return len(seen) + len(merged)


def validate(records: list[dict], expect: list[str]) -> str:
    header = records[0]
    for rec in records:
        if rec["type"] not in RECORD_TYPES:
            raise TraceError(f"line {rec['_line']}: unknown record type {rec['type']!r}")

    runs = runs_of(records)
    events = events_of(records)
    if header.get("runs") != len(runs):
        raise TraceError(f"header claims {header.get('runs')} runs, trace has {len(runs)}")
    total_pushed = sum(r["events"] for r in runs.values())
    if header.get("events") != total_pushed:
        raise TraceError(
            f"header claims {header.get('events')} events, runs sum to {total_pushed}")

    # Per-run: seq strictly increasing, counts consistent with the run
    # record, attribution of moves/rekeys to a same-instant trigger.
    by_entry: dict[int, list[dict]] = {}
    for ev in events:
        if ev["ev"] not in EVENT_TYPES:
            raise TraceError(f"line {ev['_line']}: unknown event type {ev['ev']!r}")
        if ev["entry"] not in runs:
            raise TraceError(f"line {ev['_line']}: event for entry {ev['entry']} with no run")
        by_entry.setdefault(ev["entry"], []).append(ev)

    spans = 0
    truncated = 0
    for entry, evs in sorted(by_entry.items()):
        run = runs[entry]
        prev_seq = None
        prev_t = None
        # Oldest retained instant: attribution is unprovable there when
        # the ring dropped events (the trigger may be among them).
        boundary_t = evs[0]["t"] if run["dropped"] > 0 else None
        last_trigger: dict[str, int] = {}
        for ev in evs:
            if prev_seq is not None and ev["seq"] <= prev_seq:
                raise TraceError(
                    f"line {ev['_line']}: seq not strictly increasing in entry {entry}")
            if prev_t is not None and ev["t"] < prev_t:
                raise TraceError(
                    f"line {ev['_line']}: timestamps regress in entry {entry}")
            prev_seq, prev_t = ev["seq"], ev["t"]
            if ev["ev"] == "RemapTriggered":
                last_trigger[ev["scheme"]] = ev["t"]
            elif ev["ev"] in ATTRIBUTED:
                if ev["t"] == boundary_t:
                    continue
                if last_trigger.get(ev["scheme"]) != ev["t"]:
                    raise TraceError(
                        f"line {ev['_line']}: {ev['ev']} at t={ev['t']} (entry {entry}, "
                        f"scheme {ev['scheme']}) has no RemapTriggered at the same instant")
        s, trunc = _validate_spans(entry, evs, run["dropped"])
        spans += s
        truncated += trunc

    hists = _validate_hists(records, runs)

    for want in expect:
        if want not in EVENT_TYPES:
            raise TraceError(f"--expect {want}: not an event type (known: {EVENT_TYPES})")
        if not any(ev["ev"] == want for ev in events):
            raise TraceError(f"--expect {want}: no such event in the trace")

    attributed = sum(1 for ev in events if ev["ev"] in ATTRIBUTED)
    return (f"{len(runs)} runs, {len(events)} retained events "
            f"({attributed} moves/rekeys attributed), schema {SCHEMA_VERSION}, "
            f"{spans} spans ({truncated} truncated), {hists} histograms")


def timeline(records: list[dict], entry: int | None, limit: int) -> None:
    runs = runs_of(records)
    for ent in sorted(runs):
        if entry is not None and ent != entry:
            continue
        run = runs[ent]
        print(f"== entry {ent}: scheme={run['scheme']} attack={run['attack']} "
              f"seed={run['seed']} events={run['events']} dropped={run['dropped']}")
        shown = 0
        for ev in events_of(records):
            if ev["entry"] != ent:
                continue
            if shown >= limit:
                print(f"   ... ({run['retained'] - shown} more)")
                break
            dom = "global" if ev["domain"] == -1 else str(ev["domain"])
            tag = ev["ev"]
            if "span" in ev:
                tag = f"{tag}:{ev['span']}"
                if "reason" in ev and ev["reason"] != "None":
                    tag = f"{tag}({ev['reason']})"
            print(f"   t={ev['t']:>14} seq={ev['seq']:>8} {tag:<34} "
                  f"dom={dom:<7} a={ev['a']} b={ev['b']}")
            shown += 1


def cadence(records: list[dict]) -> None:
    runs = runs_of(records)
    for ent in sorted(runs):
        run = runs[ent]
        instants = sorted({ev["t"] for ev in events_of(records)
                           if ev["entry"] == ent and ev["ev"] == "RemapTriggered"})
        moves = sum(1 for ev in events_of(records)
                    if ev["entry"] == ent and ev["ev"] == "GapMoved")
        rekeys = sum(1 for ev in events_of(records)
                     if ev["entry"] == ent and ev["ev"] == "KeyRerandomized")
        gaps = [b - a for a, b in zip(instants, instants[1:])]
        mean = sum(gaps) / len(gaps) if gaps else 0.0
        print(f"entry {ent} ({run['scheme']} vs {run['attack']}): "
              f"{len(instants)} remap instants, {moves} moves, {rekeys} rekeys")
        if gaps:
            print(f"   gap between remap instants: mean {mean:.0f} ns, "
                  f"min {min(gaps)} ns, max {max(gaps)} ns")


def forensics(records: list[dict]) -> None:
    runs = runs_of(records)
    for ent in sorted(runs):
        run = runs[ent]
        evs = [ev for ev in events_of(records) if ev["entry"] == ent]
        probes = [ev for ev in evs if ev["ev"] == "ProbeClassified"]
        print(f"== entry {ent}: {run['scheme']} vs {run['attack']} (seed {run['seed']})")
        if not probes:
            print("   no ProbeClassified events (probe phase not retained or not run)")
            continue
        t0, t1 = probes[0]["t"], probes[-1]["t"]
        ones = sum(ev["a"] for ev in probes)
        bias = ones / len(probes)
        in_window = [ev for ev in evs if t0 <= ev["t"] <= t1]
        rekeys = sum(1 for ev in in_window if ev["ev"] == "KeyRerandomized")
        remaps = sum(1 for ev in in_window if ev["ev"] == "RemapTriggered")
        boosts = [ev for ev in in_window if ev["ev"] == "DetectorStateChange"]
        print(f"   probe window: t=[{t0}, {t1}] ns, {len(probes)} classified bits, "
              f"bias {bias:.3f}")
        print(f"   defender in window: {remaps} remap triggers, {rekeys} re-keys, "
              f"{len(boosts)} detector changes")
        if rekeys:
            per = len(probes) / rekeys
            print(f"   -> {per:.1f} harvested bits per re-key; each re-key voids the "
                  f"bits before it (paper §IV.B)")
        for ev in evs:
            if ev["ev"] == "LineFailed":
                print(f"   line failed: PA {ev['a']} at t={ev['t']} ns "
                      f"after {ev['b']} writes")


def export_chrome(records: list[dict]) -> dict:
    """Chrome trace-event JSON: a process per run, a track per span kind."""
    runs = runs_of(records)
    out: list[dict] = []
    # Track (tid) layout inside each run's process: spans first, then
    # one instant track for point events.
    span_tid = {kind: i + 1 for i, kind in enumerate(SPAN_KINDS)}
    marker_tid = len(SPAN_KINDS) + 1
    for ent in sorted(runs):
        run = runs[ent]
        out.append({"ph": "M", "name": "process_name", "pid": ent, "tid": 0,
                    "args": {"name": f"entry {ent}: {run['scheme']} vs "
                                     f"{run['attack']} seed={run['seed']}"}})
        for kind, tid in span_tid.items():
            out.append({"ph": "M", "name": "thread_name", "pid": ent, "tid": tid,
                        "args": {"name": kind}})
        out.append({"ph": "M", "name": "thread_name", "pid": ent, "tid": marker_tid,
                    "args": {"name": "events"}})
    open_spans: dict[tuple, list[dict]] = {}
    for ev in events_of(records):
        ts = ev["t"] / 1000.0  # trace-event ts is in microseconds
        if ev["ev"] == "SpanBegin":
            open_spans.setdefault((ev["entry"], ev["scheme"], ev["span"]), []).append(ev)
        elif ev["ev"] == "SpanEnd":
            stack = open_spans.get((ev["entry"], ev["scheme"], ev["span"]), [])
            if not stack:
                out.append({"ph": "i", "s": "t", "name": f"{ev['span']} (truncated)",
                            "cat": "span", "pid": ev["entry"],
                            "tid": span_tid[ev["span"]], "ts": ts})
                continue
            begin = stack.pop()
            args = {"scheme": ev["scheme"], "begin_detail": begin["b"],
                    "end_detail": ev["b"]}
            if "reason" in begin:
                args["reason"] = begin["reason"]
            out.append({"ph": "X", "name": ev["span"], "cat": "span",
                        "pid": ev["entry"], "tid": span_tid[ev["span"]],
                        "ts": begin["t"] / 1000.0,
                        "dur": (ev["t"] - begin["t"]) / 1000.0, "args": args})
        else:
            out.append({"ph": "i", "s": "t", "name": ev["ev"], "cat": "event",
                        "pid": ev["entry"], "tid": marker_tid, "ts": ts,
                        "args": {"scheme": ev["scheme"], "domain": ev["domain"],
                                 "a": ev["a"], "b": ev["b"]}})
    # Spans cut by ring overflow: surface the dangling begins as instants.
    for (ent, scheme, kind), stack in open_spans.items():
        for begin in stack:
            out.append({"ph": "i", "s": "t", "name": f"{kind} (truncated)",
                        "cat": "span", "pid": ent, "tid": span_tid[kind],
                        "ts": begin["t"] / 1000.0, "args": {"scheme": scheme}})
    return {"traceEvents": out, "displayTimeUnit": "ns"}


def export_prom(records: list[dict]) -> str:
    """Prometheus text-format snapshot of merged counters + histograms."""
    lines: list[str] = []
    merged = next((r for r in records if r["type"] == "counters_merged"), None)
    if merged is not None:
        lines.append("# HELP srbsg_counter Merged telemetry counter (all runs).")
        lines.append("# TYPE srbsg_counter gauge")
        for name in sorted(merged.get("counters", {})):
            lines.append(f'srbsg_counter{{name="{name}"}} {merged["counters"][name]}')
    for rec in records:
        if rec["type"] != "hist_merged":
            continue
        metric = f"srbsg_{rec['name']}"
        lines.append(f"# HELP {metric} Merged per-write latency histogram (ns).")
        lines.append(f"# TYPE {metric} histogram")
        cum = 0
        for idx, _, count in rec.get("buckets", []):
            cum += count
            # Bucket idx holds values in [lo(idx), lo(idx+1)); the
            # inclusive Prometheus upper bound is lo(idx+1)-1.
            lines.append(f'{metric}_bucket{{le="{bucket_lo(idx + 1) - 1}"}} {cum}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {rec["count"]}')
        lines.append(f"{metric}_sum {rec['sum']}")
        lines.append(f"{metric}_count {rec['count']}")
    return "\n".join(lines) + "\n"


def mutual_information(pairs: list[tuple[int, int]]) -> float:
    """Plug-in MI (bits) between the two coordinates of `pairs`."""
    n = len(pairs)
    if n == 0:
        return 0.0
    pxy = Counter(pairs)
    px = Counter(x for x, _ in pairs)
    py = Counter(y for _, y in pairs)
    mi = 0.0
    for (x, y), c in pxy.items():
        mi += (c / n) * math.log2((c * n) / (px[x] * py[y]))
    return max(mi, 0.0)


def channel(records: list[dict], as_json: bool) -> None:
    """Empirical capacity of the stall side channel, per run."""
    runs = runs_of(records)
    results = []
    for ent in sorted(runs):
        run = runs[ent]
        pairs: list[tuple[int, int]] = []
        wps = 0
        begin = None
        for ev in events_of(records):
            if ev["entry"] != ent or ev.get("span") != "ChannelSymbol":
                continue
            if ev["ev"] == "SpanBegin":
                begin = ev
            elif begin is not None:
                # begin.b packs (writes_per_symbol << 1) | bit; end.b is
                # the observed stall count for the symbol.
                pairs.append((begin["b"] & 1, ev["b"]))
                wps = begin["b"] >> 1
                begin = None
        if not pairs:
            continue
        mi = mutual_information(pairs)
        results.append({
            "entry": ent,
            "scheme": run["scheme"],
            "symbols": len(pairs),
            "writes_per_symbol": wps,
            "mi_bits_per_symbol": mi,
            "capacity_bits_per_write": mi / wps if wps else 0.0,
        })
    if as_json:
        print(json.dumps(results, indent=2))
        return
    if not results:
        print("no ChannelSymbol spans in the trace")
        return
    for r in results:
        print(f"entry {r['entry']} ({r['scheme']}): {r['symbols']} symbols, "
              f"MI {r['mi_bits_per_symbol']:.4f} bits/symbol, "
              f"{r['writes_per_symbol']} writes/symbol -> "
              f"capacity {r['capacity_bits_per_write']:.6f} bits/write")


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str]) -> int:
    if argv and argv[0].startswith("--") and argv[0] != "--help":
        argv = [argv[0].lstrip("-")] + argv[1:]
    parser = argparse.ArgumentParser(prog="srbsg-trace", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_val = sub.add_parser("validate", help="structural + attribution + span checks")
    p_val.add_argument("file")
    p_val.add_argument("--expect", default="",
                       help="comma-separated event types that must be present")
    p_tl = sub.add_parser("timeline", help="human-readable event listing")
    p_tl.add_argument("file")
    p_tl.add_argument("--entry", type=int, default=None)
    p_tl.add_argument("--limit", type=int, default=40)
    p_cad = sub.add_parser("cadence", help="remap-cadence statistics")
    p_cad.add_argument("file")
    p_for = sub.add_parser("forensics", help="probe-vs-remap correlation view")
    p_for.add_argument("file")
    p_exp = sub.add_parser("export", help="Chrome trace / Prometheus snapshot export")
    p_exp.add_argument("file")
    p_exp.add_argument("--chrome", default=None, metavar="OUT",
                       help="write Chrome trace-event JSON (Perfetto-loadable)")
    p_exp.add_argument("--prom", default=None, metavar="OUT",
                       help="write a Prometheus text-format snapshot")
    p_ch = sub.add_parser("channel", help="stall-channel capacity per run")
    p_ch.add_argument("file")
    p_ch.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    try:
        records = load(args.file)
        if args.cmd == "validate":
            expect = [e for e in args.expect.split(",") if e]
            print(f"srbsg-trace: OK: {validate(records, expect)}")
        elif args.cmd == "timeline":
            timeline(records, args.entry, args.limit)
        elif args.cmd == "cadence":
            cadence(records)
        elif args.cmd == "forensics":
            forensics(records)
        elif args.cmd == "export":
            if args.chrome is None and args.prom is None:
                print("srbsg-trace: FAIL: export needs --chrome and/or --prom",
                      file=sys.stderr)
                return 2
            if args.chrome is not None:
                _write_out(args.chrome, json.dumps(export_chrome(records)) + "\n")
            if args.prom is not None:
                _write_out(args.prom, export_prom(records))
        elif args.cmd == "channel":
            channel(records, args.json)
    except TraceError as exc:
        print(f"srbsg-trace: FAIL: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

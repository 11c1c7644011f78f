#!/usr/bin/env python3
"""ctest driver: telemetry JSONL round-trip through the forensics bench.

Runs the rta_forensics bench at reduced scale with --trace-out, then
feeds the resulting JSONL (telemetry_schema 2) to `srbsg-trace
validate`, which checks the trace structure, the attribution invariant
(every GapMoved / KeyRerandomized follows a same-instant
RemapTriggered), span pairing and histogram consistency, and requires
the event types the bench is guaranteed to produce. The Chrome /
Prometheus exporters are smoke-tested on the same trace. A trace whose
header names another telemetry_schema must be rejected, and `channel`
and `export` must reject a copy of the live trace cut short by lines.

Exits 77 (the ctest SKIP code) when the bench binary has not been built
in this tree.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import subprocess
import sys
import tempfile

# The header of a trace in the retired telemetry_schema 1 layout.
OLD_SCHEMA_HEADER = '{"type":"header","telemetry_schema":1,"runs":0,"events":0}\n'

# Event types a seeded RTA-probe-vs-SecurityRBSG run always produces:
# inner/outer remaps with their moves and DFN re-keys, the probe's
# latency classifications, the detector reacting to the hammer phase,
# and the final line failure (budget 2^30 far exceeds the reduced-scale
# lifetime, so the run ends in a failure, never in budget exhaustion).
EXPECT = ",".join(
    [
        "RemapTriggered",
        "GapMoved",
        "KeyRerandomized",
        "DetectorStateChange",
        "ProbeClassified",
        "LineFailed",
    ]
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", required=True, help="path to the rta_forensics binary")
    ap.add_argument("--trace-tool", required=True, help="path to tools/srbsg-trace")
    ap.add_argument("--seeds", default="1", help="seeded replicas to run (default 1)")
    args = ap.parse_args()

    bench = pathlib.Path(args.bench)
    if not bench.exists():
        print(f"skip: bench binary not built: {bench}", file=sys.stderr)
        return 77

    with tempfile.TemporaryDirectory(prefix="srbsg-trace-") as tmp:
        trace = pathlib.Path(tmp) / "forensics.jsonl"
        run = subprocess.run(
            [str(bench), "--seeds", args.seeds, "--trace-out", str(trace)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        sys.stdout.write(run.stdout)
        if run.returncode != 0:
            print(f"FAIL: rta_forensics exited {run.returncode}", file=sys.stderr)
            return 1
        if not trace.is_file():
            print("FAIL: bench did not write the trace file", file=sys.stderr)
            return 1

        val = subprocess.run(
            [sys.executable, args.trace_tool, "validate", str(trace), "--expect", EXPECT],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        sys.stdout.write(val.stdout)
        if val.returncode != 0:
            print(f"FAIL: srbsg-trace validate exited {val.returncode}", file=sys.stderr)
            return 1
        if "schema 2" not in val.stdout:
            print("FAIL: live trace did not validate as telemetry_schema 2",
                  file=sys.stderr)
            return 1

        # Exporter smoke: the Chrome trace must be JSON with a traceEvents
        # array, the Prometheus snapshot must carry both histograms.
        chrome = pathlib.Path(tmp) / "trace.chrome.json"
        prom = pathlib.Path(tmp) / "trace.prom"
        exp = subprocess.run(
            [sys.executable, args.trace_tool, "export", str(trace),
             "--chrome", str(chrome), "--prom", str(prom)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        sys.stdout.write(exp.stdout)
        if exp.returncode != 0:
            print(f"FAIL: srbsg-trace export exited {exp.returncode}", file=sys.stderr)
            return 1
        doc = json.loads(chrome.read_text(encoding="utf-8"))
        if not isinstance(doc.get("traceEvents"), list) or not doc["traceEvents"]:
            print("FAIL: Chrome export has no traceEvents", file=sys.stderr)
            return 1
        prom_text = prom.read_text(encoding="utf-8")
        for metric in ("srbsg_write_ns_count", "srbsg_stall_ns_count"):
            if metric not in prom_text:
                print(f"FAIL: Prometheus export is missing {metric}", file=sys.stderr)
                return 1

        # Only schema 2 is read: an older header fails validation.
        v1 = pathlib.Path(tmp) / "v1.jsonl"
        v1.write_text(OLD_SCHEMA_HEADER, encoding="utf-8")
        old = subprocess.run(
            [sys.executable, args.trace_tool, "validate", str(v1)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        sys.stdout.write(old.stdout)
        if old.returncode != 1 or "telemetry_schema must be 2" not in old.stdout:
            print("FAIL: a telemetry_schema 1 trace was not rejected", file=sys.stderr)
            return 1

        # A trace cut short by lines keeps a run record whose retained
        # count its event lines no longer reach: every subcommand that
        # reads it must fail, not report on the part that is left.
        cut = pathlib.Path(tmp) / "cut.jsonl"
        with trace.open(encoding="utf-8") as src:
            cut.write_text("".join(itertools.islice(src, 50)), encoding="utf-8")
        for cmd in (["channel"], ["export", "--chrome", str(pathlib.Path(tmp) / "cut.json")]):
            short = subprocess.run(
                [sys.executable, args.trace_tool, cmd[0], str(cut), *cmd[1:]],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            sys.stdout.write(short.stdout)
            if short.returncode != 1 or "run.retained" not in short.stdout:
                print(f"FAIL: srbsg-trace {cmd[0]} accepted a truncated trace "
                      f"(exit {short.returncode})", file=sys.stderr)
                return 1

    print("trace round-trip OK (schema 2 live trace + exporters + schema 1 and "
          "truncated traces rejected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validate a bench JSON written by perf_engines or perf_stall.

Dispatches on the top-level "bench" field; a malformed file or a
determinism failure exits 1.

perf_engines writes one row per (bench, case, path):
{bench, case, path, reps, median_ns, mad_ns, work}. A file is valid when
every row is well formed with at least MIN_REPS reps, every case has each
path its bench defines (PATHS), the paths of a case applied the same
simulated work, and the run was bit-identical across paths.

perf_stall carries per-scheme capacities of the remap-timing channel. The
paper's claim is the gate: the RBSG channel is live, and Security RBSG at
its maximum stage count carries strictly less.

With --compare REF.json the file is also compared against a committed
reference run of the same bench, and any regression exits 1:
- the two configurations must be equal; a mismatch fails, it never skips;
- perf_engines: every reference row must be present with the same
  simulated work. For each case, the ratio baseline median / path median
  of every path after the baseline (PATHS[bench][0]) may fall below the
  reference's ratio by at most BAND_MADS times the two runs' combined
  relative MAD, on a log scale. The band absorbs the spread each run
  measured; it does not absorb what differs between machines (cache
  sizes, core types), so the reference is regenerated on the machine
  class that runs the comparison;
- perf_stall: capacities are simulated, not timed, so each may fall at
  most STALL_TOLERANCE below the reference.

Usage: check_bench_json.py [--compare REF.json] BENCH.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# Timed paths per row bench; the first is the baseline each ratio divides.
PATHS = {
    "write_path": ("reference", "windowed", "epoch"),
    "sweep": ("fresh_banks", "arena"),
    "grid": ("windowed", "epoch"),
}
MIN_REPS = 5
BAND_MADS = 6.0
STALL_TOLERANCE = 0.10


def fail(msg: str) -> "NoReturn":  # noqa: F821 - py3.8-compatible annotation
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def require_fields(obj: dict, spec: dict, where: str) -> None:
    for name, types in spec.items():
        require(name in obj, f"{where}: missing field '{name}'")
        value = obj[name]
        require(
            not isinstance(value, bool) and isinstance(value, types),
            f"{where}: field '{name}' has type {type(value).__name__}",
        )


ROW_FIELDS = {
    "bench": str,
    "case": str,
    "path": str,
    "reps": int,
    "median_ns": (int, float),
    "mad_ns": (int, float),
    "work": int,
}


def engine_cases(doc: dict) -> dict:
    """{(bench, case): {path: row}} of a validated perf_engines file."""
    cases: dict = {}
    for row in doc["rows"]:
        cases.setdefault((row["bench"], row["case"]), {})[row["path"]] = row
    return cases


def validate_perf_engines(doc: dict) -> str:
    require(isinstance(doc.get("config"), dict) and doc["config"],
            "config must be a non-empty object")
    require(isinstance(doc.get("threads"), int), "threads must be an integer")
    rows = doc.get("rows")
    require(isinstance(rows, list) and rows, "rows must be a non-empty list")
    seen = set()
    for row in rows:
        require(isinstance(row, dict), "rows must be objects")
        where = f"row '{row.get('bench', '?')}/{row.get('case', '?')}/{row.get('path', '?')}'"
        require_fields(row, ROW_FIELDS, where)
        require(row["bench"] in PATHS, f"{where}: bench must be one of {sorted(PATHS)}")
        require(row["path"] in PATHS[row["bench"]],
                f"{where}: path must be one of {PATHS[row['bench']]}")
        require(row["reps"] >= MIN_REPS, f"{where}: fewer than {MIN_REPS} reps")
        require(row["median_ns"] > 0, f"{where}: median_ns must be positive")
        require(row["mad_ns"] >= 0, f"{where}: mad_ns must be non-negative")
        require(row["work"] > 0, f"{where}: work must be positive")
        key = (row["bench"], row["case"], row["path"])
        require(key not in seen, f"{where}: duplicate row")
        seen.add(key)
    for (bench, case), paths in engine_cases(doc).items():
        for path in PATHS[bench]:
            require(path in paths, f"{bench}/{case}: missing path '{path}'")
        works = {row["work"] for row in paths.values()}
        require(len(works) == 1, f"{bench}/{case}: paths applied different work {sorted(works)}")
    require(doc.get("identical") is True, "paths were not bit-identical to their baseline")
    return f"{len(rows)} rows, {len(engine_cases(doc))} cases, identical outcomes"


HIST_FIELDS = {
    "count": int,
    "sum": int,
    "min": int,
    "max": int,
    "p50": int,
    "p99": int,
    "p999": int,
}


def validate_perf_stall(doc: dict) -> str:
    require(doc.get("telemetry_schema") == 2,
            "telemetry_schema must be 2 (the JSONL trace layout the binary links)")
    config = doc.get("config")
    require(isinstance(config, dict), "config must be an object")
    require_fields(
        config,
        {
            "lines": int,
            "regions": int,
            "inner_interval": int,
            "outer_interval": int,
            "endurance": int,
            "seeds": int,
            "symbols": int,
            "victim_writes": int,
            "probe_writes": int,
        },
        "config",
    )
    require(config["lines"] > 0 and config["lines"] & (config["lines"] - 1) == 0,
            "config.lines must be a positive power of two")
    wps = config["victim_writes"] + config["probe_writes"] + config["inner_interval"]

    schemes = doc.get("schemes")
    require(isinstance(schemes, list) and schemes, "schemes must be a non-empty list")
    seen = set()
    for sc in schemes:
        require(isinstance(sc, dict), "scheme entries must be objects")
        require_fields(
            sc,
            {
                "scheme": str,
                "stages": int,
                "symbols": int,
                "mi_bits_per_symbol": (int, float),
                "capacity_bits_per_write": (int, float),
            },
            f"scheme '{sc.get('scheme', '?')}'",
        )
        where = f"scheme '{sc['scheme']}'"
        require(sc["scheme"] not in seen, f"{where}: duplicate scheme")
        seen.add(sc["scheme"])
        require(sc["symbols"] == config["symbols"] * config["seeds"],
                f"{where}: symbols must equal config.symbols * config.seeds")
        expected = sc["mi_bits_per_symbol"] / wps
        require(abs(sc["capacity_bits_per_write"] - expected) <= 0.01 * expected + 1e-9,
                f"{where}: capacity inconsistent with MI / writes-per-symbol")
        for hist in ("write_ns", "stall_ns"):
            h = sc.get(hist)
            require(isinstance(h, dict), f"{where}: {hist} must be an object")
            require_fields(h, HIST_FIELDS, f"{where}.{hist}")
            require(h["p50"] <= h["p99"] <= h["p999"] <= h["max"],
                    f"{where}.{hist}: quantiles must be non-decreasing")
        require(sc["write_ns"]["count"] > 0, f"{where}: write_ns histogram is empty")

    require(schemes[0]["scheme"] == "rbsg", "schemes[0] must be the rbsg baseline")
    max_stages = max(sc["stages"] for sc in schemes[1:])
    require(schemes[-1]["stages"] == max_stages,
            "schemes[-1] must be security-rbsg at max stages")

    require(isinstance(doc.get("capacity_rbsg"), (int, float)),
            "capacity_rbsg must be a number")
    require(isinstance(doc.get("capacity_srbsg_max_stages"), (int, float)),
            "capacity_srbsg_max_stages must be a number")
    require(doc["capacity_rbsg"] == schemes[0]["capacity_bits_per_write"],
            "capacity_rbsg must repeat schemes[0].capacity_bits_per_write")
    require(doc["capacity_srbsg_max_stages"] == schemes[-1]["capacity_bits_per_write"],
            "capacity_srbsg_max_stages must repeat schemes[-1].capacity_bits_per_write")

    # The paper's claim as an empirical gate: the RBSG remap-timing
    # channel is live, and Security RBSG at max stages suppresses it.
    require(doc["capacity_rbsg"] > 0, "capacity_rbsg must be positive (channel dead?)")
    require(doc["capacity_srbsg_max_stages"] < doc["capacity_rbsg"],
            "security-rbsg capacity must stay below the rbsg baseline")
    require(doc.get("identical") is True,
            "traced runs were not bit-identical to untraced runs")

    suppression = doc["capacity_rbsg"] / max(doc["capacity_srbsg_max_stages"], 1e-12)
    return (f"{len(schemes)} schemes, rbsg channel "
            f"{doc['capacity_rbsg']:.4f} bits/write, suppressed "
            f"{suppression:.1f}x at {max_stages} stages, identical outcomes")


VALIDATORS = {
    "perf_engines": validate_perf_engines,
    "perf_stall": validate_perf_stall,
}


def load_and_validate(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot parse {path}: {exc}")

    require(isinstance(doc, dict), f"{path}: top level must be an object")
    require(doc.get("schema_version") == 1, f"{path}: schema_version must be 1")
    bench = doc.get("bench")
    require(bench in VALIDATORS,
            f"{path}: bench must be one of {sorted(VALIDATORS)}, got {bench!r}")
    summary = VALIDATORS[bench](doc)
    print(f"check_bench_json: OK: [{bench}] {summary}")
    return doc


def compare_engines(doc: dict, ref: dict) -> int:
    """Prints every ratio against the reference; returns the regressions."""
    current, reference = engine_cases(doc), engine_cases(ref)
    for (bench, case), paths in reference.items():
        for path, row in paths.items():
            require(path in current.get((bench, case), {}),
                    f"{bench}/{case}/{path}: row missing from the current run")
            work = current[(bench, case)][path]["work"]
            require(work == row["work"],
                    f"{bench}/{case}/{path}: simulated work {work} differs from the "
                    f"reference's {row['work']}")

    def ratio_and_spread(paths: dict, base: str, path: str) -> tuple:
        b, p = paths[base], paths[path]
        spread = (b["mad_ns"] / b["median_ns"]) ** 2 + (p["mad_ns"] / p["median_ns"]) ** 2
        return b["median_ns"] / p["median_ns"], spread

    regressions = 0
    for (bench, case), paths in reference.items():
        base = PATHS[bench][0]
        for path in PATHS[bench][1:]:
            now, spread_now = ratio_and_spread(current[(bench, case)], base, path)
            then, spread_then = ratio_and_spread(paths, base, path)
            band = BAND_MADS * math.sqrt(spread_now + spread_then)
            drop = math.log(then / now)
            status = "FAIL" if drop > band else "ok"
            regressions += drop > band
            print(f"check_bench_json: {status}: {bench}/{case} {base}/{path} "
                  f"{now:.4g}x vs {then:.4g}x ({math.expm1(-drop):+.1%}, "
                  f"band -{-math.expm1(-band):.1%})")
    return regressions


def stall_metrics(doc: dict) -> dict:
    """Capacity metrics; simulated time only, so bigger stays better."""
    metrics = {
        "rbsg capacity (bits/write)": doc["capacity_rbsg"],
        "suppression ratio": doc["capacity_rbsg"]
        / max(doc["capacity_srbsg_max_stages"], 1e-12),
    }
    for sc in doc["schemes"]:
        metrics[f"{sc['scheme']} MI (bits/symbol)"] = sc["mi_bits_per_symbol"]
    return metrics


def compare_stall(doc: dict, ref: dict) -> int:
    current, reference = stall_metrics(doc), stall_metrics(ref)
    regressions = 0
    for name in sorted(reference):
        require(name in current, f"{name}: missing from the current run")
        drop = (reference[name] - current[name]) / reference[name] if reference[name] else 0.0
        status = "FAIL" if drop > STALL_TOLERANCE else "ok"
        regressions += drop > STALL_TOLERANCE
        print(f"check_bench_json: {status}: {name} {current[name]:.4g} vs "
              f"{reference[name]:.4g} (tolerance -{STALL_TOLERANCE:.0%})")
    return regressions


COMPARATORS = {
    "perf_engines": compare_engines,
    "perf_stall": compare_stall,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", help="bench JSON to validate")
    parser.add_argument("--compare", metavar="REF.json", default=None,
                        help="committed reference run of the same bench; "
                             "exit 1 on any regression")
    args = parser.parse_args()

    doc = load_and_validate(args.bench_json)
    if args.compare:
        ref = load_and_validate(args.compare)
        require(doc["bench"] == ref["bench"],
                f"--compare: bench mismatch ({doc['bench']} vs {ref['bench']})")
        require(doc["config"] == ref["config"],
                f"--compare: {args.compare} ran a different configuration")
        regressions = COMPARATORS[doc["bench"]](doc, ref)
        if regressions:
            print(f"check_bench_json: FAIL: {regressions} regression(s) against "
                  f"{args.compare}", file=sys.stderr)
            return 1
        print(f"check_bench_json: OK: no regression against {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test for tools/check_bench_json.py, run under ctest (label: bench).

Pure python, no timing. The committed BENCH_engines.json and
BENCH_stall.json must validate and compare clean against themselves;
--compare must fail on a copy whose fast-path median is inflated past its
band (and pass one inflated within it), on a configuration mismatch, on
unequal work across a case's paths, on a missing (case, path) row and on
a run that was not bit-identical. Exit status 0 pass, 1 fail.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
CHECKER = TOOLS / "check_bench_json.py"
ENGINES = ROOT / "BENCH_engines.json"
STALL = ROOT / "BENCH_stall.json"

sys.path.insert(0, str(TOOLS))

import check_bench_json  # noqa: E402

_failures: list[str] = []


def run(*args: object) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(CHECKER), *map(str, args)],
                          capture_output=True, text=True, check=False)


def expect(label: str, proc: subprocess.CompletedProcess, status: int,
           needle: str = "") -> None:
    output = proc.stdout + proc.stderr
    if proc.returncode != status or needle not in output:
        _failures.append(label)
        print(f"FAIL: {label}: exit {proc.returncode} (want {status})"
              + (f", want '{needle}' in output" if needle else ""))
        print(output)
    else:
        print(f"ok: {label}")


def row(doc: dict, bench: str, case: str, path: str) -> dict:
    for r in doc["rows"]:
        if (r["bench"], r["case"], r["path"]) == (bench, case, path):
            return r
    raise KeyError(f"{bench}/{case}/{path}")


def main() -> int:
    engines = json.loads(ENGINES.read_text(encoding="utf-8"))
    stall = json.loads(STALL.read_text(encoding="utf-8"))
    case = ("write_path", "rbsg/raa_loop")

    with tempfile.TemporaryDirectory() as tmp:
        def write(name: str, doc: dict) -> Path:
            path = Path(tmp) / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return path

        expect("committed engines reference validates", run(ENGINES), 0)
        expect("engines reference compares clean against itself",
               run(ENGINES, "--compare", ENGINES), 0, "no regression")
        expect("committed stall reference validates", run(STALL), 0)
        expect("stall reference compares clean against itself",
               run(STALL, "--compare", STALL), 0, "no regression")

        # The band this ratio gets against an identical copy of itself.
        base, fast = row(engines, *case, "reference"), row(engines, *case, "epoch")
        spread = sum((r["mad_ns"] / r["median_ns"]) ** 2 for r in (base, fast))
        band = check_bench_json.BAND_MADS * math.sqrt(2 * spread)
        for label, factor, status in (("within", math.exp(0.5 * band), 0),
                                      ("past", 1.1 * math.exp(band), 1)):
            slow = copy.deepcopy(engines)
            row(slow, *case, "epoch")["median_ns"] *= factor
            expect(f"epoch median inflated {label} its band",
                   run(write(f"{label}.json", slow), "--compare", ENGINES), status,
                   "FAIL: write_path/rbsg/raa_loop reference/epoch" if status else "")

        other = copy.deepcopy(engines)
        other["config"]["lines"] *= 2
        expect("engines configuration mismatch fails",
               run(write("config.json", other), "--compare", ENGINES), 1,
               "different configuration")
        other = copy.deepcopy(stall)
        other["config"]["seeds"] += 1
        for sc in other["schemes"]:
            sc["symbols"] = other["config"]["symbols"] * other["config"]["seeds"]
        expect("stall configuration mismatch fails",
               run(write("stall_config.json", other), "--compare", STALL), 1,
               "different configuration")

        unequal = copy.deepcopy(engines)
        row(unequal, *case, "windowed")["work"] += 1
        expect("unequal work across a case's paths fails",
               run(write("work.json", unequal)), 1, "different work")

        missing = copy.deepcopy(engines)
        missing["rows"].remove(row(missing, *case, "windowed"))
        expect("missing (case, path) row fails",
               run(write("missing.json", missing)), 1, "missing path 'windowed'")
        missing["rows"] = [r for r in missing["rows"] if (r["bench"], r["case"]) != case]
        expect("case missing against the reference fails",
               run(write("missing_case.json", missing), "--compare", ENGINES), 1,
               "row missing from the current run")

        diverged = copy.deepcopy(engines)
        diverged["identical"] = False
        expect("a run that diverged fails", run(write("diverged.json", diverged)), 1,
               "not bit-identical")

    if _failures:
        print(f"{len(_failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

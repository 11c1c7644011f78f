#!/usr/bin/env python3
"""Self-test driver for srbsg-analyze, run under ctest (label: static).

Modes (one per ctest test):

  astjson   Run every hand-crafted clang-JSON AST under
            tests/analyze_fixtures/ast/ through the checks and compare
            the new findings against the fixture's embedded `x_expect`
            block.  Validates check logic without clang.
  baseline  Baseline write/read round-trip over an AST fixture
            (write-baseline silences, justifications survive rewrites)
            plus same-line / preceding-line suppression-comment rules
            and --prune-baseline staleness rules.  No clang needed.
  driver    The clang-driving path (run_tus) against a hermetic stub
            clang that replays pre-dumped JSON ASTs: an 8-TU program
            must cost exactly one clang call per TU through the worker
            pool and yield exactly its 4 seeded findings, and adding a
            TU the stub prints no AST for must exit 2 naming it.  No
            clang needed.
  fixtures  Compile every tests/analyze_fixtures/*.cpp with the real
            clang and assert the analyzer reports exactly the seeded
            `// EXPECT: <check>` lines as new findings and exactly the
            `EXPECT-SUPPRESSED:` lines as suppressed.  Exits 77
            (ctest SKIP_RETURN_CODE) when no clang is installed.
  src       Run the analyzer over src/ and bench/ against the committed
            baseline; any new finding, or an analyzer exit 2, fails.
            Exits 77 without clang or without a compile database.

Exit status: 0 pass, 1 fail, 77 skipped (missing clang / compile db).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tests", "analyze_fixtures")
AST_DIR = os.path.join(FIXTURE_DIR, "ast")
SKIP = 77

sys.path.insert(0, HERE)

import baseline as baseline_mod  # noqa: E402
import driver  # noqa: E402

# `EXPECT:` requires the colon, so it never matches inside
# `EXPECT-SUPPRESSED:`.
EXPECT_RE = re.compile(r"EXPECT:\s*([a-z0-9-]+)")
EXPECT_SUPPRESSED_RE = re.compile(r"EXPECT-SUPPRESSED:\s*([a-z0-9-]+)")

_failures: list[str] = []


def fail(message: str) -> None:
    _failures.append(message)
    print(f"FAIL: {message}")


def run_analyzer(args: list[str]) -> tuple[int, dict, str]:
    """Runs `python3 tools/analyze <args>`; returns (rc, json, stderr)."""
    proc = subprocess.run([sys.executable, HERE, *args],
                          capture_output=True, text=True)
    data: dict = {}
    if "--json" in args and proc.stdout.strip():
        try:
            data = json.loads(proc.stdout)
        except json.JSONDecodeError:
            pass
    return proc.returncode, data, proc.stderr


def parse_expectations(path: str) -> tuple[set, set]:
    """((line, check) sets for EXPECT and EXPECT-SUPPRESSED annotations."""
    expect_new: set = set()
    expect_suppressed: set = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            for match in EXPECT_SUPPRESSED_RE.finditer(line):
                expect_suppressed.add((lineno, match.group(1)))
            for match in EXPECT_RE.finditer(line):
                expect_new.add((lineno, match.group(1)))
    return expect_new, expect_suppressed


def report_diff(label: str, want: set, got: set) -> None:
    for item in sorted(want - got):
        fail(f"{label}: expected but missing: {item}")
    for item in sorted(got - want):
        fail(f"{label}: unexpected: {item}")


# -- astjson ----------------------------------------------------------------

def mode_astjson() -> int:
    fixtures = sorted(f for f in os.listdir(AST_DIR) if f.endswith(".json"))
    if not fixtures:
        fail("no AST fixtures found")
        return 1
    for name in fixtures:
        path = os.path.join(AST_DIR, name)
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        want = {(e["check"], e["file"], e["line"])
                for e in spec["x_expect"]["findings"]}
        rc, data, stderr = run_analyzer(
            ["--ast-json", path, "--no-baseline", "--json"])
        if rc not in (0, 1):
            fail(f"{name}: analyzer exited {rc}: {stderr.strip()}")
            continue
        got = {(f["check"], f["file"], f["line"]) for f in data.get("new", [])}
        report_diff(name, want, got)
        if len(data.get("new", [])) != len(got):
            fail(f"{name}: duplicate findings reported")
        if data.get("baselined") or data.get("suppressed"):
            fail(f"{name}: ast-json mode produced baselined/suppressed "
                 "findings")
        if not _failures:
            print(f"ok: {name} ({len(got)} finding(s))")
    return 1 if _failures else 0


# -- baseline / suppression -------------------------------------------------

def mode_baseline() -> int:
    ast_fixture = os.path.join(AST_DIR, "a1_width.json")
    with open(ast_fixture, encoding="utf-8") as fh:
        expected = len(json.load(fh)["x_expect"]["findings"])
    with tempfile.TemporaryDirectory(prefix="srbsg-analyze-") as tmp:
        base_path = os.path.join(tmp, "baseline.json")

        rc, data, _ = run_analyzer(
            ["--ast-json", ast_fixture, "--no-baseline", "--json"])
        if rc != 1 or len(data.get("new", [])) != expected:
            fail(f"pre-baseline run: expected rc 1 with {expected} new "
                 f"finding(s), got rc {rc} with {len(data.get('new', []))}")

        rc, _, stderr = run_analyzer(
            ["--ast-json", ast_fixture, "--write-baseline",
             "--baseline", base_path])
        if rc != 0 or not os.path.isfile(base_path):
            fail(f"--write-baseline failed (rc {rc}): {stderr.strip()}")
            return 1

        rc, data, _ = run_analyzer(
            ["--ast-json", ast_fixture, "--baseline", base_path, "--json"])
        if rc != 0:
            fail(f"baselined run: expected rc 0, got {rc}")
        if data.get("new"):
            fail(f"baselined run: {len(data['new'])} finding(s) escaped the "
                 "baseline")
        if len(data.get("baselined", [])) != expected:
            fail(f"baselined run: expected {expected} baselined finding(s), "
                 f"got {len(data.get('baselined', []))}")

        # Justifications of surviving entries survive a rewrite.
        with open(base_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["findings"][0]["justification"] = "guarded by width check"
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        rc, _, _ = run_analyzer(
            ["--ast-json", ast_fixture, "--write-baseline",
             "--baseline", base_path])
        with open(base_path, encoding="utf-8") as fh:
            rewritten = json.load(fh)
        kept = [e for e in rewritten["findings"]
                if e["justification"] == "guarded by width check"]
        if rc != 0 or len(kept) != 1:
            fail("justification was not preserved across --write-baseline")
        print(f"ok: baseline round-trip ({expected} finding(s))")

        # Suppression comments: same line and preceding line.
        src = os.path.join(tmp, "suppressed.cpp")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write("int a;  // srbsg-analyze: suppress(a1-width) same\n"
                     "// srbsg-analyze: suppress(a2-determinism,a4-state) two\n"
                     "int b;\n"
                     "int c;\n")
        index = baseline_mod.SuppressionIndex(tmp)
        cases = [
            ({"file": "suppressed.cpp", "line": 1, "check": "a1-width"}, True),
            ({"file": "suppressed.cpp", "line": 3, "check": "a2-determinism"},
             True),
            ({"file": "suppressed.cpp", "line": 3, "check": "a4-state"}, True),
            ({"file": "suppressed.cpp", "line": 3, "check": "a1-width"},
             False),
            ({"file": "suppressed.cpp", "line": 4, "check": "a2-determinism"},
             False),
        ]
        for finding, want in cases:
            if index.is_suppressed(finding) != want:
                fail(f"suppression rule mismatch for {finding} "
                     f"(expected {want})")
        print("ok: suppression comment rules")

        # --prune-baseline: entries for deleted files or vanished
        # contexts are dropped (and printed); live entries survive with
        # their justifications.
        prune_repo = os.path.join(tmp, "prunerepo")
        os.makedirs(prune_repo)
        live = os.path.join(prune_repo, "live.cpp")
        with open(live, "w", encoding="utf-8") as fh:
            fh.write("void keep_me() {}\n")
        prune_base = os.path.join(tmp, "prune-baseline.json")
        with open(prune_base, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, "findings": [
                {"check": "a1-width", "file": "live.cpp",
                 "context": "keep_me", "message": "narrowed",
                 "justification": "intentional"},
                {"check": "a1-width", "file": "live.cpp",
                 "context": "renamed_away", "message": "narrowed"},
                {"check": "a4-state", "file": "deleted.cpp",
                 "context": "", "message": "mutable static"},
            ]}, fh)
        proc = subprocess.run(
            [sys.executable, HERE, "--prune-baseline",
             "--baseline", prune_base, "--repo-root", prune_repo],
            capture_output=True, text=True)
        with open(prune_base, encoding="utf-8") as fh:
            remaining = json.load(fh)["findings"]
        if proc.returncode != 0:
            fail(f"--prune-baseline exited {proc.returncode}: "
                 f"{proc.stderr.strip()}")
        elif len(remaining) != 1 or remaining[0]["context"] != "keep_me" \
                or remaining[0].get("justification") != "intentional":
            fail(f"--prune-baseline kept the wrong entries: {remaining}")
        elif "deleted.cpp" not in proc.stdout \
                or "renamed_away" not in proc.stdout \
                or "2 stale baseline entrie(s) pruned" not in proc.stdout:
            fail(f"--prune-baseline did not report what it pruned:\n"
                 f"{proc.stdout}")
        else:
            print("ok: --prune-baseline drops stale entries and reports "
                  "them")

    return 1 if _failures else 0


# -- driver (hermetic stub clang) -------------------------------------------

_STUB_CLANG = """#!/usr/bin/env python3
# Hermetic stand-in for clang: the "sources" it compiles are pre-dumped
# JSON ASTs, so -ast-dump=json is just cat.  Each dump is appended to
# FAKE_CLANG_LOG so the selftest can count real invocations.
import os
import sys

path = sys.argv[-1]
with open(os.environ["FAKE_CLANG_LOG"], "a", encoding="utf-8") as fh:
    fh.write(path + "\\n")
sys.stdout.write(open(path, encoding="utf-8").read())
"""


def _fake_tu(rel: str, var_name: str, mutable: bool) -> str:
    """A minimal clang-JSON dump: one namespace-scope variable, which
    trips a4-state at line 3 when mutable."""
    qual = "unsigned long" if mutable else "const unsigned long"
    return json.dumps({
        "id": "0x1", "kind": "TranslationUnitDecl",
        "inner": [{
            "id": "0x10", "kind": "NamespaceDecl", "name": "srbsg",
            "loc": {"file": rel, "line": 2, "col": 11},
            "range": {"begin": {"line": 2, "col": 1},
                      "end": {"line": 4, "col": 1}},
            "inner": [{
                "id": "0x11", "kind": "VarDecl", "name": var_name,
                "loc": {"line": 3, "col": 15},
                "range": {"begin": {"line": 3, "col": 1},
                          "end": {"line": 3, "col": 27}},
                "type": {"qualType": qual},
            }],
        }],
    })


def mode_driver() -> int:
    """Every TU goes through the worker pool exactly once: an 8-TU
    program (odd TUs hold a mutable static, even ones are clean) must
    cost 8 stub-clang calls, one per TU, and report exactly the 4
    seeded a4-state findings. The same program plus one TU clang
    prints nothing for must exit 2 and name that TU."""
    with tempfile.TemporaryDirectory(prefix="srbsg-driver-") as tmp:
        wl_dir = os.path.join(tmp, "src", "wl")
        os.makedirs(wl_dir)
        sources: list[str] = []
        for i in range(8):
            path = os.path.join(wl_dir, f"tu{i}.cpp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_fake_tu(f"src/wl/tu{i}.cpp", f"g_state_{i}",
                                  i % 2 == 1))
            sources.append(path)
        stub = os.path.join(tmp, "fake-clang")
        with open(stub, "w", encoding="utf-8") as fh:
            fh.write(_STUB_CLANG)
        os.chmod(stub, 0o755)
        log = os.path.join(tmp, "clang.log")
        open(log, "w").close()
        os.environ["FAKE_CLANG_LOG"] = log
        rc, data, stderr = run_analyzer(
            ["--repo-root", tmp, "--clang", stub, "--no-baseline", "--json",
             "--sources", *sources])
        with open(log, encoding="utf-8") as fh:
            calls = sorted(line.strip() for line in fh if line.strip())
        # An empty dump stands for a TU clang cannot parse: it was not
        # checked, so the run must fail however the other TUs fare.
        unparsed = os.path.join(wl_dir, "unparsed.cpp")
        open(unparsed, "w").close()
        bad_rc, _, bad_stderr = run_analyzer(
            ["--repo-root", tmp, "--clang", stub, "--no-baseline",
             "--sources", *sources, unparsed])
        del os.environ["FAKE_CLANG_LOG"]
        if bad_rc != 2 or f"clang failed to parse {unparsed}" not in bad_stderr:
            fail(f"expected rc 2 and a parse-failure line for {unparsed}; "
                 f"got rc {bad_rc}: {bad_stderr.strip()}")
        if calls != sorted(sources):
            fail(f"expected one clang call per TU ({len(sources)}), got "
                 f"{len(calls)}: {calls}")
        want = {("a4-state", f"src/wl/tu{i}.cpp", 3) for i in (1, 3, 5, 7)}
        got = [(f["check"], f["file"], f["line"]) for f in data.get("new", [])]
        if rc != 1 or sorted(got) != sorted(want):
            fail(f"expected rc 1 and the 4 seeded findings {sorted(want)}; "
                 f"got rc {rc}, {sorted(got)}: {stderr.strip()}")
        if not _failures:
            print(f"ok: {len(calls)} TUs through the pool, one clang call "
                  f"each, {len(got)} finding(s); an unparsed TU exits 2")
    return 1 if _failures else 0


# -- fixtures (needs clang) -------------------------------------------------

def mode_fixtures() -> int:
    if driver.find_clang(None) is None:
        print("selftest: clang not found — skipping compiled-fixture checks")
        return SKIP
    fixtures = sorted(f for f in os.listdir(FIXTURE_DIR) if f.endswith(".cpp"))
    if not fixtures:
        fail("no source fixtures found")
        return 1
    for name in fixtures:
        path = os.path.join(FIXTURE_DIR, name)
        rel = os.path.relpath(path, REPO_ROOT)
        want_new, want_suppressed = parse_expectations(path)
        rc, data, stderr = run_analyzer(
            ["--sources", path, "--no-baseline", "--json", "--",
             "-std=c++20"])
        if rc not in (0, 1):
            fail(f"{name}: analyzer exited {rc}: {stderr.strip()}")
            continue
        if data.get("errors"):
            fail(f"{name}: clang parse errors: {data['errors']}")
            continue
        stray = [f for f in data.get("new", []) + data.get("suppressed", [])
                 if f["file"] != rel]
        if stray:
            fail(f"{name}: findings attributed outside the fixture: {stray}")
        got_new = {(f["line"], f["check"])
                   for f in data.get("new", []) if f["file"] == rel}
        got_suppressed = {(f["line"], f["check"])
                          for f in data.get("suppressed", [])
                          if f["file"] == rel}
        report_diff(f"{name} (new)", want_new, got_new)
        report_diff(f"{name} (suppressed)", want_suppressed, got_suppressed)
        if len([f for f in data.get("new", []) if f["file"] == rel]) \
                != len(got_new):
            fail(f"{name}: duplicate findings reported")
        if not _failures:
            kind = "bad" if want_new or want_suppressed else "clean"
            print(f"ok: {name} [{kind}] ({len(got_new)} new, "
                  f"{len(got_suppressed)} suppressed)")
    return 1 if _failures else 0


# -- src (needs clang + compile db) -----------------------------------------

def mode_src(compile_db: str | None) -> int:
    if driver.find_clang(None) is None:
        print("selftest: clang not found — skipping src/ analysis")
        return SKIP
    args = ["--json"]
    if compile_db:
        if not os.path.isfile(compile_db):
            print(f"selftest: {compile_db} not found — skipping src/ "
                  "analysis")
            return SKIP
        args += ["--compile-db", compile_db]
    rc, data, stderr = run_analyzer(args)
    if rc == 2:
        fail(f"analyzer exited 2 over src/: {stderr.strip()}")
        return 1
    for finding in data.get("new", []):
        fail(f"new finding in src/: {finding['file']}:{finding['line']}: "
             f"{finding['check']}: {finding['message']}")
    if rc != 0:
        fail(f"analyzer exited {rc} over src/")
    if not _failures:
        print(f"ok: src/ baseline-clean ({len(data.get('baselined', []))} "
              f"baselined, {len(data.get('suppressed', []))} suppressed)")
    return 1 if _failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=["astjson", "baseline", "driver",
                                 "fixtures", "src"])
    parser.add_argument("--compile-db", default=None,
                        help="compile_commands.json for --mode src")
    args = parser.parse_args()
    if args.mode == "astjson":
        return mode_astjson()
    if args.mode == "baseline":
        return mode_baseline()
    if args.mode == "driver":
        return mode_driver()
    if args.mode == "fixtures":
        return mode_fixtures()
    return mode_src(args.compile_db)


if __name__ == "__main__":
    sys.exit(main())

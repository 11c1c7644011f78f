#!/usr/bin/env python3
"""srbsg-analyze: AST-accurate domain static analysis for the simulator.

The third leg of the correctness stack (lint -> runtime audit -> static
analysis).  Drives plain `clang -Xclang -ast-dump=json` over the
CMake-exported compile database, runs per-TU checks, then merges the
per-TU summaries into a whole-program symbol graph (graph.py) for the
two interprocedural checks (a5, a10):

  a1-width          64-bit address/wear values narrowed below 64 bits
  a2-determinism    randomness / wall clock / pointer hashing /
                    unordered-container iteration (the regex-visible
                    cases, such as #include <ctime>, are lint R1's)
  a4-state          mutable static state inside wear-leveling schemes
  a5-unchecked      WearLeveler entry points with unvalidated parameters
                    (cross-TU: callees checking on the caller's behalf
                    are resolved through the call graph)
  a6-batch          per-write loops in bench//src/attack that should use
                    the batched write path (write_batch / write_cycle)
  a7-telemetry      telemetry emitted outside the Recorder/counter API
  a10-lifetime      std::span / Recorder* parameters escaping into
                    members that outlive the call (direct stores and
                    forwards through callees)
  a11-span          telemetry span begins not closed on every path out
                    of their scope

Data races are not checked here: CI runs the whole test suite under
ThreadSanitizer (the `tsan` preset) instead.

Every run parses every selected TU with clang, one worker process per
core, then solves the cross-TU fixed points over all of them.

Usage:
  python3 tools/analyze                         # src/ + bench/ vs baseline
  python3 tools/analyze --paths src/wl          # restrict to a subtree
  python3 tools/analyze --json                  # machine-readable report
  python3 tools/analyze --sources f.cpp -- -I.  # standalone sources
  python3 tools/analyze --ast-json dump.json    # pre-dumped AST (testing)
  python3 tools/analyze --write-baseline        # accept current findings
  python3 tools/analyze --prune-baseline        # drop stale baseline rows

Exit status: 0 clean, 1 new findings, 2 usage/internal error, including
no clang found (unless the input is --ast-json) and a TU clang could not
parse (the report still lists it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import baseline as baseline_mod
import driver
import report
from checks import ALL_CHECKS, CHECKS_BY_ID

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "baseline.json")


def parse_args(argv: list[str]) -> argparse.Namespace:
    extra_args: list[str] = []
    if "--" in argv:
        split = argv.index("--")
        extra_args = argv[split + 1:]
        argv = argv[:split]
    parser = argparse.ArgumentParser(prog="srbsg-analyze",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--compile-db", default=None,
                        help="compile_commands.json (default: repo root "
                             "symlink, then build/)")
    parser.add_argument("--paths", nargs="*", default=None,
                        help="restrict analysis to these repo-relative paths")
    parser.add_argument("--sources", nargs="*", default=None,
                        help="analyze standalone sources (flags after --)")
    parser.add_argument("--ast-json", action="append", default=None,
                        help="analyze a pre-dumped clang JSON AST (testing); "
                             "a {\"tus\": [...]} wrapper analyzes several "
                             "TUs as one program")
    parser.add_argument("--checks", default=None,
                        help="comma-separated check ids (default: all)")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept current new findings into the baseline")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="drop baseline entries whose file or context "
                             "no longer exists, printing what was pruned")
    parser.add_argument("--clang", default=None, help="clang driver to use")
    parser.add_argument("--json", action="store_true", dest="json_output")
    parser.add_argument("--repo-root", default=REPO_ROOT,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.extra_args = extra_args
    return args


def resolve_checks(spec: str | None) -> list[str]:
    if not spec:
        return [c.id for c in ALL_CHECKS]
    ids = [part.strip() for part in spec.split(",") if part.strip()]
    for check_id in ids:
        if check_id not in CHECKS_BY_ID:
            raise SystemExit(f"srbsg-analyze: unknown check '{check_id}' "
                             f"(known: {', '.join(CHECKS_BY_ID)})")
    return ids


def find_compile_db(args: argparse.Namespace) -> str | None:
    candidates = [args.compile_db] if args.compile_db else [
        os.path.join(args.repo_root, "compile_commands.json"),
        os.path.join(args.repo_root, "build", "compile_commands.json"),
    ]
    for candidate in candidates:
        if candidate and os.path.isfile(candidate):
            return candidate
    return None


def _ast_json_roots(path: str) -> list[dict]:
    """The TU roots in one --ast-json file: either a plain clang dump or
    a {"tus": [dump, ...]} wrapper (multi-TU interprocedural fixture)."""
    with open(path, encoding="utf-8") as fh:
        root = json.load(fh)
    if isinstance(root, dict) and isinstance(root.get("tus"), list):
        return root["tus"]
    return [root]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.list_checks:
        for cls in ALL_CHECKS:
            scope = ", ".join(cls.scope_dirs) if cls.scope_dirs else "src/"
            print(f"{cls.id:16} [{scope}] {cls.description}")
        return 0

    if args.prune_baseline:
        # No analysis needed: staleness is decided against the tree.
        repo_root = os.path.abspath(args.repo_root)
        pruned = baseline_mod.prune_stale(args.baseline, repo_root)
        for entry in pruned:
            reason = "file gone" if not os.path.isfile(
                os.path.join(repo_root, entry.get("file", ""))) \
                else f"context '{entry.get('context', '')}' gone"
            print(f"pruned: {entry.get('file', '')}: "
                  f"{entry.get('check', '')}: {entry.get('message', '')} "
                  f"[{reason}]")
        print(f"srbsg-analyze: {len(pruned)} stale baseline entrie(s) "
              f"pruned from {args.baseline}")
        return 0

    check_ids = resolve_checks(args.checks)
    check_classes = [CHECKS_BY_ID[c] for c in check_ids]
    repo_root = os.path.abspath(args.repo_root)
    src_root = os.path.join(repo_root, "src")
    findings: list[dict] = []
    errors: list[str] = []
    tu_summaries: list[tuple] = []

    if args.ast_json:
        # Testing mode: run the checks over pre-dumped ASTs, no clang.
        for path in args.ast_json:
            try:
                roots = _ast_json_roots(path)
            except (OSError, json.JSONDecodeError) as err:
                print(f"srbsg-analyze: cannot load {path}: {err}",
                      file=sys.stderr)
                return 2
            for index, root in enumerate(roots):
                ctx, summaries = driver.analyze_ast(root, repo_root, src_root,
                                                    check_classes)
                findings.extend(ctx.findings)
                tu_summaries.append((f"{path}#{index}", summaries))
    else:
        clang = driver.find_clang(args.clang)
        if clang is None:
            print("srbsg-analyze: clang not found — install clang (or name "
                  "one with --clang) to run the analysis", file=sys.stderr)
            return 2
        if args.sources:
            tus = [{"file": os.path.abspath(s),
                    "rel": os.path.relpath(os.path.abspath(s), repo_root),
                    "flags": list(args.extra_args)} for s in args.sources]
        else:
            db_path = find_compile_db(args)
            if db_path is None:
                print("srbsg-analyze: no compile_commands.json found — "
                      "configure the build first (cmake -B build -S .)",
                      file=sys.stderr)
                return 2
            tus = driver.select_tus(driver.load_compile_db(db_path),
                                    repo_root, args.paths)
        findings, tu_summaries, errors = driver.run_tus(
            clang, tus, repo_root, src_root, check_ids)

    # Whole-program phase: merge per-TU summaries, solve the cross-TU
    # fixed points (a5 check closure, a10 escapes).
    for cls in check_classes:
        per_tu = [(rel, summaries[cls.id]) for rel, summaries in tu_summaries
                  if cls.id in summaries]
        if per_tu:
            findings.extend(cls.finalize_program(per_tu))

    base = {} if (args.no_baseline or args.write_baseline) else \
        baseline_mod.load_baseline(args.baseline)
    suppressions = baseline_mod.SuppressionIndex(repo_root)
    new, baselined, suppressed = baseline_mod.filter_findings(
        findings, base, suppressions)

    if args.write_baseline:
        previous = baseline_mod.load_baseline(args.baseline)
        baseline_mod.write_baseline(args.baseline, new, previous)
        print(f"srbsg-analyze: baseline written to {args.baseline} "
              f"({len(new)} entrie(s))")
        return 0

    if args.json_output:
        report.print_json(new, baselined, suppressed, errors)
    else:
        report.print_text(new, baselined, suppressed, errors)
    # A TU that was not parsed was not checked: it must not read as clean.
    if errors:
        return 2
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

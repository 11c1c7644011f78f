#!/usr/bin/env python3
"""Unit tests for tools/lint.py, run under ctest (label: static).

Covers R1's patterns (what it bans and the chrono clocks it leaves to
tools/analyze), which rules each tree answers to (src/ R1-R4, bench/
R1), the inline `srbsg-analyze: suppress(...)` comment support (same
line, preceding line, the a2-determinism alias for R1, non-matching
tokens), the temp-file path fallback, and R3's quoted includes resolving
against the src/ of the tree being linted.  Exit status 0 pass, 1 fail.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lint  # noqa: E402

_failures: list[str] = []


def fail(message: str) -> None:
    _failures.append(message)
    print(f"FAIL: {message}")


def check(label: str, got: list[str], want_rules: list[str]) -> None:
    got_rules = [f.split(": ")[1] for f in got]
    if got_rules != want_rules:
        fail(f"{label}: expected rules {want_rules}, got {got}")
    else:
        print(f"ok: {label} ({len(got)} finding(s))")


def lint_text(text: str, rules: frozenset[str],
              suffix: str = ".cpp") -> list[str]:
    with tempfile.NamedTemporaryFile("w", suffix=suffix, delete=False,
                                     encoding="utf-8") as fh:
        fh.write(text)
        path = Path(fh.name)
    try:
        return lint.lint_file(path, rules)
    finally:
        path.unlink()


def main() -> int:
    r1 = frozenset({"R1"})
    r2 = frozenset({"R2"})

    check("R1 bans #include <ctime>",
          lint_text("#include <ctime>\n", r1), ["R1"])
    check("R1 bans std::rand()",
          lint_text("int s = std::rand();\n", r1), ["R1"])
    check("R1 bans time(nullptr)",
          lint_text("long t = time(nullptr);\n", r1), ["R1"])
    check("R1 bans std::time(nullptr)",
          lint_text("long t = std::time(nullptr);\n", r1), ["R1"])
    check("R1 leaves a member named time alone",
          lint_text("long t = clock.time(0) + Clock::time();\n", r1), [])
    check("R1 bans std::random_device",
          lint_text("std::random_device rd;\n", r1), ["R1"])
    check("R1 leaves chrono clocks to the analyzer",
          lint_text("auto t = std::chrono::steady_clock::now();\n", r1), [])

    check("unsuppressed assert is reported",
          lint_text("void f() { assert(1); }\n", r2), ["R2"])

    check("same-line suppression",
          lint_text("void f() { assert(1); }"
                    "  // srbsg-analyze: suppress(r2) third-party macro\n",
                    r2), [])

    check("preceding-line suppression",
          lint_text("// srbsg-analyze: suppress(r2) third-party macro\n"
                    "void f() { assert(1); }\n", r2), [])

    check("suppression does not leak past the next line",
          lint_text("// srbsg-analyze: suppress(r2)\n"
                    "void f() {}\n"
                    "void g() { assert(1); }\n", r2), ["R2"])

    check("non-matching token does not suppress",
          lint_text("void f() { assert(1); }"
                    "  // srbsg-analyze: suppress(r3)\n", r2), ["R2"])

    check("a2-determinism aliases R1",
          lint_text("// srbsg-analyze: suppress(a2-determinism) fixture\n"
                    "int s = rand();\n", frozenset({"R1"})), [])

    check("multi-token list suppresses each named rule",
          lint_text("int s = rand();  "
                    "// srbsg-analyze: suppress(r1, r2) seeded fixture\n"
                    "void f() { assert(1); }\n", frozenset({"R1", "R2"})),
          [])

    check("pragma-once finding can be suppressed",
          lint_text("// srbsg-analyze: suppress(r3) generated header\n"
                    "int x;\n", frozenset({"R3"}), suffix=".hpp"), [])

    # Temp files live outside the repo: lint_file must not throw on
    # relative_to and findings keep the absolute path.
    got = lint_text("void f() { assert(1); }\n", r2)
    if got and not os.path.isabs(got[0].split(":")[0]):
        fail(f"out-of-repo finding lost its path: {got[0]}")
    else:
        print("ok: out-of-repo files lint without a path error")

    # src/ answers to every rule, bench/ to R1 only: the same four
    # violations in each tree of a scratch repository.
    violations = ("#include <ctime>\n"
                  "void f() { assert(1); }\n"
                  "#include \"../escape.hpp\"\n"
                  "using namespace std;\n")
    with tempfile.TemporaryDirectory(prefix="lint-tree-") as tmp:
        for tree in ("src", "bench", "tests"):
            (Path(tmp) / tree).mkdir()
            (Path(tmp) / tree / "bad.cpp").write_text(violations,
                                                      encoding="utf-8")
        findings, files = lint.lint_tree(Path(tmp))
    by_tree = {tree: sorted({f.split(": ")[1] for f in findings
                             if f.startswith(f"{tree}/bad.cpp:")})
               for tree in ("src", "bench", "tests")}
    want = {"src": ["R1", "R2", "R3", "R4"], "bench": ["R1"], "tests": []}
    if files != 2 or by_tree != want:
        fail(f"tree scopes: expected {want} over 2 files, got {by_tree} "
             f"over {files}")
    else:
        print("ok: src/ answers to R1-R4, bench/ to R1, tests/ to none")

    # R3 resolves quoted includes against the linted tree's own src/: a
    # header only that tree holds resolves, and one only this repository
    # holds does not.
    with tempfile.TemporaryDirectory(prefix="lint-r3-") as tmp:
        (Path(tmp) / "src" / "mod").mkdir(parents=True)
        (Path(tmp) / "src" / "mod" / "only_here.hpp").write_text(
            "#pragma once\n", encoding="utf-8")
        (Path(tmp) / "src" / "user.cpp").write_text(
            "#include \"mod/only_here.hpp\"\n"
            "#include \"common/check.hpp\"\n", encoding="utf-8")
        findings, _ = lint.lint_tree(Path(tmp))
    got = [f.split(": ")[0] for f in findings]
    if got != ["src/user.cpp:2"]:
        fail(f"R3 include roots: expected only src/user.cpp:2 (the "
             f"include the scratch tree lacks), got {findings}")
    else:
        print("ok: R3 resolves includes in the linted tree's src/")

    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())

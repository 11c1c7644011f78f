#!/usr/bin/env python3
"""Repo-specific lint rules the simulator's correctness story depends on.

Rules (src/ answers to all four, bench/ to R1 only; tests are exempt):
  R1  no libc/std randomness or wall-clock sources — every stochastic
      component must take an explicit seed (rand/srand, std::random_device,
      time(...) and #include <ctime> are banned).  It covers bench/ too:
      a benchmark seeded from the clock cannot reproduce its run.
      tools/analyze's a2-determinism check adds what a regex cannot see
      (pointer hashing, unordered iteration, chrono clocks in src/).
  R2  no bare assert() — invariants use srbsg::check / SRBSG_CHECK /
      check_eq & friends, which stay armed in release builds and throw a
      diagnosable CheckFailure instead of aborting;
  R3  include hygiene — headers open with #pragma once, quoted includes
      are src/-relative (no "../" escapes) and must resolve, angle
      brackets are reserved for system/third-party headers, and <bits/...>
      internals are banned;
  R4  no `using namespace std` at any scope.

R3's quoted includes resolve src/-relative, which bench/'s own includes
do not, so bench/ is held to R1 alone.

Inline `// srbsg-analyze: suppress(<rule|check>, ...)` comments silence a
finding on the same line or the line below, exactly like the analyzer's
suppression syntax (`a2-determinism` is accepted as an alias for R1).

Exit status 0 when clean, 1 when any finding is reported.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# (rule, regex, message). Patterns are matched per line after comment
# stripping, so prose in comments can mention rand()/time() freely.
BANNED_PATTERNS = [
    ("R1", re.compile(r"\b(?:std::)?s?rand\s*\("),
     "rand()/srand() banned: use srbsg::Rng with an explicit seed"),
    ("R1", re.compile(r"\bstd::random_device\b"),
     "std::random_device banned: seeds must be explicit and reproducible"),
    ("R1", re.compile(r"(?<![\w.:])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|\))"),
     "time() banned: simulated time only; seeds must be explicit"),
    ("R1", re.compile(r"#\s*include\s*<ctime>"),
     "<ctime> banned: no wall-clock sources in the simulator"),
    ("R2", re.compile(r"(?<![\w.:])assert\s*\("),
     "bare assert() banned: use srbsg::check / SRBSG_CHECK / check_eq family"),
    ("R2", re.compile(r"#\s*include\s*<(?:cassert|assert\.h)>"),
     "<cassert> banned: use common/check.hpp"),
    ("R3", re.compile(r"#\s*include\s*\"\.\./"),
     'relative "../" include banned: includes are src/-relative'),
    ("R3", re.compile(r"#\s*include\s*<bits/"),
     "<bits/...> internals banned: include the standard header"),
    ("R4", re.compile(r"\busing\s+namespace\s+std\s*;"),
     "`using namespace std` banned"),
]

QUOTED_INCLUDE = re.compile(r"#\s*include\s*\"([^\"]+)\"")
LINE_COMMENT = re.compile(r"//.*$")

# The analyzer's inline suppression syntax is honored here too, so one
# comment silences the same violation under both tools.  Tokens are the
# lint rule ids (r1-r4) or analyzer check ids; `a2-determinism` is the
# analyzer's name for R1.
SUPPRESS_RE = re.compile(r"srbsg-analyze:\s*suppress\(([a-z0-9,\s-]+)\)")
_TOKEN_TO_RULE = {"r1": "R1", "r2": "R2", "r3": "R3", "r4": "R4",
                  "a2-determinism": "R1"}

ALL_RULES = frozenset({"R1", "R2", "R3", "R4"})
# The rules each linted tree answers to (see the module docstring).
TREE_RULES = (("src", ALL_RULES), ("bench", frozenset({"R1"})))


def strip_comments(text: str) -> list[str]:
    """Returns the file's lines with comment text blanked (newlines kept so
    line numbers stay stable)."""
    # Blank /* ... */ ranges first, preserving newlines.
    def blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    return [LINE_COMMENT.sub("", line) for line in text.splitlines()]


def suppressed_rules(text: str) -> dict[int, set[str]]:
    """{line number: lint rules silenced there} from inline
    `srbsg-analyze: suppress(...)` comments.  Parsed over the raw text
    (the markers live inside comments, which strip_comments blanks); a
    marker covers its own line and, like the analyzer, the line below
    it when it stands alone above the violation."""
    by_line: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in SUPPRESS_RE.finditer(line):
            rules = {_TOKEN_TO_RULE[token.strip()]
                     for token in match.group(1).split(",")
                     if token.strip() in _TOKEN_TO_RULE}
            if not rules:
                continue
            by_line.setdefault(lineno, set()).update(rules)
            by_line.setdefault(lineno + 1, set()).update(rules)
    return by_line


def first_code_line(lines: list[str]) -> str:
    for line in lines:
        if line.strip():
            return line.strip()
    return ""


def lint_file(path: Path, rules: frozenset[str] = ALL_RULES,
              root: Path = REPO_ROOT) -> list[str]:
    """Findings for one file of the tree at `root`: quoted includes
    resolve against `root`/src, and paths are reported relative to
    `root`."""
    findings = []
    try:
        rel = path.relative_to(root)
    except ValueError:  # outside the tree (tests lint temp files)
        rel = path
    text = path.read_text(encoding="utf-8")
    suppressed = suppressed_rules(text)
    lines = strip_comments(text)

    def blocked(lineno: int, rule: str) -> bool:
        return rule in suppressed.get(lineno, ())

    if "R3" in rules and path.suffix == ".hpp" \
            and first_code_line(lines) != "#pragma once" \
            and not blocked(1, "R3"):
        findings.append(f"{rel}:1: R3: header must open with #pragma once")

    for lineno, line in enumerate(lines, start=1):
        for rule, pattern, message in BANNED_PATTERNS:
            if rule in rules and pattern.search(line) \
                    and not blocked(lineno, rule):
                findings.append(f"{rel}:{lineno}: {rule}: {message}")
        if "R3" in rules and not blocked(lineno, "R3"):
            for match in QUOTED_INCLUDE.finditer(line):
                target = match.group(1)
                if not (root / "src" / target).is_file():
                    findings.append(
                        f"{rel}:{lineno}: R3: quoted include \"{target}\" does "
                        "not resolve src/-relative (system headers use <...>)")
    return findings


def lint_tree(repo_root: Path = REPO_ROOT) -> tuple[list[str], int]:
    """Findings over every .hpp/.cpp of each tree in TREE_RULES under
    `repo_root`, and the number of files linted."""
    findings: list[str] = []
    files = 0
    for tree, rules in TREE_RULES:
        for path in sorted((repo_root / tree).rglob("*")):
            if path.suffix in (".hpp", ".cpp"):
                findings.extend(lint_file(path, rules, repo_root))
                files += 1
    return findings, files


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    findings, files = lint_tree()
    if not files:
        print("lint.py: no sources found under src/ or bench/", file=sys.stderr)
        return 1
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint.py: {len(findings)} finding(s) in {files} files", file=sys.stderr)
        return 1
    print(f"lint.py: clean ({files} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

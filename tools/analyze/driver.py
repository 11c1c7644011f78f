"""TU selection and clang invocation for srbsg-analyze.

Drives a plain `clang` driver (no libclang) over the CMake-exported
compile database.  Only the flags that affect parsing are forwarded
(-I/-isystem/-D/-U/-std/-include); optimizer and warning flags from the
gcc command lines are dropped so any installed clang can parse the tree.

Every TU goes through one process pool sized by the core count; the
report cannot depend on worker order because baseline.filter_findings
sorts every finding.  With no clang the analyzer exits 2 (see
__main__.py): a check that did not run must not read as a clean tree.
"""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from checks import TuContext
from engine import walk

CLANG_CANDIDATES = ("clang", "clang-20", "clang-19", "clang-18", "clang-17",
                    "clang-16", "clang-15", "clang-14", "clang++")

# Flags forwarded from the compile database to the parsing clang.
_KEEP_PREFIXES = ("-I", "-isystem", "-D", "-U", "-std=")


def find_clang(explicit: Optional[str] = None) -> Optional[str]:
    if explicit:
        return explicit if shutil.which(explicit) else None
    for name in CLANG_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def load_compile_db(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_flags(entry: dict) -> list[str]:
    """Parse-relevant flags from one compile-db entry."""
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry.get("command", ""))
    kept: list[str] = []
    i = 1  # skip the compiler
    while i < len(argv):
        arg = argv[i]
        if arg in ("-I", "-isystem", "-D", "-U", "-include"):
            if i + 1 < len(argv):
                kept.extend([arg, argv[i + 1]])
            i += 2
            continue
        if arg.startswith(_KEEP_PREFIXES):
            kept.append(arg)
        i += 1
    return kept


def select_tus(db: list[dict], repo_root: str,
               paths: Optional[list[str]]) -> list[dict]:
    """Compile-db entries under src/ and bench/ (default) or under
    explicit paths.  bench/ is selected so a6-batch patrols the
    benchmark write loops; the other checks scope themselves out via
    `scope_dirs` (see checks.py)."""
    selected = []
    for entry in db:
        file = entry.get("file", "")
        if not os.path.isabs(file):
            file = os.path.join(entry.get("directory", ""), file)
        rel = os.path.relpath(file, repo_root)
        if rel.startswith(".."):
            continue
        if paths:
            if not any(rel == p or rel.startswith(p.rstrip("/") + "/")
                       for p in paths):
                continue
        elif not (rel.startswith("src/") or rel.startswith("bench/")):
            continue
        selected.append({"file": file, "rel": rel, "flags": parse_flags(entry)})
    return selected


def dump_ast(clang: str, file: str, flags: list[str]) -> Optional[dict]:
    """Runs clang and parses the JSON AST; None when clang fails hard."""
    cmd = [clang, "-x", "c++", "-fsyntax-only", "-w",
           "-Xclang", "-ast-dump=json", *flags, file]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    # clang still emits a usable AST for TUs with recoverable errors;
    # require output, not a zero exit.
    if not proc.stdout.strip():
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def analyze_ast(root: dict, repo_root: str, src_root: str,
                check_classes: list) -> tuple[TuContext, dict]:
    """Runs the check visitors over one parsed AST; returns the TU
    context (findings) and the per-check summaries ({check id: summary}
    for checks with whole-program facts)."""
    ctx = TuContext(repo_root, src_root)
    instances = [cls() for cls in check_classes]
    for check in instances:
        check.begin_tu(ctx)

    def visit(cursor):
        ctx.note_node(cursor)
        for check in instances:
            check.visit(cursor, ctx)

    walk(root, visit)
    summaries: dict = {}
    for check in instances:
        summary = check.summarize(ctx)
        if summary is not None:
            summaries[check.id] = summary
    return ctx, summaries


def _tu_worker(args: tuple) -> tuple:
    """(findings, summaries, error) for one TU."""
    clang, file, flags, repo_root, src_root, check_ids = args
    from checks import CHECKS_BY_ID  # re-import inside worker processes
    root = dump_ast(clang, file, flags)
    if root is None:
        return [], {}, f"clang failed to parse {file}"
    ctx, summaries = analyze_ast(root, repo_root, src_root,
                                 [CHECKS_BY_ID[c] for c in check_ids])
    return ctx.findings, summaries, None


def run_tus(clang: str, tus: list[dict], repo_root: str, src_root: str,
            check_ids: list[str]) -> tuple:
    """Analyzes every TU in a process pool; returns (findings,
    tu_summaries, errors) where tu_summaries is [(rel, {check id:
    summary})] in TU order."""
    tasks = [(clang, tu["file"], tu["flags"], repo_root, src_root, check_ids)
             for tu in tus]
    with ProcessPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = list(pool.map(_tu_worker, tasks))
    findings: list[dict] = []
    tu_summaries: list[tuple] = []
    errors: list[str] = []
    for tu, (tu_findings, summaries, error) in zip(tus, results):
        findings.extend(tu_findings)
        tu_summaries.append((tu["rel"], summaries))
        if error:
            errors.append(error)
    return findings, tu_summaries, errors

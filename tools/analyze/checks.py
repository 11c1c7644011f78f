"""Check registry for srbsg-analyze.

Each check consumes clang JSON-AST cursors (see engine.py) and reports
findings as plain dicts: {check, file, line, message, suggestion,
context}.  Checks are written to under-report rather than crash when a
clang release changes a dump detail: every field access is optional.

Scoping: a check's `scope_dirs` lists the src/ and bench/ subtrees it
patrols.  Files inside the repository but outside those trees (the
analyzer's own fixture tree) are in scope for every check, so
seeded-violation fixtures exercise each check without living in src/.

The conservatism direction is fixed and intentional: calls whose bodies
the analyzer has not seen are *trusted* (assumed to validate), literal
narrowings that provably fit are *ignored*.  False positives erode the
baseline discipline faster than false negatives erode coverage — the
runtime auditor (src/audit) backstops what static analysis lets through.
"""

from __future__ import annotations

import re
from typing import Optional

import graph
from engine import (Cursor, JsonNode, callee_of, children, desugared_type,
                    first_expr_child, integer_literal_value, iter_subtree,
                    qual_type, type_width)

CHECK_FAMILY = {
    "check", "check_eq", "check_ne", "check_lt", "check_le", "check_gt",
    "check_ge", "checked_narrow",
}

_ADDR_TYPE = re.compile(r"\b(La|Ia|Pa|Addr<|Ns)\b")

# Function-declaration kinds a10-lifetime summarizes.
_FUNC_KINDS = ("FunctionDecl", "CXXMethodDecl")

# Value-preserving wrapper nodes clang interposes between an expression
# and the DeclRefExpr/MemberExpr the checks care about.  Only peeled when
# they have exactly one expression child, so multi-arg constructors and
# conditional operators are never mistaken for a plain reference.
_EXPR_WRAPPERS = {"ImplicitCastExpr", "ParenExpr", "ExprWithCleanups",
                  "ConstantExpr", "MaterializeTemporaryExpr",
                  "CXXBindTemporaryExpr", "CXXConstructExpr",
                  "CXXFunctionalCastExpr", "CXXStaticCastExpr"}


def _is_const_qual(qual: str) -> bool:
    return qual.startswith("const ") or qual.endswith(" const")


def strip_expr(node: Optional[JsonNode]) -> Optional[JsonNode]:
    """Peels single-child wrapper nodes; returns the innermost node."""
    while isinstance(node, dict):
        if node.get("kind") in _EXPR_WRAPPERS:
            kids = [c for c in children(node)
                    if c.get("kind", "") and
                    not c.get("kind", "").endswith("Comment")]
            if len(kids) == 1:
                node = kids[0]
                continue
        return node
    return None


def _expr_children(node: JsonNode) -> list:
    return [c for c in children(node)
            if c.get("kind", "") and not c.get("kind", "").endswith("Comment")]


def _body_of(node: JsonNode) -> Optional[JsonNode]:
    for child in children(node):
        if child.get("kind") == "CompoundStmt":
            return child
    return None


def _unwrap_reason(reason) -> str:
    """Field name at the end of a solve_param_escapes via-chain."""
    while isinstance(reason, (list, tuple)) and reason and reason[0] == "via":
        reason = reason[2]
    if isinstance(reason, (list, tuple)) and len(reason) >= 2:
        return str(reason[1])
    return "?"


class TuContext:
    """Per-translation-unit state shared by the checks."""

    def __init__(self, repo_root: str, src_root: str):
        self.repo_root = repo_root.rstrip("/") + "/"
        self.src_root = src_root.rstrip("/") + "/"
        self.findings: list[dict] = []
        # Class name -> derives-from-*WearLeveler, and decl id -> class name
        # (for parentDeclContextId resolution of out-of-line definitions).
        # Maintained by note_node() for every check that needs class info.
        self.class_wl: dict[str, bool] = {}
        self.class_ids: dict[str, str] = {}
        self._rel_cache: dict[str, Optional[str]] = {}

    def note_node(self, cursor: Cursor) -> None:
        """Shared per-node bookkeeping, run once before the check visitors
        (class hierarchy facts used by a5's entry points and by the
        `Cls::name` keys of a5 and a10)."""
        if cursor.kind != "CXXRecordDecl":
            return
        if self.rel(cursor.file) is None:
            return  # system headers: classes there resolve as trusted
        node = cursor.node
        name = node.get("name", "") or ""
        if not name:
            return
        node_id = node.get("id")
        if isinstance(node_id, str):
            self.class_ids[node_id] = name
        if not node.get("completeDefinition"):
            return
        is_wl = name.endswith("WearLeveler")
        for base in node.get("bases") or []:
            base_qual = (base.get("type") or {}).get("qualType", "")
            if "WearLeveler" in base_qual:
                is_wl = True
            elif self.class_wl.get(base_qual.split("::")[-1].split("<")[0]):
                is_wl = True  # one level of transitivity through seen bases
        self.class_wl[name] = is_wl or self.class_wl.get(name, False)

    def enclosing_class(self, cursor: Cursor) -> str:
        """Class owning the nearest function-ish scope (or the node itself
        for out-of-line method declarations)."""
        record = cursor.nearest("CXXRecordDecl")
        if record is not None:
            return record.get("name", "") or ""
        # Out-of-line definition: clang emits parentDeclContextId when the
        # lexical and semantic decl contexts differ.
        fn = cursor.enclosing_function()
        node = fn if fn is not None else cursor.node
        parent_id = node.get("parentDeclContextId")
        if isinstance(parent_id, str):
            return self.class_ids.get(parent_id, "")
        return ""

    def rel(self, file: Optional[str]) -> Optional[str]:
        """Repo-relative path, or None for files outside the repository."""
        if not file:
            return None
        cached = self._rel_cache.get(file, "?")
        if cached != "?":
            return cached
        rel: Optional[str] = None
        if file.startswith(self.repo_root):
            rel = file[len(self.repo_root):]
        elif not file.startswith("/"):
            rel = file
        self._rel_cache[file] = rel
        return rel

    def in_scope(self, file: Optional[str], scope_dirs: tuple) -> bool:
        rel = self.rel(file)
        if rel is None:
            return False
        if not (rel.startswith("src/") or rel.startswith("bench/")):
            return True  # fixture / tool sources: every check applies
        if not scope_dirs:
            return True
        return any(rel.startswith(d) for d in scope_dirs)

    def add(self, check: "Check", cursor: Cursor, message: str,
            context: str = "") -> None:
        rel = self.rel(cursor.file)
        if rel is None:
            return
        if not context:
            fn = cursor.enclosing_function()
            if fn is not None:
                context = fn.get("name", "") or ""
        self.findings.append({
            "check": check.id,
            "file": rel,
            "line": cursor.line or 0,
            "message": message,
            "suggestion": check.suggestion,
            "context": context,
        })


class Check:
    """Base class.  One instance is created per TU; per-TU state lives on
    the instance.  Checks that reason across TUs implement summarize()
    (JSON-able per-TU facts, returned from the worker processes) and the
    classmethod finalize_program() (whole-program solve over every TU's
    summary, see graph.py)."""

    id = ""
    description = ""
    suggestion = ""
    scope_dirs: tuple = ()

    def begin_tu(self, ctx: TuContext) -> None:
        """Hook before the walk of one TU starts."""

    def visit(self, cursor: Cursor, ctx: TuContext) -> None:  # pragma: no cover
        raise NotImplementedError

    def summarize(self, ctx: TuContext) -> Optional[dict]:
        """JSON-serializable whole-program facts for this TU, or None."""
        return None

    @classmethod
    def finalize_program(cls, tus: list) -> list[dict]:
        """Findings from the merged summaries; `tus` is [(rel, summary)]
        for every TU whose summarize() returned facts for this check."""
        return []


class WidthCheck(Check):
    """A1: address/wear values funneled through a sub-64-bit type.

    The Table-I grid runs N = 2^22 lines x 1e8-write endurance; cumulative
    write counts and flat physical offsets overflow 32 bits by
    construction, so *any* 64->sub-64 integral conversion in the address
    paths is suspect.  Literal sources that provably fit are ignored;
    conversions inside a `checked_narrow` helper are the sanctioned sink.
    """

    id = "a1-width"
    description = ("64-bit address/wear value narrowed to a sub-64-bit type "
                   "in the mapping/simulation paths")
    suggestion = ("keep line/address/wear arithmetic in u64, or prove the "
                  "range and convert via srbsg::checked_narrow<T>() "
                  "(common/check.hpp)")
    scope_dirs = ("src/wl", "src/mapping", "src/sim")

    _CAST_KINDS = {"ImplicitCastExpr", "CStyleCastExpr", "CXXStaticCastExpr",
                   "CXXFunctionalCastExpr"}

    def visit(self, cursor: Cursor, ctx: TuContext) -> None:
        node = cursor.node
        if cursor.kind not in self._CAST_KINDS:
            return
        if node.get("castKind") != "IntegralCast":
            return
        if not ctx.in_scope(cursor.file, self.scope_dirs):
            return
        fn = cursor.enclosing_function()
        if fn is not None and fn.get("name") == "checked_narrow":
            return  # the checked-narrow helper is the sanctioned sink
        dst_width = type_width(node.get("type"))
        src_node = first_expr_child(node)
        src_width = type_width(src_node.get("type")) if src_node else None
        if dst_width is None or src_width is None:
            return
        if not (src_width >= 64 > dst_width):
            return
        if src_node is not None:
            literal = integer_literal_value(src_node)
            if literal is not None and self._fits(literal, node, dst_width):
                return
        explicit = "" if cursor.kind == "ImplicitCastExpr" else "explicit "
        ctx.add(self, cursor,
                f"{explicit}narrowing conversion of a {src_width}-bit value to "
                f"'{qual_type(node)}' ({dst_width} bits)")

    @staticmethod
    def _fits(value: int, cast_node: JsonNode, dst_width: int) -> bool:
        qual = desugared_type(cast_node)
        if qual.startswith("unsigned") or qual in ("bool", "char"):
            return 0 <= value < (1 << dst_width)
        return -(1 << (dst_width - 1)) <= value < (1 << (dst_width - 1))


class DeterminismCheck(Check):
    """A2: nondeterminism sources the regex linter can only approximate.

    AST-accurate versions of lint R1 (randomness / wall clock) plus the
    classes regexes cannot see: pointer hashing (heap addresses vary run
    to run under ASLR) and unordered-container iteration feeding results.
    """

    id = "a2-determinism"
    description = ("nondeterminism source: randomness, wall clock, pointer "
                   "hashing, or unordered-container iteration order")
    suggestion = ("thread an explicitly seeded srbsg::Rng through the call "
                  "path; iterate ordered containers (or sort keys first) "
                  "wherever iteration order can reach results")
    # Simulation state lives under src/; bench/ binaries time themselves
    # with wall clocks by design and are out of scope.
    scope_dirs = ("src/",)

    _BANNED_CALLS = {
        "rand": "rand() is seed-hidden global state",
        "srand": "srand() reseeds hidden global state",
        "random": "random() is seed-hidden global state",
        "drand48": "drand48() is seed-hidden global state",
        "lrand48": "lrand48() is seed-hidden global state",
        "time": "time() reads the wall clock",
        "clock": "clock() reads the process clock",
        "gettimeofday": "gettimeofday() reads the wall clock",
        "clock_gettime": "clock_gettime() reads the wall clock",
        "timespec_get": "timespec_get() reads the wall clock",
    }
    _HASH_PTR = re.compile(r"\bstd::hash<[^<>]*\*\s*>")
    _UNORDERED = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")

    def visit(self, cursor: Cursor, ctx: TuContext) -> None:
        if not ctx.in_scope(cursor.file, self.scope_dirs):
            return
        kind = cursor.kind
        node = cursor.node
        if kind in ("CallExpr", "CXXMemberCallExpr"):
            name, sig = callee_of(node)
            reason = self._BANNED_CALLS.get(name)
            if reason is not None:
                ctx.add(self, cursor, f"call to '{name}': {reason}")
            elif name == "now" and ("clock" in sig or "time_point" in sig):
                ctx.add(self, cursor,
                        "call to a chrono clock's now(): wall/monotonic time "
                        "must not reach simulation state")
        elif kind in ("VarDecl", "CXXConstructExpr", "CXXTemporaryObjectExpr"):
            qual = desugared_type(node)
            if "random_device" in qual:
                ctx.add(self, cursor,
                        "std::random_device: seeds must be explicit and "
                        "reproducible")
            elif self._HASH_PTR.search(qual):
                ctx.add(self, cursor,
                        "std::hash over a pointer type: heap addresses vary "
                        "across runs (ASLR), so the hash is nondeterministic")
        elif kind == "CXXForRangeStmt":
            self._visit_range_for(cursor, ctx)

    def _visit_range_for(self, cursor: Cursor, ctx: TuContext) -> None:
        # The synthesized __range/__begin/__end DeclStmts are direct
        # children; the loop body is the last child and must not be
        # scanned (it may declare unordered containers legitimately).
        kids = children(cursor.node)
        for child in kids[:-1] if kids else []:
            for sub in iter_subtree(child):
                if sub.get("kind") == "VarDecl" and \
                        self._UNORDERED.search(desugared_type(sub)):
                    ctx.add(self, cursor,
                            "range-for over an unordered container: iteration "
                            "order is hash-seed dependent and must not feed "
                            "results")
                    return


class StateCheck(Check):
    """A4: mutable namespace-scope / static-local state in src/wl.

    Wear-leveling schemes are instantiated per thread inside sweeps; any
    mutable static state silently couples those instances and breaks
    determinism of parallel runs.
    """

    id = "a4-state"
    description = ("mutable namespace-scope or static-local state inside a "
                   "wear-leveling scheme")
    suggestion = ("move the state into the scheme object (per-instance), or "
                  "make it constexpr/const if it is genuinely immutable")
    scope_dirs = ("src/wl",)

    def visit(self, cursor: Cursor, ctx: TuContext) -> None:
        if cursor.kind != "VarDecl":
            return
        if not ctx.in_scope(cursor.file, self.scope_dirs):
            return
        node = cursor.node
        if node.get("constexpr") is True:
            return
        if _is_const_qual(desugared_type(node)) or \
                _is_const_qual(qual_type(node)):
            return
        in_function = cursor.enclosing_function() is not None
        if in_function:
            if node.get("storageClass") == "static":
                ctx.add(self, cursor,
                        f"static local '{node.get('name', '?')}' is mutable "
                        "state shared across scheme instances")
        else:
            # Namespace/class scope. Class-scope VarDecls are static data
            # members; FieldDecls (per-instance) are a different kind and
            # are never flagged.
            ctx.add(self, cursor,
                    f"namespace-scope variable '{node.get('name', '?')}' is "
                    "mutable state shared across scheme instances")


class UncheckedCheck(Check):
    """A5: public WearLeveler entry points with unvalidated parameters.

    Whole-program pass: a function "reaches a check" when its body calls
    the check family directly or (transitively, across all analyzed TUs)
    calls a function that does.  Callees whose bodies were never seen are
    trusted.  Entry points are the WearLeveler interface surface on
    classes deriving from (or named) *WearLeveler, restricted to methods
    that actually *use* an arithmetic/address parameter.
    """

    id = "a5-unchecked"
    description = ("public WearLeveler entry point uses a parameter whose "
                   "domain is never validated by an SRBSG_CHECK/check_* call")
    suggestion = ("validate the parameter domain on entry with SRBSG_CHECK "
                  "or the check_* family (common/check.hpp)")
    scope_dirs = ("src/wl",)

    _SURFACE = {"translate", "write", "write_repeated", "read",
                "set_rate_boost"}
    _VISIT_KINDS = {"FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl"}

    def __init__(self) -> None:
        self._functions: dict[str, dict] = {}
        self._entries: list[dict] = []

    def visit(self, cursor: Cursor, ctx: TuContext) -> None:
        kind = cursor.kind
        node = cursor.node
        if ctx.rel(cursor.file) is None:
            return  # system headers: callees there resolve as trusted
        if kind not in self._VISIT_KINDS:
            return
        body = _body_of(node)
        if body is None:
            return
        name = node.get("name", "") or ""
        sig = qual_type(node)
        cls = ctx.enclosing_class(cursor)
        key = f"{cls}::{name}|{sig}"
        record = self._functions.setdefault(
            key, {"name": name, "sig": sig, "checks": False, "calls": set()})
        for sub in iter_subtree(body):
            if sub.get("kind") in ("CallExpr", "CXXMemberCallExpr",
                                   "CXXOperatorCallExpr"):
                callee, callee_sig = callee_of(sub)
                if callee in CHECK_FAMILY:
                    record["checks"] = True
                elif callee:
                    record["calls"].add((callee, callee_sig))
        self._note_entry(cursor, ctx, node, body, name, sig, cls, key)

    def summarize(self, ctx: TuContext) -> Optional[dict]:
        if not self._functions and not self._entries:
            return None
        functions = {key: {"name": rec["name"], "sig": rec["sig"],
                           "checks": rec["checks"],
                           "calls": sorted([list(c) for c in rec["calls"]])}
                     for key, rec in self._functions.items()}
        return {"functions": functions, "entries": self._entries}

    def _class_is_wl(self, ctx: TuContext, cls: str) -> bool:
        return bool(ctx.class_wl.get(cls))

    # -- entry-point bookkeeping -------------------------------------------

    def _note_entry(self, cursor: Cursor, ctx: TuContext, node: JsonNode,
                    body: JsonNode, name: str, sig: str, cls: str,
                    key: str) -> None:
        if not ctx.in_scope(cursor.file, self.scope_dirs):
            return
        is_ctor = cursor.kind == "CXXConstructorDecl"
        if not is_ctor and name not in self._SURFACE:
            return
        if is_ctor:
            cls = cls or name
        if not cls or not self._class_is_wl(ctx, cls):
            return
        param = self._used_arith_param(node, body)
        if param is None:
            return
        rel = ctx.rel(cursor.file)
        if rel is None:
            return
        self._entries.append({
            "key": key,
            "file": rel,
            "line": cursor.line or 0,
            "context": name,
            "message": (f"entry point '{cls}::{name}' uses parameter "
                        f"'{param}' without reaching an "
                        "SRBSG_CHECK/check_* validation"),
        })

    def _used_arith_param(self, node: JsonNode,
                          body: JsonNode) -> Optional[str]:
        """Name of the first arithmetic/address parameter the body actually
        uses (cast-to-void 'uses' excluded), else None."""
        param_ids: dict = {}
        for child in children(node):
            if child.get("kind") != "ParmVarDecl":
                continue
            qual = desugared_type(child)
            if type_width(child.get("type")) is not None or \
                    _ADDR_TYPE.search(qual_type(child)) or _ADDR_TYPE.search(qual):
                param_ids[child.get("id")] = child.get("name", "") or "<param>"
        if not param_ids:
            return None
        voided: set = set()
        for sub in iter_subtree(body):
            if sub.get("kind") == "CStyleCastExpr" and \
                    qual_type(sub) == "void":
                for inner in iter_subtree(sub):
                    if inner.get("kind") == "DeclRefExpr":
                        ref = inner.get("referencedDecl") or {}
                        voided.add(ref.get("id"))
        for sub in iter_subtree(body):
            if sub.get("kind") == "DeclRefExpr":
                ref = sub.get("referencedDecl") or {}
                ref_id = ref.get("id")
                if ref_id in param_ids and ref_id not in voided:
                    return param_ids[ref_id]
        return None

    # -- whole-program closure ---------------------------------------------

    @classmethod
    def finalize_program(cls, tus: list) -> list[dict]:
        """Fixed-point 'reaches a check' closure, then entry-point findings."""
        merged = graph.merge_function_maps(tus, "functions")
        checking = graph.solve_check_closure(graph.CallGraph(merged))
        findings = []
        seen: set = set()
        for _rel, summary in tus:
            for entry in summary.get("entries", []):
                if entry["key"] in checking:
                    continue
                dedup = (entry["file"], entry["line"], entry["message"])
                if dedup in seen:
                    continue
                seen.add(dedup)
                findings.append({
                    "check": cls.id,
                    "file": entry["file"],
                    "line": entry["line"],
                    "message": entry["message"],
                    "suggestion": cls.suggestion,
                    "context": entry["context"],
                })
        return findings


class BatchCheck(Check):
    """A6: per-write loops on the batched write path.

    write_batch()/write_cycle() hoist translation state, remap-counter
    arithmetic, and bank pointers out of the per-write dispatch; a raw
    loop that issues WearLeveler/MemoryController write() calls one at a
    time and discards each outcome re-pays that cost every iteration.
    Loops that *use* the outcome (attack probes reading stalls, tests
    asserting per-write invariants) are the sanctioned per-write
    consumers and are never flagged.
    """

    id = "a6-batch"
    description = ("raw loop issues per-write WearLeveler/MemoryController "
                   "write() calls with the outcome discarded")
    suggestion = ("collect the addresses and issue one write_batch() — or "
                  "write_cycle() for a periodic pattern — so translation "
                  "state is hoisted out of the loop (src/wl/batch.hpp)")
    scope_dirs = ("bench/", "src/attack")

    _LOOPS = ("ForStmt", "WhileStmt", "DoStmt", "CXXForRangeStmt")
    _RECEIVER = re.compile(r"\b(WearLeveler|MemoryController)\b")
    # Nodes clang interposes between a discarded call and its statement
    # context; a (void)-cast still discards the outcome.
    _WRAPPERS = {"ExprWithCleanups", "CXXBindTemporaryExpr", "ConstantExpr",
                 "ParenExpr", "ImplicitCastExpr", "MaterializeTemporaryExpr"}
    _STMT_CONTEXTS = {"CompoundStmt", "ForStmt", "WhileStmt", "DoStmt",
                      "CXXForRangeStmt", "CaseStmt", "DefaultStmt",
                      "LabelStmt"}

    def visit(self, cursor: Cursor, ctx: TuContext) -> None:
        if cursor.kind != "CXXMemberCallExpr":
            return
        if not ctx.in_scope(cursor.file, self.scope_dirs):
            return
        member = self._member_expr(cursor.node)
        if member is None or member.get("name") != "write":
            return
        match = self._RECEIVER.search(self._receiver_type(member))
        if match is None:
            return
        if cursor.nearest(*self._LOOPS) is None:
            return
        if not self._discarded(cursor):
            return
        ctx.add(self, cursor,
                f"loop issues '{match.group(1)}::write()' per iteration "
                "and discards the outcome")

    @staticmethod
    def _member_expr(call: JsonNode) -> Optional[JsonNode]:
        head = first_expr_child(call)
        if head is None:
            return None
        for node in iter_subtree(head):
            if node.get("kind") == "MemberExpr":
                return node
        return None

    @staticmethod
    def _receiver_type(member: JsonNode) -> str:
        base = first_expr_child(member)
        return desugared_type(base) or qual_type(base)

    def _discarded(self, cursor: Cursor) -> bool:
        for parent in reversed(cursor.parents):
            kind = parent.get("kind", "")
            if kind in self._WRAPPERS:
                continue
            if kind == "CStyleCastExpr" and qual_type(parent) == "void":
                continue
            return kind in self._STMT_CONTEXTS
        return False


class TelemetryCheck(Check):
    """A7: ad-hoc progress prints inside library code.

    The telemetry subsystem (src/telemetry) is the sanctioned
    observability channel for library code: counters and events that
    serialize deterministically and cost one null-pointer branch when
    disabled.  A library function writing progress straight to
    std::cout/std::cerr (or through the printf family) bypasses it —
    the output interleaves nondeterministically under the sweep pool,
    cannot be disabled for benchmarking, and never reaches the JSONL
    trace.  bench/ and tools binaries print by design and are out of
    scope.
    """

    id = "a7-telemetry"
    description = ("library code prints progress directly to stdout/stderr "
                   "instead of going through the telemetry subsystem")
    suggestion = ("emit a telemetry counter/event (src/telemetry) or take an "
                  "std::ostream& parameter; direct std::cout/printf output "
                  "belongs in bench/ and tools binaries only")
    scope_dirs = ("src/",)

    _STREAMS = {"cout", "cerr", "clog"}
    _PRINTF_FAMILY = {"printf", "fprintf", "vprintf", "vfprintf", "puts",
                      "fputs", "putchar", "fputc", "putc"}

    def visit(self, cursor: Cursor, ctx: TuContext) -> None:
        if not ctx.in_scope(cursor.file, self.scope_dirs):
            return
        node = cursor.node
        if cursor.kind == "DeclRefExpr":
            ref = node.get("referencedDecl")
            if not isinstance(ref, dict):
                return
            name = ref.get("name")
            if name in self._STREAMS and \
                    "ostream" in (ref.get("type") or {}).get("qualType", ""):
                ctx.add(self, cursor,
                        f"direct use of 'std::{name}' inside library code")
        elif cursor.kind == "CallExpr":
            name, _ = callee_of(node)
            if name in self._PRINTF_FAMILY:
                ctx.add(self, cursor,
                        f"call to '{name}': stdio progress printing inside "
                        "library code")


class LifetimeCheck(Check):
    """A10: view parameters (std::span / Recorder*) escaping into members.

    A span or raw Recorder pointer taken as a parameter borrows storage
    the caller owns; storing it into a member lets the view outlive the
    call.  Per TU, functions with view parameters are summarized with
    the `this->member = param` stores they perform and the calls they
    forward the parameter to verbatim; graph.solve_param_escapes()
    closes the forward chains over every TU.  Only plain `member =
    param` stores count (a conditional or computed right-hand side is
    not a stored view), and constructor member-init lists are exempt —
    both deliberate under-reporting.
    """

    id = "a10-lifetime"
    description = ("std::span / Recorder* view parameter is stored into a "
                   "member that outlives the call (directly or through a "
                   "callee in another TU)")
    suggestion = ("copy the viewed data instead of the view, or document "
                  "the attached-observer lifetime contract and suppress; a "
                  "stored view must not outlive the buffer it borrows")
    scope_dirs = ("src/",)

    _VIEW = re.compile(r"\bspan<|\bRecorder\s*\*")

    def __init__(self) -> None:
        self._functions: dict[str, dict] = {}
        self._fn_info: dict[str, tuple] = {}  # fn node id -> (key, {pid: idx})

    def visit(self, cursor: Cursor, ctx: TuContext) -> None:
        kind = cursor.kind
        if kind in _FUNC_KINDS:
            self._enter_function(cursor, ctx)
        elif kind == "BinaryOperator":
            if cursor.node.get("opcode") != "=":
                return
            info = self._info_for(cursor)
            if info is None:
                return
            kids = _expr_children(cursor.node)
            if len(kids) == 2:
                self._note_store(kids[0], kids[1], info, cursor, ctx)
        elif kind == "CXXOperatorCallExpr":
            # Class-type assignment (span member = span param) is an
            # operator= call: children are [callee, lhs, rhs].
            cname, _ = callee_of(cursor.node)
            if cname != "operator=":
                return
            info = self._info_for(cursor)
            if info is None:
                return
            kids = _expr_children(cursor.node)
            if len(kids) >= 3:
                self._note_store(kids[1], kids[2], info, cursor, ctx)
        elif kind in ("CallExpr", "CXXMemberCallExpr"):
            info = self._info_for(cursor)
            if info is not None:
                self._note_forward(cursor, ctx, info)

    def _info_for(self, cursor: Cursor) -> Optional[tuple]:
        fn = cursor.enclosing_function()
        if fn is None:
            return None
        return self._fn_info.get(fn.get("id"))

    def _enter_function(self, cursor: Cursor, ctx: TuContext) -> None:
        node = cursor.node
        name = node.get("name", "") or ""
        if not name or name.startswith("operator"):
            return
        if ctx.rel(cursor.file) is None:
            return
        view_params: dict = {}
        param_names: dict = {}
        param_ids: dict = {}
        idx = -1
        for child in children(node):
            if child.get("kind") != "ParmVarDecl":
                continue
            idx += 1
            qual = qual_type(child)
            if self._VIEW.search(qual) or \
                    self._VIEW.search(desugared_type(child)):
                view_params[str(idx)] = qual
                param_names[str(idx)] = child.get("name", "") or "<param>"
                param_ids[child.get("id")] = idx
        if not view_params:
            return
        cls_name = ctx.enclosing_class(cursor)
        key = f"{cls_name}::{name}|{qual_type(node)}"
        self._functions.setdefault(
            key, {"name": name, "sig": qual_type(node),
                  "view_params": view_params, "param_names": param_names,
                  "stores": [], "forwards": [], "edges": []})
        node_id = node.get("id")
        if isinstance(node_id, str):
            self._fn_info[node_id] = (key, param_ids)

    def _note_store(self, lhs: JsonNode, rhs: JsonNode, info: tuple,
                    cursor: Cursor, ctx: TuContext) -> None:
        key, param_ids = info
        target = strip_expr(lhs)
        rhs_t = strip_expr(rhs)
        if target is None or rhs_t is None:
            return
        if target.get("kind") != "MemberExpr" or \
                rhs_t.get("kind") != "DeclRefExpr":
            return
        base = strip_expr(first_expr_child(target))
        if base is None or base.get("kind") != "CXXThisExpr":
            return  # only members of the object itself outlive the call
        idx = param_ids.get((rhs_t.get("referencedDecl") or {}).get("id"))
        if idx is None:
            return
        rel = ctx.rel(cursor.file)
        if rel is None:
            return
        fn = cursor.enclosing_function()
        store = {"idx": idx, "field": target.get("name", "") or "?",
                 "file": rel, "line": cursor.line or 0,
                 "context": (fn.get("name", "") or "") if fn else "",
                 "scoped": ctx.in_scope(cursor.file, self.scope_dirs)}
        rec = self._functions[key]
        if store not in rec["stores"]:
            rec["stores"].append(store)

    def _note_forward(self, cursor: Cursor, ctx: TuContext,
                      info: tuple) -> None:
        key, param_ids = info
        node = cursor.node
        cname, _ = callee_of(node)
        if not cname or cname.startswith("operator") or cname in CHECK_FAMILY:
            return
        rec = self._functions[key]
        rel = ctx.rel(cursor.file)
        scoped = rel is not None and \
            ctx.in_scope(cursor.file, self.scope_dirs)
        fn = cursor.enclosing_function()
        context = (fn.get("name", "") or "") if fn is not None else ""
        for k, arg in enumerate(children(node)[1:]):
            target = strip_expr(arg)
            if target is None or target.get("kind") != "DeclRefExpr":
                continue
            idx = param_ids.get((target.get("referencedDecl") or {}).get("id"))
            if idx is None:
                continue
            edge = [idx, cname, k]
            if edge not in rec["edges"]:
                rec["edges"].append(edge)
            if scoped:
                fwd = {"idx": idx, "callee": cname, "argidx": k,
                       "file": rel, "line": cursor.line or 0,
                       "context": context}
                if fwd not in rec["forwards"]:
                    rec["forwards"].append(fwd)

    def summarize(self, ctx: TuContext) -> Optional[dict]:
        if not self._functions:
            return None
        return {"functions": self._functions}

    @classmethod
    def finalize_program(cls, tus: list) -> list[dict]:
        merged = graph.merge_function_maps(tus, "functions")
        escapes = graph.solve_param_escapes(
            merged,
            lambda rec: {int(s["idx"]): ["store", s["field"]]
                         for s in (rec.get("stores") or [])},
            lambda rec: rec.get("edges") or [])
        findings = []
        for fn_key in sorted(merged):
            rec = merged[fn_key]
            for idx_s in sorted(rec.get("view_params") or {}, key=int):
                idx = int(idx_s)
                pname = (rec.get("param_names") or {}).get(idx_s, "<param>")
                label = rec["view_params"][idx_s]
                stores = sorted(
                    (s for s in rec.get("stores") or []
                     if int(s["idx"]) == idx),
                    key=lambda s: (s["file"], s["line"]))
                scoped_stores = [s for s in stores if s.get("scoped", True)]
                if scoped_stores:
                    s = scoped_stores[0]
                    findings.append({
                        "check": cls.id, "file": s["file"], "line": s["line"],
                        "message": (f"view parameter '{pname}' ({label}) is "
                                    f"stored into member '{s['field']}', "
                                    "which outlives the call"),
                        "suggestion": cls.suggestion,
                        "context": s.get("context", "")})
                if stores:
                    continue  # direct store reported; skip its forwards
                for fwd in sorted(rec.get("forwards") or [],
                                  key=lambda f: (f["file"], f["line"])):
                    if int(fwd["idx"]) != idx:
                        continue
                    reason = escapes.get((fwd["callee"], int(fwd["argidx"])))
                    if reason is None:
                        continue
                    findings.append({
                        "check": cls.id, "file": fwd["file"],
                        "line": fwd["line"],
                        "message": (f"view parameter '{pname}' ({label}) "
                                    f"escapes through '{fwd['callee']}()' "
                                    f"into member "
                                    f"'{_unwrap_reason(reason)}', which "
                                    "outlives the call"),
                        "suggestion": cls.suggestion,
                        "context": fwd.get("context", "")})
                    break
        return findings


class SpanCheck(Check):
    """A11: a telemetry span begin that is not post-dominated by its end.

    Span pairs (Recorder::span_begin/span_end and the epoch::span_*
    helpers) must close on every path out of the opening scope —
    srbsg-trace flags an unbalanced pair as a truncated span, and in the
    Chrome export it renders as a phantom slice to the end of the run.
    The check is a linear scan per function-ish scope (lambdas open
    their own scope): begins push, ends pop, and a return/throw while
    the stack is non-empty is a path that escapes the span.  Functions
    whose own name is span-shaped are one half of a forwarding wrapper
    (epoch::span_fallback_begin emits only the begin) and are skipped.
    """

    id = "a11-span"
    description = ("telemetry span opened but not closed on every path "
                   "out of its scope")
    suggestion = ("close every span begin with its end on all exits "
                  "(early returns and throws included), or move the pair "
                  "into a helper with no exits between them")
    scope_dirs = ("src/wl", "src/controller", "src/telemetry", "bench/")

    _CALL_KINDS = ("CallExpr", "CXXMemberCallExpr")
    _SCOPE_KINDS = ("LambdaExpr", "FunctionDecl", "CXXMethodDecl",
                    "CXXConstructorDecl", "CXXDestructorDecl",
                    "CXXConversionDecl")

    def begin_tu(self, ctx: TuContext) -> None:
        # id(scope node) -> [(callee name, begin cursor), ...]
        self._open: dict[int, list] = {}

    @staticmethod
    def _span_role(name: str) -> str:
        low = name.lower()
        if "span" not in low:
            return ""
        if low.endswith("begin"):
            return "begin"
        if low.endswith("end"):
            return "end"
        return ""

    def _scope(self, cursor: Cursor) -> tuple[int, str]:
        for parent in reversed(cursor.parents):
            if parent.get("kind") in self._SCOPE_KINDS:
                return id(parent), parent.get("name", "") or ""
        return 0, ""

    def visit(self, cursor: Cursor, ctx: TuContext) -> None:
        kind = cursor.kind
        if kind in self._CALL_KINDS:
            name, _ = callee_of(cursor.node)
            role = self._span_role(name or "")
            if not role:
                return
            if not ctx.in_scope(cursor.file, self.scope_dirs):
                return
            scope_id, scope_name = self._scope(cursor)
            if self._span_role(scope_name):
                return  # one half of a forwarding wrapper
            stack = self._open.setdefault(scope_id, [])
            if role == "begin":
                stack.append((name, cursor))
            elif stack:
                stack.pop()
            else:
                ctx.add(self, cursor,
                        f"'{name}' closes a span that was never opened in "
                        "this scope")
        elif kind in ("ReturnStmt", "CXXThrowExpr"):
            if not ctx.in_scope(cursor.file, self.scope_dirs):
                return
            stack = self._open.get(self._scope(cursor)[0])
            if stack:
                opened = ", ".join(f"'{n}' (line {c.line or 0})"
                                   for n, c in stack)
                exit_kind = "return" if kind == "ReturnStmt" else "throw"
                ctx.add(self, cursor,
                        f"{exit_kind} escapes {len(stack)} open span(s): "
                        f"{opened}")

    def summarize(self, ctx: TuContext) -> Optional[dict]:
        # End-of-TU flush: pre-order visitation is source order inside a
        # scope, so anything still open was never closed in that scope.
        for stack in self._open.values():
            for name, begin_cursor in stack:
                ctx.add(self, begin_cursor,
                        f"'{name}' opens a span that is never closed in "
                        "this scope")
        self._open.clear()
        return None


ALL_CHECKS = [WidthCheck, DeterminismCheck, StateCheck, UncheckedCheck,
              BatchCheck, TelemetryCheck, LifetimeCheck, SpanCheck]
CHECKS_BY_ID = {c.id: c for c in ALL_CHECKS}

"""Cross-TU symbol graph and interprocedural solvers for srbsg-analyze.

Per-TU visitors (checks.py) compress each translation unit into small
JSON-serializable *summaries* — per-function facts plus the call edges
between them.  This module owns the whole-program half: it merges the
summaries of every analyzed TU into one symbol graph and runs the
fixed-point solvers the interprocedural checks (a5, a8, a9, a10) share.
Summaries are plain JSON so they cross the driver's process pool
unchanged.

Resolution model
----------------
Functions are keyed `Cls::name|signature` (the a5 convention).  Cross-TU
resolution is by *name*: a call edge `("call", "foo")` matches every
summarized function whose bare name is `foo` (overloads merge, which
over-approximates but only along edges that already carry a fact).
Callees with no summary — std library, system headers, bodies the
analyzer never saw — resolve as *trusted*: they contribute no taint, no
writes, no escapes.  That keeps the conservatism direction identical to
the per-TU checks: under-report rather than guess.

The taint lattice
-----------------
a8's atoms form a flat lattice per value: an expression's abstract value
is a *set of atoms*, joined by set union, where each atom is one of

  ("src", label)        a direct nondeterminism source (rand(), a wall
                        clock, a pointer hashed/cast to an integer)
  ("call", name)        the return value of `name` — tainted iff `name`
                        resolves to a function whose return is tainted
  ("field", key)        a read of field `key` (`Cls::member`) — tainted
                        iff any summarized store to that field is
  ("out", name, k)      the k-th argument slot of a call to `name` —
                        tainted iff `name` writes a tainted value
                        through its k-th (pointer/reference) parameter

solve_taint() iterates three maps (return-taint by name, field-taint by
key, out-param-taint by (name, k)) to their least fixed point; a sink
argument is then flagged when its atom set resolves to a non-empty label
set.  The lattice has no Top: unresolvable atoms are bottom (trusted).
"""

from __future__ import annotations

from typing import Callable, Optional

Atom = list  # JSON-serialized atoms: ["src", label] | ["call", name] | ...


def merge_function_maps(tus: list, field: str) -> dict:
    """Merges the per-TU `functions` maps of `field` summaries.

    `tus` is a list of (rel, summary) pairs.  Records with the same key
    (one function seen from several TUs, e.g. an inline header method)
    are union-merged list-field by list-field; scalar fields keep the
    first non-empty value.
    """
    merged: dict = {}
    for _rel, summary in tus:
        for key, rec in (summary.get(field) or {}).items():
            into = merged.get(key)
            if into is None:
                # Deep-enough copy so repeated finalize calls stay pure.
                merged[key] = {
                    k: (list(v) if isinstance(v, list)
                        else dict(v) if isinstance(v, dict) else v)
                    for k, v in rec.items()
                }
                continue
            for k, v in rec.items():
                if isinstance(v, list):
                    have = into.setdefault(k, [])
                    for item in v:
                        if item not in have:
                            have.append(item)
                elif isinstance(v, dict):
                    have = into.setdefault(k, {})
                    for sub_key, sub_v in v.items():
                        if sub_key not in have:
                            have[sub_key] = sub_v
                        elif isinstance(sub_v, list):
                            for item in sub_v:
                                if item not in have[sub_key]:
                                    have[sub_key].append(item)
                elif not into.get(k):
                    into[k] = v
    return merged


class CallGraph:
    """Name/signature-indexed view over merged function summaries.

    This is the symbol index the a5 check-closure prototype grew into:
    `functions` maps key -> record (any per-check record shape with at
    least a `name`), and candidate resolution tries exact (name, sig)
    first, then bare name.
    """

    def __init__(self, functions: dict):
        self.functions = functions
        self.by_name: dict[str, list] = {}
        self.by_name_sig: dict[tuple, list] = {}
        for key, rec in functions.items():
            name = rec.get("name", "")
            self.by_name.setdefault(name, []).append(key)
            sig = rec.get("sig", "")
            if sig:
                self.by_name_sig.setdefault((name, sig), []).append(key)

    def candidates(self, name: str, sig: str = "") -> Optional[list]:
        """Keys of summarized functions a call to (name, sig) may reach,
        or None when the callee was never summarized (trusted)."""
        if sig:
            keys = self.by_name_sig.get((name, sig))
            if keys:
                return keys
        return self.by_name.get(name)

    def fixed_point(self, step: Callable[[], bool]) -> None:
        """Runs `step` (returns True when something changed) to a fixed
        point.  Every solver here is monotone over finite sets, so this
        terminates."""
        while step():
            pass


# -- a5: 'reaches a check' closure ------------------------------------------

def solve_check_closure(graph: CallGraph) -> set:
    """Keys of functions that reach a check_* call directly or through
    any summarized callee; unsummarized callees are trusted (checking)."""
    checking = {k for k, rec in graph.functions.items() if rec.get("checks")}

    def callee_checks(callee) -> bool:
        name, sig = callee
        keys = graph.candidates(name, sig)
        if keys is None:
            return True  # body never seen: trusted
        return any(k in checking for k in keys)

    def step() -> bool:
        changed = False
        for key, rec in graph.functions.items():
            if key in checking:
                continue
            if any(callee_checks(tuple(c)) for c in rec.get("calls", [])):
                checking.add(key)
                changed = True
        return changed

    graph.fixed_point(step)
    return checking


# -- a8: determinism-taint lattice ------------------------------------------

def resolve_atoms(atoms: list, ret_taint: dict, field_taint: dict,
                  out_taint: dict) -> set:
    """Source labels an atom set resolves to under the current maps."""
    labels: set = set()
    for atom in atoms:
        kind = atom[0]
        if kind == "src":
            labels.add(atom[1])
        elif kind == "call":
            labels |= ret_taint.get(atom[1], frozenset())
        elif kind == "field":
            labels |= field_taint.get(atom[1], frozenset())
        elif kind == "out":
            labels |= out_taint.get((atom[1], atom[2]), frozenset())
    return labels


def solve_taint(functions: dict) -> tuple[dict, dict, dict]:
    """Least fixed point of the taint lattice over merged a8 summaries.

    Returns (ret_taint: name -> labels, field_taint: key -> labels,
    out_taint: (name, k) -> labels).  Overloads merge by name (union).
    """
    ret_taint: dict = {}
    field_taint: dict = {}
    out_taint: dict = {}

    def step() -> bool:
        changed = False
        for rec in functions.values():
            name = rec.get("name", "")
            labels = resolve_atoms(rec.get("returns", []),
                                   ret_taint, field_taint, out_taint)
            if labels - ret_taint.get(name, set()):
                ret_taint[name] = ret_taint.get(name, set()) | labels
                changed = True
            for idx, atoms in (rec.get("out_params") or {}).items():
                slot = (name, int(idx))
                labels = resolve_atoms(atoms, ret_taint, field_taint,
                                       out_taint)
                if labels - out_taint.get(slot, set()):
                    out_taint[slot] = out_taint.get(slot, set()) | labels
                    changed = True
            for field, atoms in (rec.get("field_stores") or {}).items():
                labels = resolve_atoms(atoms, ret_taint, field_taint,
                                       out_taint)
                if labels - field_taint.get(field, set()):
                    field_taint[field] = field_taint.get(field, set()) | labels
                    changed = True
        return changed

    CallGraph(functions).fixed_point(step)
    return ret_taint, field_taint, out_taint


# -- a9 / a10: escape fixed points ------------------------------------------

def solve_param_escapes(functions: dict, direct_of: Callable[[dict], dict],
                        forwards_of: Callable[[dict], list]) -> dict:
    """Generic 'parameter escapes' fixed point, by (bare name, index).

    `direct_of(rec)` maps param index -> reason for parameters the
    function itself compromises (stores into a member / writes a field
    through); `forwards_of(rec)` lists [param_idx, callee, arg_idx]
    edges where the parameter is passed through verbatim.  A parameter
    escapes when a direct reason exists or a forward reaches an
    escaping (callee, arg_idx).  Returns {(name, idx): reason}; the
    reason of a forwarded escape is ("via", callee, underlying_reason).
    """
    escapes: dict = {}
    for rec in functions.values():
        name = rec.get("name", "")
        for idx, reason in direct_of(rec).items():
            escapes.setdefault((name, int(idx)), reason)

    def step() -> bool:
        changed = False
        for rec in functions.values():
            name = rec.get("name", "")
            for edge in forwards_of(rec):
                pidx, callee, argidx = edge[0], edge[1], edge[2]
                slot = (name, int(pidx))
                target = escapes.get((callee, int(argidx)))
                if target is not None and slot not in escapes:
                    escapes[slot] = ("via", callee, target)
                    changed = True
        return changed

    CallGraph(functions).fixed_point(step)
    return escapes


def solve_method_writes(functions: dict) -> dict:
    """(cls, method) -> offending field, for methods that write a
    non-atomic field without a lock — directly or through any same-class
    method they call on `this` (merged across TUs).  Methods that
    declare a lock guard are trusted, as are callees never summarized.
    """
    writes: dict = {}
    for rec in functions.values():
        if rec.get("guarded"):
            continue
        fields = rec.get("field_writes") or []
        if fields:
            writes.setdefault((rec.get("cls", ""), rec.get("name", "")),
                              fields[0])

    def step() -> bool:
        changed = False
        for rec in functions.values():
            if rec.get("guarded"):
                continue
            slot = (rec.get("cls", ""), rec.get("name", ""))
            if slot in writes:
                continue
            for callee in rec.get("this_calls", []):
                hit = writes.get((rec.get("cls", ""), callee))
                if hit is not None:
                    writes[slot] = hit
                    changed = True
                    break
        return changed

    CallGraph(functions).fixed_point(step)
    return writes

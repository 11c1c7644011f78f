"""Cross-TU symbol graph and interprocedural solvers for srbsg-analyze.

Per-TU visitors (checks.py) compress each translation unit into small
JSON-serializable *summaries* — per-function facts plus the call edges
between them.  This module owns the whole-program half: it merges the
summaries of every analyzed TU into one symbol graph and runs the
fixed-point solvers of the two interprocedural checks: a5-unchecked's
'reaches a check' closure and a10-lifetime's parameter escapes.
Summaries are plain JSON so they cross the driver's process pool
unchanged.

Resolution model
----------------
Functions are keyed `Cls::name|signature` (the a5 convention).  Cross-TU
resolution is by *name*: a call edge `("call", "foo")` matches every
summarized function whose bare name is `foo` (overloads merge, which
over-approximates but only along edges that already carry a fact).
Callees with no summary — std library, system headers, bodies the
analyzer never saw — resolve as *trusted*: a5 counts them as checking
and a10 as storing nothing.  That keeps the conservatism direction
identical to the per-TU checks: under-report rather than guess.
"""

from __future__ import annotations

from typing import Callable, Optional


def merge_function_maps(tus: list, field: str) -> dict:
    """Merges the per-TU `functions` maps of `field` summaries.

    `tus` is a list of (rel, summary) pairs.  Records with the same key
    (one function seen from several TUs, e.g. an inline header method)
    are union-merged list-field by list-field; dict fields keep each
    key's first value, scalar fields the first non-empty value.
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
                        have.setdefault(sub_key, sub_v)
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


# -- a10: escape fixed point ------------------------------------------------

def solve_param_escapes(functions: dict, direct_of: Callable[[dict], dict],
                        forwards_of: Callable[[dict], list]) -> dict:
    """Generic 'parameter escapes' fixed point, by (bare name, index).

    `direct_of(rec)` maps param index -> reason for parameters the
    function itself stores into a member; `forwards_of(rec)` lists
    [param_idx, callee, arg_idx] edges where the parameter is passed
    through verbatim.  A parameter escapes when a direct reason exists
    or a forward reaches an escaping (callee, arg_idx).  Returns
    {(name, idx): reason}; the reason of a forwarded escape is
    ("via", callee, underlying_reason).
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
